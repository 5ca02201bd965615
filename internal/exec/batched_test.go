package exec

import (
	"strings"
	"testing"

	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/xmark"
)

// findRecord returns the first strategy record of the engine's trace.
func findRecord(t *testing.T, e *Engine) *StrategyRecord {
	t.Helper()
	var rec *StrategyRecord
	e.Trace().Visit(func(s *Span) {
		for _, r := range s.Strategies {
			if rec == nil {
				rec = r
			}
		}
	})
	if rec == nil {
		t.Fatal("no strategy record in trace")
	}
	return rec
}

// TestBatchedDispatch: with Options.Batched every strategy with a
// batched mode runs on the kernels (BatchedTau, record.Batched), agrees
// with its interpreted counterpart, and still tallies actual work.
func TestBatchedDispatch(t *testing.T) {
	for _, tc := range []struct {
		strategy Strategy
		query    string
	}{
		{StrategyNoK, `//parlist//text`},
		{StrategyNaive, `//item/name`},
		{StrategyTwigStack, `//open_auction[bidder]/current`},
		{StrategyPathStack, `//bidder/increase`},
	} {
		st := xmark.StoreAuction(2)
		st.URI = "auction.xml"
		plain := New(st, Options{Strategy: tc.strategy})
		want := run(t, plain, tc.query)
		e := New(st, Options{Strategy: tc.strategy, Batched: true, Trace: true})
		got := run(t, e, tc.query)
		if len(got) != len(want) {
			t.Fatalf("%s %s: batched %d items, interpreted %d", tc.strategy, tc.query, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s %s: item %d differs", tc.strategy, tc.query, i)
			}
		}
		if e.Metrics.BatchedTau == 0 {
			t.Fatalf("%s: BatchedTau = 0 (fallbacks = %d)", tc.strategy, e.Metrics.BatchedFallbacks)
		}
		if e.Metrics.BatchedFallbacks != 0 {
			t.Fatalf("%s: BatchedFallbacks = %d", tc.strategy, e.Metrics.BatchedFallbacks)
		}
		rec := findRecord(t, e)
		if !rec.Batched || rec.BatchedReason != "" {
			t.Fatalf("%s: record batched=%v reason=%q", tc.strategy, rec.Batched, rec.BatchedReason)
		}
		if rec.Actual.NodesVisited == 0 && rec.Actual.StreamElems == 0 {
			t.Fatalf("%s: batched record tallied no work", tc.strategy)
		}
	}
}

// TestBatchedParallelDispatch: batched NoK under a worker budget fans
// out over range partitions and counts both ParallelTau and BatchedTau.
func TestBatchedParallelDispatch(t *testing.T) {
	e := auctionEngine(t, Options{Strategy: StrategyNoK, Batched: true, Parallelism: 4, Trace: true})
	got := run(t, e, `/site/regions//item/name`)
	if len(got) == 0 {
		t.Fatal("no results")
	}
	if e.Metrics.BatchedTau == 0 {
		t.Fatalf("BatchedTau = 0 (fallbacks = %d)", e.Metrics.BatchedFallbacks)
	}
	if e.Metrics.ParallelTau == 0 {
		t.Fatalf("ParallelTau = 0 (fallbacks = %d)", e.Metrics.ParallelFallbacks)
	}
	rec := findRecord(t, e)
	if !rec.Batched || !rec.Parallel {
		t.Fatalf("record batched=%v parallel=%v, want both", rec.Batched, rec.Parallel)
	}
	if len(rec.Partitions) < 2 {
		t.Fatalf("partitions = %d, want >= 2", len(rec.Partitions))
	}
	for _, p := range rec.Partitions {
		if p.Kind != "range" && p.Kind != "contexts" {
			t.Fatalf("partition kind = %q, want range or contexts", p.Kind)
		}
	}
}

// TestBatchedFallbacks: strategies without a batched mode fall back to
// the interpreter with a recorded reason, never silently.
func TestBatchedFallbacks(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   Options
		query  string
		reason string
	}{
		{"hybrid", Options{Strategy: StrategyHybrid, Batched: true, Trace: true},
			`//item/name`, "hybrid matcher has no batched mode"},
		{"parallel-naive", Options{Strategy: StrategyNaive, Batched: true, Parallelism: 4, Trace: true},
			`//item/name`, "parallel naive has no batched mode"},
		{"parallel-twig", Options{Strategy: StrategyTwigStack, Batched: true, Parallelism: 4, Trace: true},
			`//open_auction[bidder]/current`, "parallel stream scan replaces batched streams"},
	} {
		e := auctionEngine(t, tc.opts)
		if got := run(t, e, tc.query); len(got) == 0 {
			t.Fatalf("%s: no results", tc.name)
		}
		if e.Metrics.BatchedFallbacks == 0 {
			t.Fatalf("%s: BatchedFallbacks = 0 (tau = %d)", tc.name, e.Metrics.BatchedTau)
		}
		rec := findRecord(t, e)
		if rec.Batched {
			t.Fatalf("%s: record claims batched execution", tc.name)
		}
		if rec.BatchedReason != tc.reason {
			t.Fatalf("%s: reason = %q, want %q", tc.name, rec.BatchedReason, tc.reason)
		}
	}
}

// TestBatchedTooLarge: a pattern over batch.MaxVertices vertices cannot
// compile; the dispatch records the fallback and the interpreter serves
// the query.
func TestBatchedTooLarge(t *testing.T) {
	// StrategyNaive: the interpreted NoK matcher has the same 64-vertex
	// bitmask bound, so only naive can actually serve this pattern.
	st := storage.MustLoad("<a>" + strings.Repeat("<b>", 70) + strings.Repeat("</b>", 70) + "</a>")
	e := New(st, Options{Strategy: StrategyNaive, Batched: true, Trace: true})
	q := "/a/" + strings.TrimSuffix(strings.Repeat("b/", 66), "/")
	got := run(t, e, q)
	if len(got) != 1 {
		t.Fatalf("got %d items, want 1", len(got))
	}
	if e.Metrics.BatchedTau != 0 || e.Metrics.BatchedFallbacks == 0 {
		t.Fatalf("tau = %d, fallbacks = %d; want 0, > 0", e.Metrics.BatchedTau, e.Metrics.BatchedFallbacks)
	}
	rec := findRecord(t, e)
	if rec.Batched || rec.BatchedReason != "pattern too large for batch kernels" {
		t.Fatalf("record batched=%v reason=%q", rec.Batched, rec.BatchedReason)
	}
}

// TestBatchedChooserDecides: a Choice with Batched set runs the kernels
// even when Options.Batched is off (results are identical either way).
func TestBatchedChooserDecides(t *testing.T) {
	e := auctionEngine(t, Options{
		Strategy: StrategyAuto,
		Trace:    true,
		Chooser: func(st *storage.Store, g *pattern.Graph, rootAnchored bool) Choice {
			return Choice{Strategy: StrategyNoK, Batched: true}
		},
	})
	if got := run(t, e, `//item/name`); len(got) == 0 {
		t.Fatal("no results")
	}
	if e.Metrics.BatchedTau == 0 {
		t.Fatalf("BatchedTau = 0 (fallbacks = %d)", e.Metrics.BatchedFallbacks)
	}
	if rec := findRecord(t, e); !rec.Batched {
		t.Fatal("record not batched")
	}
}

// TestAutoJoinsRunPlainStreams: under auto a join pick runs the plain
// streams even with Options.Batched (and a batched verdict) set, and
// says so in the record; a pinned join strategy still runs batched.
func TestAutoJoinsRunPlainStreams(t *testing.T) {
	for _, s := range []Strategy{StrategyTwigStack, StrategyPathStack} {
		e := auctionEngine(t, Options{
			Batched: true,
			Trace:   true,
			Chooser: func(*storage.Store, *pattern.Graph, bool) Choice {
				return Choice{Strategy: s, Batched: true}
			},
		})
		if got := run(t, e, `//bidder/increase`); len(got) == 0 {
			t.Fatal("no results")
		}
		rec := findRecord(t, e)
		if rec.Executed != s || rec.Batched || rec.BatchedReason != "joins run plain streams under auto" {
			t.Fatalf("%v under auto: executed %v batched=%v reason=%q", s, rec.Executed, rec.Batched, rec.BatchedReason)
		}
		if e.Metrics.BatchedTau != 0 || e.Metrics.BatchedFallbacks != 1 {
			t.Fatalf("%v under auto: BatchedTau=%d BatchedFallbacks=%d", s, e.Metrics.BatchedTau, e.Metrics.BatchedFallbacks)
		}
		pinned := auctionEngine(t, Options{Strategy: s, Batched: true, Trace: true})
		run(t, pinned, `//bidder/increase`)
		if rec := findRecord(t, pinned); !rec.Batched {
			t.Fatalf("pinned %v: record not batched (%q)", s, rec.BatchedReason)
		}
	}
}
