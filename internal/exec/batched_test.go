package exec

import (
	"errors"
	"strings"
	"testing"

	"xqp/internal/core"
	"xqp/internal/nok"
	"xqp/internal/parser"
	"xqp/internal/pattern"
	"xqp/internal/rewrite"
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

// choose returns a chooser hook that always answers c.
func choose(c Choice) func(*storage.Store, *pattern.Graph, bool) Choice {
	return func(*storage.Store, *pattern.Graph, bool) Choice { return c }
}

// TestBatchedDispatch: a Choice asking for batched NoK runs the
// kernels (BatchedTau, record.Batched), agrees with interpreted NoK,
// and still tallies actual work.
func TestBatchedDispatch(t *testing.T) {
	for _, q := range []string{
		`//parlist//text`,
		`//item/name`,
		`//open_auction[bidder]/current`,
		`/site/regions/*/item`,
	} {
		st := xmark.StoreAuction(2)
		st.URI = "auction.xml"
		want := run(t, New(st, Options{Strategy: StrategyNoK}), q)
		e := New(st, Options{Trace: true, Chooser: choose(Choice{Strategy: StrategyNoK, Batched: true})})
		got := run(t, e, q)
		if len(got) != len(want) {
			t.Fatalf("%s: batched %d items, interpreted %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: item %d differs", q, i)
			}
		}
		if e.Metrics.BatchedTau == 0 || e.Metrics.BatchedFallbacks != 0 {
			t.Fatalf("%s: BatchedTau = %d, BatchedFallbacks = %d", q, e.Metrics.BatchedTau, e.Metrics.BatchedFallbacks)
		}
		rec := findRecord(t, e)
		if !rec.Batched || rec.BatchedReason != "" {
			t.Fatalf("%s: record batched=%v reason=%q", q, rec.Batched, rec.BatchedReason)
		}
		if rec.Actual.NodesVisited == 0 {
			t.Fatalf("%s: batched record tallied no work", q)
		}
	}
}

// TestBatchedParallelDispatch: batched NoK under a worker budget fans
// out over partitions and counts both ParallelTau and BatchedTau.
func TestBatchedParallelDispatch(t *testing.T) {
	e := auctionEngine(t, Options{
		Parallelism: 4,
		Trace:       true,
		Chooser:     choose(Choice{Strategy: StrategyNoK, Batched: true, Parallel: true}),
	})
	got := run(t, e, `/site/regions//item/name`)
	want := run(t, auctionEngine(t, Options{Strategy: StrategyNoK}), `/site/regions//item/name`)
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("parallel batched %d items, interpreted %d", len(got), len(want))
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

// TestBatchedFallbacks: batched is a mode of NoK alone, so a Choice
// asking for it on naive or hybrid runs the interpreted matcher. That
// is not a fallback: nothing is counted and the record carries no
// reason.
func TestBatchedFallbacks(t *testing.T) {
	for _, s := range []Strategy{StrategyNaive, StrategyHybrid} {
		for _, workers := range []int{0, 4} {
			e := auctionEngine(t, Options{
				Parallelism: workers,
				Trace:       true,
				Chooser:     choose(Choice{Strategy: s, Batched: true, Parallel: true}),
			})
			if got := run(t, e, `//item/name`); len(got) == 0 {
				t.Fatalf("%v j%d: no results", s, workers)
			}
			if e.Metrics.BatchedTau != 0 || e.Metrics.BatchedFallbacks != 0 {
				t.Fatalf("%v j%d: BatchedTau = %d, BatchedFallbacks = %d", s, workers, e.Metrics.BatchedTau, e.Metrics.BatchedFallbacks)
			}
			rec := findRecord(t, e)
			if rec.Executed != s || rec.Batched || rec.BatchedReason != "" {
				t.Fatalf("%v j%d: executed %v batched=%v reason=%q", s, workers, rec.Executed, rec.Batched, rec.BatchedReason)
			}
		}
	}
}

// TestBatchedTooLarge: a Choice asking for batched NoK on a pattern over
// batch.MaxVertices vertices counts a fallback and dispatches to the
// interpreter — whose own 64-vertex bound then rejects the pattern with
// nok.ErrTooLarge, not the kernel's batch.ErrTooLarge.
func TestBatchedTooLarge(t *testing.T) {
	st := storage.MustLoad("<a>" + strings.Repeat("<b>", 70) + strings.Repeat("</b>", 70) + "</a>")
	e := New(st, Options{Chooser: choose(Choice{Strategy: StrategyNoK, Batched: true})})
	ex, err := parser.Parse("/a/" + strings.TrimSuffix(strings.Repeat("b/", 66), "/"))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Translate(ex)
	if err != nil {
		t.Fatal(err)
	}
	plan, _ = rewrite.Rewrite(plan, rewrite.All())
	if _, err := e.Eval(plan, Root()); !errors.Is(err, nok.ErrTooLarge) {
		t.Fatalf("err = %v, want the interpreter's %v", err, nok.ErrTooLarge)
	}
	if e.Metrics.BatchedTau != 0 || e.Metrics.BatchedFallbacks != 1 {
		t.Fatalf("BatchedTau = %d, BatchedFallbacks = %d; want 0, 1", e.Metrics.BatchedTau, e.Metrics.BatchedFallbacks)
	}
}

// TestBatchedChooserDecides: without a chooser nothing runs batched;
// the verdict is the chooser's alone.
func TestBatchedChooserDecides(t *testing.T) {
	plain := auctionEngine(t, Options{Trace: true})
	run(t, plain, `//item/name`)
	if plain.Metrics.BatchedTau != 0 || findRecord(t, plain).Batched {
		t.Fatal("dispatch without a chooser ran batched")
	}
	e := auctionEngine(t, Options{Trace: true, Chooser: choose(Choice{Strategy: StrategyNoK, Batched: true})})
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

// TestAutoJoinsRunPlainStreams: a Choice asking for batched TwigStack
// or PathStack runs the join on the plain streams, serial or parallel,
// and the record says neither batched nor fallen back.
func TestAutoJoinsRunPlainStreams(t *testing.T) {
	for _, s := range []Strategy{StrategyTwigStack, StrategyPathStack} {
		for _, workers := range []int{0, 4} {
			e := auctionEngine(t, Options{
				Parallelism: workers,
				Trace:       true,
				Chooser:     choose(Choice{Strategy: s, Batched: true, Parallel: true}),
			})
			if got := run(t, e, `//bidder/increase`); len(got) == 0 {
				t.Fatal("no results")
			}
			rec := findRecord(t, e)
			if rec.Executed != s || rec.Batched || rec.BatchedReason != "" {
				t.Fatalf("%v j%d: executed %v batched=%v reason=%q", s, workers, rec.Executed, rec.Batched, rec.BatchedReason)
			}
			if e.Metrics.BatchedTau != 0 || e.Metrics.BatchedFallbacks != 0 {
				t.Fatalf("%v j%d: BatchedTau=%d BatchedFallbacks=%d", s, workers, e.Metrics.BatchedTau, e.Metrics.BatchedFallbacks)
			}
		}
	}
}
