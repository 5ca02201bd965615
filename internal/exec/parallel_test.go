package exec

import (
	"runtime"
	"strings"
	"testing"

	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/xmark"
)

func auctionEngine(t testing.TB, opts Options) *Engine {
	t.Helper()
	st := xmark.StoreAuction(2)
	st.URI = "auction.xml"
	return New(st, opts)
}

// TestParallelTraceShape checks the trace a partitioned τ leaves behind:
// the strategy record names the worker budget, carries at least two
// partition spans, and every partition's wall time fits inside its
// parent span's inclusive time (partitions run strictly within the
// operator's evaluation window).
func TestParallelTraceShape(t *testing.T) {
	e := auctionEngine(t, Options{Strategy: StrategyNoK, Trace: true, Parallelism: 4})
	got := run(t, e, `//parlist//text`)
	if len(got) == 0 {
		t.Fatal("no results")
	}
	if e.Metrics.ParallelTau == 0 {
		t.Fatalf("ParallelTau = 0 (fallbacks = %d)", e.Metrics.ParallelFallbacks)
	}
	var par *StrategyRecord
	e.Trace().Visit(func(s *Span) {
		for _, r := range s.Strategies {
			if r.Parallel {
				par = r
				if r.Workers != 4 {
					t.Errorf("Workers = %d, want 4", r.Workers)
				}
				if r.ParallelReason != "" {
					t.Errorf("parallel record has fallback reason %q", r.ParallelReason)
				}
				if len(r.Partitions) < 2 {
					t.Errorf("partitions = %d, want >= 2", len(r.Partitions))
				}
				var pm, pn int64
				for _, p := range r.Partitions {
					pm += p.Matches
					pn += p.Nodes
					if p.Dur > s.Dur {
						t.Errorf("partition wall %v exceeds parent span wall %v", p.Dur, s.Dur)
					}
					if p.Kind != "range" {
						t.Errorf("partition kind = %q, want range", p.Kind)
					}
				}
				if pm > int64(r.Matches) {
					t.Errorf("partition matches sum %d > record matches %d", pm, r.Matches)
				}
				if pn == 0 {
					t.Error("partition nodes sum to zero")
				}
			}
		}
	})
	if par == nil {
		t.Fatal("no parallel strategy record in trace")
	}
	f := e.Trace().Format()
	if !strings.Contains(f, "parallel{workers=4 partitions=") {
		t.Errorf("Format lacks parallel annotation:\n%s", f)
	}
	if !strings.Contains(f, "· partition range@") {
		t.Errorf("Format lacks partition lines:\n%s", f)
	}
}

// TestParallelSpanAggregation: a τ re-evaluated once per FLWOR binding
// aggregates into one span by operator identity, accumulating one
// strategy record per dispatch — each carrying its own parallel verdict.
func TestParallelSpanAggregation(t *testing.T) {
	e := auctionEngine(t, Options{Strategy: StrategyNoK, Trace: true, Parallelism: 4})
	run(t, e, `for $r in /site/regions/* return $r//listitem/text`)
	var agg *Span
	e.Trace().Visit(func(s *Span) {
		if len(s.Strategies) > 1 {
			if agg != nil && agg != s {
				t.Errorf("multiple multi-record spans: %q and %q", agg.Label, s.Label)
			}
			agg = s
		}
	})
	if agg == nil {
		t.Fatal("per-binding τ did not aggregate records on one span")
	}
	if agg.Calls != int64(len(agg.Strategies)) {
		t.Errorf("span calls = %d, records = %d; want one record per dispatch", agg.Calls, len(agg.Strategies))
	}
	if agg.Calls != 6 {
		t.Errorf("span calls = %d, want 6 (one per region)", agg.Calls)
	}
	for _, r := range agg.Strategies {
		if r.Workers != 4 {
			t.Errorf("record workers = %d, want 4", r.Workers)
		}
		if !r.Parallel && r.ParallelReason == "" {
			t.Error("serial record under a parallel budget lacks a reason")
		}
	}
}

// TestParallelFallbackReasons pins the fallback-to-serial vocabulary
// and counters for each strategy family.
func TestParallelFallbackReasons(t *testing.T) {
	// A chain document: every node below the root has at most one
	// child, so there are no sibling ranges to split.
	st := storage.MustLoad("<a><b><c><d/></c></b></a>")
	e := New(st, Options{Strategy: StrategyNoK, Trace: true, Parallelism: 4})
	run(t, e, `//c/d`)
	assertReason(t, e, "single partition")

	// The naive and hybrid matchers have no parallel mode at all.
	e = engine(t, Options{Strategy: StrategyNaive, Trace: true, Parallelism: 4})
	run(t, e, `//book//last`)
	assertReason(t, e, "naive matcher has no parallel mode")
	e = engine(t, Options{Strategy: StrategyHybrid, Trace: true, Parallelism: 4})
	run(t, e, `//book//last`)
	assertReason(t, e, "hybrid matcher has no parallel mode")

	// A two-vertex join has a single non-anchor stream: nothing to scan
	// in parallel.
	e = engine(t, Options{Strategy: StrategyTwigStack, Trace: true, Parallelism: 4})
	run(t, e, `/bib`)
	assertReason(t, e, "single vertex stream")
}

func assertReason(t *testing.T, e *Engine, want string) {
	t.Helper()
	if e.Metrics.ParallelFallbacks == 0 {
		t.Errorf("%s: ParallelFallbacks = 0", want)
	}
	if e.Metrics.ParallelTau != 0 {
		t.Errorf("%s: ParallelTau = %d, want 0", want, e.Metrics.ParallelTau)
	}
	found := false
	e.Trace().Visit(func(s *Span) {
		for _, r := range s.Strategies {
			if r.Parallel {
				t.Errorf("record unexpectedly parallel: %+v", r)
			}
			if r.ParallelReason == want {
				found = true
			}
		}
	})
	if !found {
		t.Errorf("no strategy record with reason %q in trace:\n%s", want, e.Trace().Format())
	}
	if !strings.Contains(e.Trace().Format(), "parallel=off ("+want+")") {
		t.Errorf("Format lacks parallel=off (%s):\n%s", want, e.Trace().Format())
	}
}

// TestParallelNoKRunsKernels: a parallel NoK dispatch runs on the batch
// kernels whatever the pattern's shape, pinned or chosen, and also when
// it finds nothing to partition and runs serially: the interpreter is
// reached only by a serial dispatch.
func TestParallelNoKRunsKernels(t *testing.T) {
	chain := storage.MustLoad("<a><b><c><d/></c></b></a>")
	for _, c := range []struct {
		e *Engine
		q string
	}{
		{auctionEngine(t, Options{Strategy: StrategyNoK, Parallelism: 4, Trace: true}), `//parlist//text`},
		{auctionEngine(t, Options{Strategy: StrategyNoK, Parallelism: 2, Trace: true}), `/site/regions/*/item`},
		{auctionEngine(t, Options{Strategy: StrategyNoK, Parallelism: 4, Trace: true}), `for $r in /site/regions/* return $r//listitem/text`},
		{auctionEngine(t, Options{
			Parallelism: 4,
			Trace:       true,
			Chooser:     choose(Choice{Strategy: StrategyNoK, Parallel: true}),
		}), `//open_auction[bidder]/current`},
		{auctionEngine(t, Options{Strategy: StrategyTwigStack, Parallelism: 4, Trace: true}), `for $r in /site/regions/* return $r//item/name`},
		{New(chain, Options{Strategy: StrategyNoK, Parallelism: 4, Trace: true}), `//c/d`},
	} {
		if got := run(t, c.e, c.q); len(got) == 0 {
			t.Fatalf("%s: no results", c.q)
		}
		m := c.e.Metrics
		if n := m.TauByStrategy[StrategyNoK]; n == 0 || m.BatchedTau != n {
			t.Fatalf("%s: %d of %d nok dispatches ran on the kernels", c.q, m.BatchedTau, n)
		}
		c.e.Trace().Visit(func(s *Span) {
			for _, r := range s.Strategies {
				if r.Executed == StrategyNoK && (!r.Batched || r.Workers == 0) {
					t.Errorf("%s: nok record batched=%v workers=%d", c.q, r.Batched, r.Workers)
				}
			}
		})
	}
}

// TestParallelJoinStreams: the holistic joins parallelize their
// per-vertex stream scans; the record carries one stream partition per
// non-anchor vertex and the merge output is unchanged.
func TestParallelJoinStreams(t *testing.T) {
	for _, strat := range []Strategy{StrategyTwigStack, StrategyPathStack} {
		serial := auctionEngine(t, Options{Strategy: strat})
		want := run(t, serial, `/site/regions//item/name`)
		e := auctionEngine(t, Options{Strategy: strat, Trace: true, Parallelism: 4})
		got := run(t, e, `/site/regions//item/name`)
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("%v: %d results, serial %d", strat, len(got), len(want))
		}
		if e.Metrics.ParallelTau == 0 {
			t.Fatalf("%v: ParallelTau = 0", strat)
		}
		e.Trace().Visit(func(s *Span) {
			for _, r := range s.Strategies {
				if !r.Parallel {
					continue
				}
				for _, p := range r.Partitions {
					if p.Kind != "stream" {
						t.Errorf("%v: partition kind = %q, want stream", strat, p.Kind)
					}
				}
				if len(r.Partitions) == 0 {
					t.Errorf("%v: no stream partitions", strat)
				}
			}
		})
	}
}

// TestParallelChooserDecides: under Auto with a cost chooser, the
// worker budget only bounds the pool — the chooser's Parallel verdict
// decides whether the τ fans out.
func TestParallelChooserDecides(t *testing.T) {
	serialChoice := func(cs *storage.Store, g *pattern.Graph, rootAnchored bool) Choice {
		return Choice{Strategy: StrategyNoK, Parallel: false}
	}
	e := auctionEngine(t, Options{Strategy: StrategyAuto, Chooser: serialChoice, Parallelism: 4, Trace: true})
	run(t, e, `//parlist//text`)
	if e.Metrics.ParallelTau != 0 || e.Metrics.ParallelFallbacks != 0 {
		t.Fatalf("chooser veto ignored: tau=%d fallbacks=%d", e.Metrics.ParallelTau, e.Metrics.ParallelFallbacks)
	}
	e.Trace().Visit(func(s *Span) {
		for _, r := range s.Strategies {
			if r.Workers != 0 || r.Parallel {
				t.Errorf("vetoed dispatch recorded a worker budget: %+v", r)
			}
		}
	})

	parallelChoice := func(cs *storage.Store, g *pattern.Graph, rootAnchored bool) Choice {
		return Choice{Strategy: StrategyNoK, Parallel: true}
	}
	e = auctionEngine(t, Options{Strategy: StrategyAuto, Chooser: parallelChoice, Parallelism: 4})
	run(t, e, `//parlist//text`)
	if e.Metrics.ParallelTau == 0 {
		t.Fatal("chooser-approved parallel dispatch did not fan out")
	}
}

// TestParallelismResolution: negative asks for one worker per CPU;
// explicit budgets are honored beyond the core count (capped only by
// MaxParallelism) so partitioned paths stay testable on small hosts.
func TestParallelismResolution(t *testing.T) {
	for _, tc := range []struct {
		parallelism int
		want        int
	}{
		{0, 1},
		{1, 1},
		{4, 4},
		{-1, runtime.NumCPU()},
		{MaxParallelism + 100, MaxParallelism},
	} {
		if got := Workers(tc.parallelism); got != tc.want {
			t.Errorf("workers(Parallelism=%d) = %d, want %d", tc.parallelism, got, tc.want)
		}
	}
}

// TestParallelResultsMatchSerial is the end-to-end sanity pass inside
// exec: every forced strategy agrees with its own serial run under a
// worker budget.
func TestParallelResultsMatchSerial(t *testing.T) {
	queries := []string{
		`//item/name`,
		`//parlist//text`,
		`/site/regions//item/name`,
		`//open_auction[bidder]/current`,
		`for $r in /site/regions/* return $r//listitem/text`,
	}
	st := xmark.StoreAuction(2)
	st.URI = "auction.xml"
	for _, strat := range []Strategy{StrategyNoK, StrategyNaive, StrategyTwigStack, StrategyPathStack, StrategyHybrid} {
		for _, q := range queries {
			want := run(t, New(st, Options{Strategy: strat}), q)
			got := run(t, New(st, Options{Strategy: strat, Parallelism: 4}), q)
			if len(got) != len(want) {
				t.Fatalf("%v %s: parallel %d results, serial %d", strat, q, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v %s: result %d differs", strat, q, i)
				}
			}
		}
	}
}
