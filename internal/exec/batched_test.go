package exec

import (
	"strings"
	"testing"

	"xqp/internal/core"
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
		if e.Metrics.BatchedTau == 0 {
			t.Fatalf("%s: BatchedTau = 0", q)
		}
		rec := findRecord(t, e)
		if !rec.Batched {
			t.Fatalf("%s: record not batched", q)
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
		t.Fatal("BatchedTau = 0")
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
			if e.Metrics.BatchedTau != 0 {
				t.Fatalf("%v j%d: BatchedTau = %d", s, workers, e.Metrics.BatchedTau)
			}
			rec := findRecord(t, e)
			if rec.Executed != s || rec.Batched {
				t.Fatalf("%v j%d: executed %v batched=%v", s, workers, rec.Executed, rec.Batched)
			}
		}
	}
}

// TestBatchedTooLarge: a pattern over batch.MaxVertices vertices fits
// none of NoK's matchers, so a NoK or hybrid pick — by the chooser or
// pinned, serial or parallel — runs naive, counts a strategy fallback
// and agrees with a pinned naive run.
func TestBatchedTooLarge(t *testing.T) {
	st := storage.MustLoad("<a>" + strings.Repeat("<b>", 70) + strings.Repeat("</b>", 70) + "</a>")
	steps := strings.TrimSuffix(strings.Repeat("b/", 66), "/")
	for _, q := range []string{"/a/" + steps, "//" + steps} {
		ex, err := parser.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := core.Translate(ex)
		if err != nil {
			t.Fatal(err)
		}
		plan, _ = rewrite.Rewrite(plan, rewrite.All())
		want, err := New(st, Options{Strategy: StrategyNaive}).Eval(plan, Root())
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: naive found no matches", q)
		}
		for _, opts := range []Options{
			{Chooser: choose(Choice{Strategy: StrategyNoK, Batched: true})},
			{Chooser: choose(Choice{Strategy: StrategyNoK, Batched: true, Parallel: true}), Parallelism: 4},
			{Strategy: StrategyNoK},
			{Strategy: StrategyNoK, Parallelism: 4},
			{Strategy: StrategyHybrid},
		} {
			opts.Trace = true
			e := New(st, opts)
			got, err := e.Eval(plan, Root())
			if err != nil {
				t.Fatalf("%s %+v: %v", q, opts, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s %+v: %d items, naive %d", q, opts, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s %+v: item %d differs", q, opts, i)
				}
			}
			m := e.Metrics
			if m.TauByStrategy[StrategyNaive] != 1 || m.StrategyFallbacks != 1 || m.BatchedTau != 0 {
				t.Fatalf("%s %+v: naive=%d fallbacks=%d batched=%d; want 1, 1, 0",
					q, opts, m.TauByStrategy[StrategyNaive], m.StrategyFallbacks, m.BatchedTau)
			}
			if rec := findRecord(t, e); rec.Reason != "pattern too large for nok" {
				t.Fatalf("%s %+v: fallback reason %q", q, opts, rec.Reason)
			}
		}
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
		t.Fatal("BatchedTau = 0")
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
			if rec.Executed != s || rec.Batched {
				t.Fatalf("%v j%d: executed %v batched=%v", s, workers, rec.Executed, rec.Batched)
			}
			if e.Metrics.BatchedTau != 0 {
				t.Fatalf("%v j%d: BatchedTau=%d", s, workers, e.Metrics.BatchedTau)
			}
		}
	}
}
