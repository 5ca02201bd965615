package engine

import (
	"context"
	"testing"

	"xqp/internal/exec"
	"xqp/internal/xmark"
)

// TestParallelQueryMetrics: a query with a worker budget surfaces the
// parallel outcome in the stats snapshot and the trace, and the budget
// does not fragment the plan cache (Parallelism shapes execution, not
// the plan). The strategy is pinned: under auto the cost model would
// keep this small document serial.
func TestParallelQueryMetrics(t *testing.T) {
	e := New(Config{})
	e.RegisterStore("auction.xml", xmark.StoreAuction(2))

	res, err := e.Query(context.Background(), "auction.xml", `//parlist//text`,
		QueryOptions{Strategy: exec.StrategyNoK, Parallelism: 4, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seq) == 0 {
		t.Fatal("no results")
	}
	if res.Metrics.ParallelTau == 0 {
		t.Fatalf("ParallelTau = 0 (fallbacks = %d)", res.Metrics.ParallelFallbacks)
	}
	found := false
	res.Trace.Visit(func(s *exec.Span) {
		for _, r := range s.Strategies {
			if r.Parallel && r.Workers == 4 && len(r.Partitions) >= 2 {
				found = true
			}
		}
	})
	if !found {
		t.Fatalf("no parallel strategy record in trace:\n%s", res.Trace.Format())
	}
	s := e.Stats()
	if s.ParallelTau == 0 {
		t.Errorf("snapshot ParallelTau = 0: %+v", s)
	}

	// Same query without a budget: plan-cache hit (Parallelism is not
	// part of the key) and a serial run that moves neither counter.
	res2, err := e.Query(context.Background(), "auction.xml", `//parlist//text`, QueryOptions{Strategy: exec.StrategyNoK})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Error("Parallelism fragmented the plan cache")
	}
	s2 := e.Stats()
	if s2.ParallelTau != s.ParallelTau || s2.ParallelFallbacks != s.ParallelFallbacks {
		t.Errorf("serial run moved parallel counters: %+v -> %+v", s, s2)
	}
}

// TestParallelFallbackMetrics: a budgeted query whose τ cannot fan out
// counts a fallback, not a parallel dispatch. The strategy is pinned to
// naive, which has no parallel mode, so the fan-out is requested rather
// than left to the model.
func TestParallelFallbackMetrics(t *testing.T) {
	e := newBibEngine(t, Config{})
	res, err := e.Query(context.Background(), "bib.xml", `/bib/book/title`,
		QueryOptions{Strategy: exec.StrategyNaive, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.ParallelFallbacks == 0 {
		t.Errorf("ParallelFallbacks = 0: %+v", res.Metrics)
	}
	if s := e.Stats(); s.ParallelFallbacks == 0 {
		t.Errorf("snapshot ParallelFallbacks = 0: %+v", s)
	}
}
