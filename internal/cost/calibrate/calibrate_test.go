package calibrate

import (
	"testing"
	"time"

	"xqp/internal/core"
	"xqp/internal/cost"
	"xqp/internal/exec"
	"xqp/internal/pattern"
	"xqp/internal/tally"
)

func graphOf(t testing.TB, src string) *pattern.Graph {
	t.Helper()
	g, err := core.PatternOf(src)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// rec builds a minimal serial dispatch record: executed strategy, raw
// model estimate, and an actual cost expressed in visited nodes
// (cost.ActualCost weighs NodesVisited at 1.0).
func rec(executed exec.Strategy, est *exec.CostEstimate, nodes int64) *exec.StrategyRecord {
	return &exec.StrategyRecord{
		Chosen:   executed,
		Executed: executed,
		Estimate: est,
		Actual:   tally.Counters{NodesVisited: nodes},
	}
}

func TestScaleFitsObservedRatio(t *testing.T) {
	c := New()
	g := graphOf(t, "/a/b")
	est := &exec.CostEstimate{NoK: 100, Join: 300, Hybrid: 300}
	// Below minObservations the fit must stay at the static model.
	for i := 0; i < minObservations-1; i++ {
		c.Observe(g, rec(exec.StrategyNoK, est, 500))
	}
	if nok, join, hyb := c.Scale(g); nok != 1 || join != 1 || hyb != 1 {
		t.Fatalf("underobserved arm already tuned: %v %v %v", nok, join, hyb)
	}
	c.Observe(g, rec(exec.StrategyNoK, est, 500))
	nok, join, hyb := c.Scale(g)
	if nok != 5 {
		t.Fatalf("NoK scale = %v, want 5 (actual 500 over estimate 100)", nok)
	}
	if join != 1 || hyb != 1 {
		t.Fatalf("unobserved families drifted: join=%v hybrid=%v", join, hyb)
	}
	// Another shape shares nothing with this one.
	if nok, _, _ := c.Scale(graphOf(t, "//c")); nok != 1 {
		t.Fatalf("fit leaked across shapes: %v", nok)
	}
}

// TestFallbackKeepsChosenFitUntouched is the fallback-attribution
// regression: records where the executor demoted the chooser's pick
// must feed the *executed* strategy's arm only. A fallback-heavy run
// (TwigStack picked, NoK executed) must leave the join fit untouched.
func TestFallbackKeepsChosenFitUntouched(t *testing.T) {
	c := New()
	g := graphOf(t, "/a/b")
	est := &exec.CostEstimate{NoK: 100, Join: 10, Hybrid: 300}
	for i := 0; i < 5; i++ {
		r := rec(exec.StrategyNoK, est, 200)
		r.Chosen = exec.StrategyTwigStack
		r.Fallback = true
		r.Reason = "context not root-anchored"
		c.Observe(g, r)
	}
	nok, join, _ := c.Scale(g)
	if nok != 2 {
		t.Fatalf("executed NoK arm not fitted: %v, want 2", nok)
	}
	if join != 1 {
		t.Fatalf("fallback poisoned the chosen strategy's fit: join scale = %v", join)
	}
	ss := c.shapes[cost.ShapeKey(g)]
	if got := ss.arms[exec.StrategyTwigStack].count; got != 0 {
		t.Fatalf("join arm accumulated %d fallback records", got)
	}
	if _, regret := c.Stats(); regret != 0 {
		t.Fatalf("fallbacks charged %d regret", regret)
	}
}

func TestRegretCountsBeatenPicks(t *testing.T) {
	c := New()
	g := graphOf(t, "/a/b")
	est := &exec.CostEstimate{NoK: 100, Join: 100, Hybrid: 100}
	// Establish a cheap, well-observed TwigStack arm (mean actual 10).
	for i := 0; i < minObservations; i++ {
		r := rec(exec.StrategyTwigStack, est, 0)
		r.Actual = tally.Counters{StreamElems: 4} // 2.5 × 4 = 10
		c.Observe(g, r)
	}
	if _, regret := c.Stats(); regret != 0 {
		t.Fatalf("regret before any beaten pick: %d", regret)
	}
	// A NoK dispatch costing 100 is beaten by the 10-mean arm.
	c.Observe(g, rec(exec.StrategyNoK, est, 100))
	if _, regret := c.Stats(); regret != 1 {
		t.Fatalf("beaten pick not charged: regret = %d", regret)
	}
	// A near-tie inside the slack is not regret.
	c.Observe(g, rec(exec.StrategyNoK, est, 11))
	if _, regret := c.Stats(); regret != 1 {
		t.Fatalf("near-tie charged as regret: %d", regret)
	}
	// The same beaten dispatch as a fallback says nothing about the
	// chooser and must not be charged.
	r := rec(exec.StrategyNoK, est, 100)
	r.Chosen = exec.StrategyHybrid
	r.Fallback = true
	c.Observe(g, r)
	if _, regret := c.Stats(); regret != 1 {
		t.Fatalf("fallback charged as regret: %d", regret)
	}
}

func TestBatchFactorsFit(t *testing.T) {
	c := New()
	g := graphOf(t, "/a/b")
	sNoK := cost.StaticBatchFactor()
	// Interpreted serial NoK: 10 ns per work unit.
	for i := 0; i < minObservations; i++ {
		r := rec(exec.StrategyNoK, nil, 100)
		r.Dur = 1000 * time.Nanosecond
		c.Observe(g, r)
	}
	// One side alone keeps the static factor.
	if nok := c.BatchFactor(); nok != sNoK {
		t.Fatalf("one-sided fit replaced the static factor: %v", nok)
	}
	// Batched serial NoK: 2 ns per work unit → factor 0.2.
	for i := 0; i < minObservations; i++ {
		r := rec(exec.StrategyNoK, nil, 100)
		r.Dur = 200 * time.Nanosecond
		r.Batched = true
		c.Observe(g, r)
	}
	before := c.BatchFactor()
	if before < 0.199 || before > 0.201 {
		t.Fatalf("fitted NoK factor = %v, want 0.2", before)
	}
	// Parallel dispatches must not feed the serial speed fit, and the
	// joins, which always run interpreted, feed no batch fit at all.
	r := rec(exec.StrategyNoK, nil, 100)
	r.Dur = 5000 * time.Nanosecond
	r.Parallel = true
	c.Observe(g, r)
	for i := 0; i < minObservations; i++ {
		r := rec(exec.StrategyTwigStack, nil, 100)
		r.Dur = 5000 * time.Nanosecond
		c.Observe(g, r)
	}
	if after := c.BatchFactor(); after != before {
		t.Fatalf("parallel or join records moved the serial NoK fit: %v -> %v", before, after)
	}
}

func TestEffectiveWorkersLearnsDegree(t *testing.T) {
	c := New()
	g := graphOf(t, "/a/b")
	if n := c.EffectiveWorkers(8); n != 0 {
		t.Fatalf("unobserved budget reported %d", n)
	}
	// Four partitions overlapping at degree 4 (Σ 8000 / max 2000).
	for i := 0; i < minObservations; i++ {
		r := rec(exec.StrategyNoK, nil, 100)
		r.Parallel = true
		r.Workers = 8
		r.Partitions = []tally.Partition{
			{Dur: 2000}, {Dur: 2000}, {Dur: 2000}, {Dur: 2000},
		}
		c.Observe(g, r)
	}
	if n := c.EffectiveWorkers(8); n != 4 {
		t.Fatalf("learned degree = %d, want 4", n)
	}
	// Other budgets have their own accumulators.
	if n := c.EffectiveWorkers(16); n != 0 {
		t.Fatalf("degree leaked across budgets: %d", n)
	}
}

func TestObserveSkipsNilAndAuto(t *testing.T) {
	c := New()
	g := graphOf(t, "/a/b")
	c.Observe(g, nil)
	c.Observe(g, rec(exec.StrategyAuto, nil, 10))
	if observed, _ := c.Stats(); observed != 0 {
		t.Fatalf("degenerate records counted: %d", observed)
	}
}
