package main

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.51, 60}, {0.99, 100}, {0.1, 10}, {0.0001, 10}, {1, 100},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty sample must be NaN, not a number that looks measured")
	}
	// 1000 samples 1..1000: nearest-rank p99 is the 990th, leaving ten beyond.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestMedianP99(t *testing.T) {
	// Five segments of 1000 samples, latencies 1..1000 µs; segment 2
	// additionally suffers a stall that lifts its tail.
	var segs [][]float64
	for s := 0; s < 5; s++ {
		seg := make([]float64, 1000)
		for i := range seg {
			seg[i] = float64(i + 1)
			if s == 2 && i >= 900 {
				seg[i] += 50000
			}
		}
		segs = append(segs, seg)
	}
	us, resolved := medianP99(segs)
	if !resolved {
		t.Error("1000 samples per segment leave ten beyond each p99: resolved")
	}
	if us != 990 {
		t.Errorf("median of segment p99s = %v µs, want 990 (the stalled segment must not move it)", us)
	}
	// Drop one sample from one segment: nine beyond its p99, unresolved.
	segs[4] = segs[4][1:]
	if _, resolved := medianP99(segs); resolved {
		t.Error("a segment with 999 samples keeps only nine beyond its p99: unresolved")
	}
	if _, resolved := medianP99([][]float64{{1}, nil}); resolved {
		t.Error("an empty segment cannot resolve a p99")
	}
}

func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const rate = 100.0 // one request per 10 ms
	stall := 80 * time.Millisecond
	res := openLoop(context.Background(), 1, rate, 200*time.Millisecond, func(_ context.Context, _, seq int) error {
		if seq == 0 {
			time.Sleep(stall) // holds the only slot for eight intervals
		}
		return nil
	})
	if res.attempted != 20 || res.failed != 0 {
		t.Fatalf("attempted %d failed %d, want 20/0", res.attempted, res.failed)
	}
	// Requests 1..7 were due while request 0 held the slot: each is sent
	// late and its latency includes the wait, although its own service
	// time is nothing.
	if res.late < 6 {
		t.Errorf("late = %d, want the requests queued behind the stall counted", res.late)
	}
	over := 0
	for _, lat := range res.samples {
		if lat >= 10*time.Millisecond {
			over++
		}
	}
	if over < 7 {
		t.Errorf("%d samples carry the stall; latency must run from the due time, not the send time", over)
	}
	if d := dueTime(time.Unix(0, 0), 250, 500); d != time.Unix(0, 0).Add(500*time.Millisecond) {
		t.Errorf("dueTime: %v", d)
	}
}

func TestClosedLoopCountsFailures(t *testing.T) {
	boom := errors.New("boom")
	res := closedLoop(context.Background(), 2, 0, 10, func(_ context.Context, _, seq int) error {
		if seq%5 == 0 {
			return boom
		}
		return nil
	})
	if res.attempted != 10 || res.failed != 2 || len(res.samples) != 8 || !errors.Is(res.firstErr, boom) {
		t.Errorf("attempted %d failed %d samples %d err %v", res.attempted, res.failed, len(res.samples), res.firstErr)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []spanRecord{
		{ID: 0, Parent: noParent, Name: "request", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "decode", Start: 5, End: 15},
		{ID: 2, Parent: 0, Name: "query", Start: 20, End: 80},
		{ID: 3, Parent: 2, Name: "queue", Start: 20, End: 25},
		{ID: 4, Parent: 2, Name: "exec", Start: 40, End: 80},
		// Overlaps span 2 and sticks out of the parent: counted once, clipped.
		{ID: 5, Parent: 0, Name: "encode", Start: 70, End: 120},
	}
	want := []int64{
		100 - (10 + 60 + 20), // request: children cover [5,15] ∪ [20,100]
		10,
		60 - (5 + 40),
		5,
		40,
		50,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	med := layerMedians(spans)
	if med["request"].SelfUS != 0.01 || med["request"].DurUS != 0.1 || med["exec"].Count != 1 {
		t.Errorf("layerMedians: %+v", med["request"])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "throughput_qps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		ms      metricSpec
		a, b    []float64
		flagged bool
		want    string
	}{
		{lower, steady, []float64{105, 104, 106, 105, 105}, false, "same"},
		{lower, steady, []float64{115, 114, 116, 115, 115}, false, "worse"},
		{lower, steady, []float64{80, 81, 79, 80, 80}, false, "same"}, // better is not worse
		{higher, steady, []float64{85, 84, 86, 85, 85}, false, "worse"},
		{higher, steady, []float64{120, 119, 121, 120, 120}, false, "same"},
		{lower, []float64{80, 100, 120, 90, 110}, steady, false, "unresolved"},
		{lower, steady, steady, true, "unresolved"},
		// Worse beyond the bound is reported even when the spread is wide.
		{lower, []float64{80, 100, 120, 90, 110}, []float64{180, 200, 220, 190, 210}, false, "worse"},
	} {
		if got, _ := verdict(c.ms, c.a, c.b, c.flagged); got != c.want {
			t.Errorf("verdict(%s, %v → %v) = %s, want %s", c.ms.Name, c.a, c.b, got, c.want)
		}
	}
}

func TestInstanceIsDeterministic(t *testing.T) {
	w, err := findWorkload("plan_churn")
	if err != nil {
		t.Fatal(err)
	}
	a, err := newInstance(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newInstance(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newInstance(w, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := func(x, y *instance) bool {
		for i := range x.docs {
			if x.docs[i].scale != y.docs[i].scale {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("the same seed must give the same documents")
	}
	if same(a, c) {
		t.Error("another seed should choose other large documents")
	}
	if a.xmlBytes() != c.xmlBytes() {
		t.Error("every seed must generate the same amount of work")
	}
	sa, sb := newBidStream(a), newBidStream(b)
	if string(sa.nextBatch()) != string(sb.nextBatch()) {
		t.Error("the same seed must give the same mutations")
	}
}

// TestEveryDeclaredMetricIsEmitted runs each workload end to end for one
// second on scale-1 documents, timed and traced: runOne fails unless
// every metric BENCHMARK.json declares for that kind of run comes out
// exactly once, with its unit and a finite value.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns xqd processes")
	}
	e, err := newEnv("")
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(e.root)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.buildXqd(); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		small := w
		small.scales = sameScale(len(w.scales), 1)
		for _, trace := range []bool{false, true} {
			o, err := runOne(context.Background(), e, sp, &small, 1, 1, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !o.Correct || o.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %s", w.name, trace, o.Failed, o.Attempted, o.FirstError)
			}
		}
	}
}
