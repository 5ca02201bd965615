package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (q in (0,1]) of an
// ascending slice: the smallest value with at least q·n values at or
// below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median is the nearest-rank 0.5-quantile of an unsorted sample; the
// input is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// minBeyond is how many samples a segment must keep above its p99 for
// the tail metric to count as resolved.
const minBeyond = 10

// medianP99 takes the nearest-rank p99 of each segment's latencies and
// returns their median: a single stall lands in one segment and cannot
// move the median of five. resolved is false when some segment has
// fewer than minBeyond samples above its p99, which is when the number
// is not trustworthy.
func medianP99(segments [][]float64) (p99 float64, resolved bool) {
	resolved = true
	p99s := make([]float64, 0, len(segments))
	for _, seg := range segments {
		if len(seg) == 0 {
			resolved = false
			continue
		}
		s := append([]float64(nil), seg...)
		sort.Float64s(s)
		p99s = append(p99s, percentile(s, 0.99))
		if len(s)-int(math.Ceil(0.99*float64(len(s)))) < minBeyond {
			resolved = false
		}
	}
	if len(p99s) == 0 {
		return math.NaN(), false
	}
	return median(p99s), resolved
}

// microseconds converts latencies to µs, ascending.
func microseconds(lats []time.Duration) []float64 {
	out := make([]float64, len(lats))
	for i, d := range lats {
		out[i] = float64(d) / 1e3
	}
	sort.Float64s(out)
	return out
}

// maxReps caps every timed loop, however cheap its body.
const maxReps = 1000

// reps paces a timed loop: more reports true until at least min
// repetitions have run and the budget is spent (or maxReps is reached).
type reps struct {
	start  time.Time
	budget time.Duration
	min, n int
}

func newReps(budget time.Duration, min int) *reps {
	return &reps{start: time.Now(), budget: budget, min: min}
}

// more reports whether another repetition is due and counts it; pass is
// the zero-based number of the repetition it has just admitted.
func (r *reps) more() bool {
	if r.n >= maxReps || (r.n >= r.min && time.Since(r.start) >= r.budget) {
		return false
	}
	r.n++
	return true
}

func (r *reps) pass() int { return r.n - 1 }

// timeReps calls fn until budget is spent (at least minReps times) and
// returns the median duration of one call in nanoseconds with the
// repetition count.
func timeReps(budget time.Duration, minReps int, fn func()) (medianNS float64, n int) {
	durs := make([]float64, 0, minReps)
	for r := newReps(budget, minReps); r.more(); {
		t0 := time.Now()
		fn()
		durs = append(durs, float64(time.Since(t0)))
	}
	return median(durs), len(durs)
}
