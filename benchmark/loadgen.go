package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// opFunc performs request number seq on behalf of client worker and
// returns nil only when the answer arrived and was correct.
type opFunc func(ctx context.Context, worker, seq int) error

// lateAfter is how long after its due time an open-loop request may be
// sent before the generator counts it as late.
const lateAfter = time.Millisecond

// loadResult is what one driven window produced.
type loadResult struct {
	samples   []time.Duration // latencies of the successful requests
	attempted int
	failed    int
	late      int           // open loop: sent more than lateAfter past due
	elapsed   time.Duration // window open → last response
	firstErr  error
}

func (r *loadResult) merge(o *loadResult) {
	r.samples = append(r.samples, o.samples...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.late += o.late
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

func (r *loadResult) record(from time.Time, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return
	}
	r.samples = append(r.samples, time.Since(from))
}

// closedLoop runs clients workers back to back until window has passed
// (or count requests were issued, when count > 0): each sends its next
// request as soon as the previous one answered. Requests are numbered
// from a shared counter so the sequence is the same however the workers
// interleave.
func closedLoop(ctx context.Context, clients int, window time.Duration, count int, op opFunc) *loadResult {
	var next atomic.Int64
	parts := make([]loadResult, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				if count == 0 && time.Since(start) >= window {
					return
				}
				seq := int(next.Add(1) - 1)
				if count > 0 && seq >= count {
					return
				}
				t0 := time.Now()
				parts[w].record(t0, op(ctx, w, seq))
			}
		}(w)
	}
	wg.Wait()
	total := &loadResult{elapsed: time.Since(start)}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// dueTime is when request seq of an open loop at rate requests/s is due.
func dueTime(start time.Time, seq int, rate float64) time.Time {
	return start.Add(time.Duration(float64(seq) / rate * float64(time.Second)))
}

// timerSlack is how far ahead of a due time the generator stops
// sleeping and starts yielding in a loop instead. Sleeps on the hosts
// this runs on wake up to 1.1 ms late (timers fire on a ~1 ms tick),
// which would otherwise be charged to every request as latency.
const timerSlack = 1200 * time.Microsecond

// waitUntil returns at due, to within a scheduler yield.
func waitUntil(due time.Time) {
	for {
		d := time.Until(due)
		switch {
		case d <= 0:
			return
		case d > timerSlack:
			time.Sleep(d - timerSlack)
		default:
			runtime.Gosched()
		}
	}
}

// openLoop issues rate·window requests on a fixed schedule, at most
// inflight at once. A request that finds every slot busy waits, and its
// latency — like every latency here — is counted from the time it was
// due, so a stall is charged to all the requests it delayed. Only the
// worker holding the schedule waits for a due time, so at most one
// goroutine is ever spinning.
func openLoop(ctx context.Context, inflight int, rate float64, window time.Duration, op opFunc) *loadResult {
	count := int(rate * window.Seconds())
	var schedule sync.Mutex
	next := 0
	parts := make([]loadResult, inflight)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				schedule.Lock()
				seq := next
				if seq >= count {
					schedule.Unlock()
					return
				}
				next++
				due := dueTime(start, seq, rate)
				waitUntil(due)
				schedule.Unlock()
				if time.Since(due) > lateAfter {
					parts[w].late++
				}
				parts[w].record(due, op(ctx, w, seq))
			}
		}(w)
	}
	wg.Wait()
	total := &loadResult{elapsed: time.Since(start)}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}
