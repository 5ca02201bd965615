package cost

import (
	"runtime"
	"testing"

	"xqp/internal/exec"
	"xqp/internal/xmark"
)

func TestEffectiveWorkersBound(t *testing.T) {
	if got := effectiveWorkers(0); got != 1 {
		t.Errorf("effectiveWorkers(0) = %d, want 1", got)
	}
	if got := effectiveWorkers(1); got != 1 {
		t.Errorf("effectiveWorkers(1) = %d, want 1", got)
	}
	if got := effectiveWorkers(100000); got != runtime.NumCPU() {
		t.Errorf("effectiveWorkers(1e5) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
}

// TestParallelEstimateOverhead: the modeled parallel cost is strictly
// above the ideal split of the kernel scan — fan-out always pays setup,
// per-partition, and merge terms, so small documents stay serial.
func TestParallelEstimateOverhead(t *testing.T) {
	m := NewModel(xmark.StoreAuction(4))
	e := m.Estimate(graphOf(t, "//parlist//text"))
	nodes := float64(m.syn.NodeCount())
	kernel := kernelScan(nodes, batchNoKFactor)
	for _, w := range []int{2, 4, 8, 64} {
		eff := float64(effectiveWorkers(w))
		if got := nokParallelEff(e, nodes, batchNoKFactor, w, eff); got <= kernel/eff {
			t.Errorf("parallel nok(%d) = %.0f, not above ideal split %.0f", w, got, kernel/eff)
		}
		// Only the scan share of the join cost parallelizes (the stack
		// merge is serial), so the parallel estimate keeps the full
		// merge cost: it can never drop below the non-scan remainder.
		scan := joinPerElem * e.StreamTotal * parScanShare
		if got := e.JoinParallel(w); got <= e.Join-scan {
			t.Errorf("JoinParallel(%d) = %.0f, below serial remainder %.0f", w, got, e.Join-scan)
		}
	}
}

// TestChoiceParallelConsistent: the Parallel verdict is exactly the
// comparison of the chosen strategy's partitioned estimate against its
// cheapest serial one — recomputed here independently — a parallel NoK
// verdict is a batched one, and a serial worker budget never fans out. On a single-core host the verdict is always
// serial: the modeled speedup divides by min(workers, NumCPU) = 1 and
// the overhead terms decide.
func TestChoiceParallelConsistent(t *testing.T) {
	m := NewModel(xmark.StoreAuction(4))
	nodes := float64(m.syn.NodeCount())
	kernel := kernelScan(nodes, batchNoKFactor)
	for _, q := range []string{"//parlist//text", "//item/name", "/site/regions//item", "//people/person"} {
		g := graphOf(t, q)
		for _, rooted := range []bool{true, false} {
			for _, w := range []int{0, 1, 2, 4, 16} {
				ch := m.ChoiceTuned(g, rooted, w, nil)
				if base := m.Choice(g, rooted); ch.Strategy != base.Strategy {
					t.Errorf("%s: the worker budget changed the strategy: %v vs %v", q, ch.Strategy, base.Strategy)
				}
				e := m.Estimate(g)
				want := false
				if w > 1 {
					switch ch.Strategy {
					case exec.StrategyTwigStack, exec.StrategyPathStack:
						want = e.JoinParallel(w) < e.Join
					case exec.StrategyHybrid:
						want = false
					default:
						eff := float64(effectiveWorkers(w))
						want = nokParallelEff(e, nodes, batchNoKFactor, w, eff) < min(e.NoK, kernel)
					}
				}
				if ch.Parallel != want {
					t.Errorf("%s (rooted=%v, w=%d): Parallel = %v, want %v", q, rooted, w, ch.Parallel, want)
				}
				if ch.Parallel && ch.Strategy == exec.StrategyNoK && !ch.Batched {
					t.Errorf("%s (rooted=%v, w=%d): parallel nok verdict not batched", q, rooted, w)
				}
				if runtime.NumCPU() == 1 && ch.Parallel {
					t.Errorf("%s: parallel verdict on a single-core host", q)
				}
			}
		}
	}
}
