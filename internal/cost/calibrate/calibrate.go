// Package calibrate closes the cost-model loop: it folds the strategy
// records the executor emits for every τ dispatch (estimated vs actual
// work, per executed strategy, per pattern shape — see
// exec.StrategyRecord) into fitted replacements for the model's
// hand-tuned constants. A Calibrator implements cost.Tuner, so the
// chooser's verdicts can be steered by observed per-store behaviour:
//
//   - per-shape estimate corrections (the ratio of accumulated actual
//     cost to accumulated raw estimate, per strategy family), which turn
//     the scaled estimates into the observed mean actual cost of each
//     family — the chooser then simply picks the arm that has been
//     cheapest in practice;
//   - a fitted batched-execution factor replacing batchNoKFactor, from
//     observed wall time per unit of counted work on batched vs
//     interpreted serial NoK dispatches (the work counters are
//     mode-independent, so wall time is the only separating signal;
//     batched execution is a mode of NoK alone, so no other strategy
//     feeds it);
//   - a learned parallel-degree table replacing the static NumCPU cap,
//     from the overlap of observed per-partition spans (Σdur / max dur
//     is the speedup the fan-out actually achieved).
//
// It also keeps the chooser honest: a regret counter tallies dispatches
// where the chooser's own pick cost measurably more than the best
// observed strategy for that shape (surfaced through engine Stats, the
// xqd /metrics endpoint and xq -trace).
//
// Calibration state is guarded by one RWMutex per Calibrator —
// observation happens on query goroutines while the chooser reads fits
// concurrently — and is snapshot/restorable as validated JSON so a
// service restart keeps its tuning.
package calibrate

import (
	"sync"

	"xqp/internal/cost"
	"xqp/internal/exec"
	"xqp/internal/pattern"
)

const (
	// minObservations is how many records an arm (or accumulator) needs
	// before its fit replaces the static constant: below it, estimates
	// and verdicts stay untuned rather than chase single-sample noise.
	minObservations = 3
	// regretSlack is the tolerated ratio between the best observed arm
	// and a dispatch's actual cost before the dispatch counts as
	// regret; near-ties are not mispicks.
	regretSlack = 0.9
	// scaleMin/scaleMax clamp the per-shape estimate corrections — a
	// fit outside this range says the estimate is broken, not that the
	// chooser should trust an extreme correction.
	scaleMin = 0.05
	scaleMax = 20.0
	// factorMin/factorMax clamp the fitted batched factor.
	factorMin = 0.05
	factorMax = 2.0
)

// armStats accumulates one (shape, executed strategy) arm: how many
// dispatches ran it, the summed raw model estimate for its strategy
// family, and the summed actual cost in the same units.
type armStats struct {
	count  int64
	estSum float64
	actSum float64
}

// shapeStats is the per-ShapeKey arm table, indexed by the *executed*
// strategy. Attributing by executed — never chosen — strategy is what
// keeps fallback-heavy traffic from poisoning the fits: a TwigStack
// pick demoted to NoK by the executor's anchoring rules contributes its
// NoK work to the NoK arm and leaves the join fit untouched.
type shapeStats struct {
	arms [exec.NumStrategies]armStats
}

// speedAcc accumulates wall time against counted work for the batched
// NoK kernel, on both the interpreted and the batched side.
type speedAcc struct {
	interpNS, interpWork float64
	interpCount          int64
	batchNS, batchWork   float64
	batchCount           int64
}

// parAcc accumulates observed parallel degrees for one worker budget.
type parAcc struct {
	sum   float64
	count int64
}

// Calibrator accumulates strategy records for one store and serves
// fitted corrections as a cost.Tuner. The zero value is not usable; use
// New. All state is guarded by mu: Observe takes the exclusive lock,
// the Tuner read side takes the shared one.
type Calibrator struct {
	mu       sync.RWMutex
	shapes   map[string]*shapeStats // guarded by mu
	batchNoK speedAcc               // guarded by mu
	par      map[int]*parAcc        // guarded by mu
	observed int64                  // guarded by mu
	regret   int64                  // guarded by mu
}

// New returns an empty Calibrator.
func New() *Calibrator {
	return &Calibrator{
		shapes: map[string]*shapeStats{},
		par:    map[int]*parAcc{},
	}
}

// family maps an executed strategy to the estimate family it is priced
// by (naive navigation is priced like NoK: one scan of the context
// subtrees).
func family(s exec.Strategy) int {
	switch s {
	case exec.StrategyTwigStack, exec.StrategyPathStack:
		return 1
	case exec.StrategyHybrid:
		return 2
	default:
		return 0
	}
}

// famEstimate picks the executed strategy's family estimate out of a
// record's raw model estimate.
func famEstimate(e *exec.CostEstimate, s exec.Strategy) float64 {
	switch family(s) {
	case 1:
		return e.Join
	case 2:
		return e.Hybrid
	default:
		return e.NoK
	}
}

// Observe folds one τ dispatch record into the calibration state. It
// attributes the actual work to the *executed* strategy (fallbacks must
// not poison the chosen strategy's fit), charges regret only on
// non-fallback dispatches (a demoted pick says nothing about the
// chooser), and additionally feeds the batched-speed and
// parallel-degree accumulators when the record carries their signals.
func (c *Calibrator) Observe(g *pattern.Graph, rec *exec.StrategyRecord) {
	if rec == nil || rec.Executed == exec.StrategyAuto {
		return
	}
	actual := cost.ActualCost(rec.Actual)
	shape := cost.ShapeKey(g)

	c.mu.Lock()
	defer c.mu.Unlock()
	c.observed++

	ss := c.shapes[shape]
	if ss == nil {
		ss = &shapeStats{}
		c.shapes[shape] = ss
	}
	if rec.Estimate != nil {
		// Regret: the chooser stood by this pick, yet another arm of the
		// same shape has been measurably cheaper. Checked against the
		// arms as observed *before* this record so a dispatch cannot
		// beat itself.
		if !rec.Fallback {
			if best, ok := bestMean(ss, rec.Executed); ok && best < regretSlack*actual {
				c.regret++
			}
		}
		arm := &ss.arms[rec.Executed]
		arm.count++
		arm.estSum += famEstimate(rec.Estimate, rec.Executed)
		arm.actSum += actual
	}

	// Batched-speed fit: serial NoK dispatches only (the parallel paths
	// replace the kernels' scans with their own), and only when both
	// signals are present.
	if rec.Executed == exec.StrategyNoK && !rec.Parallel && rec.Dur > 0 && actual > 0 {
		acc := &c.batchNoK
		if rec.Batched {
			acc.batchNS += float64(rec.Dur)
			acc.batchWork += actual
			acc.batchCount++
		} else {
			acc.interpNS += float64(rec.Dur)
			acc.interpWork += actual
			acc.interpCount++
		}
	}

	// Parallel-degree observation: the speedup the fan-out actually
	// achieved is the overlap of the partition spans.
	if rec.Parallel && rec.Workers > 1 && len(rec.Partitions) > 0 {
		var total, max float64
		for _, p := range rec.Partitions {
			d := float64(p.Dur)
			total += d
			if d > max {
				max = d
			}
		}
		if max > 0 {
			degree := total / max
			if degree < 1 {
				degree = 1
			}
			if w := float64(rec.Workers); degree > w {
				degree = w
			}
			pa := c.par[rec.Workers]
			if pa == nil {
				pa = &parAcc{}
				c.par[rec.Workers] = pa
			}
			pa.sum += degree
			pa.count++
		}
	}
}

// bestMean returns the lowest mean actual cost among the shape's
// sufficiently-observed arms other than skip, and whether any exists.
// Caller holds c.mu.
func bestMean(ss *shapeStats, skip exec.Strategy) (float64, bool) {
	best, ok := 0.0, false
	for s := range ss.arms {
		if exec.Strategy(s) == skip {
			continue
		}
		a := &ss.arms[s]
		if a.count < minObservations {
			continue
		}
		mean := a.actSum / float64(a.count)
		if !ok || mean < best {
			best, ok = mean, true
		}
	}
	return best, ok
}

// Stats reports the observation and regret counters.
func (c *Calibrator) Stats() (observed, regret int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.observed, c.regret
}

// Scale implements cost.Tuner: multiplicative corrections for the three
// strategy-family estimates of g, fitted per shape as accumulated
// actual over accumulated raw estimate. Families without enough
// observations stay at 1 (the static model).
func (c *Calibrator) Scale(g *pattern.Graph) (nok, join, hybrid float64) {
	shape := cost.ShapeKey(g)
	c.mu.RLock()
	defer c.mu.RUnlock()
	nok, join, hybrid = 1, 1, 1
	ss := c.shapes[shape]
	if ss == nil {
		return nok, join, hybrid
	}
	if s, ok := familyScale(ss, exec.StrategyNoK, exec.StrategyNaive); ok {
		nok = s
	}
	if s, ok := familyScale(ss, exec.StrategyTwigStack, exec.StrategyPathStack); ok {
		join = s
	}
	if s, ok := familyScale(ss, exec.StrategyHybrid); ok {
		hybrid = s
	}
	return nok, join, hybrid
}

// familyScale merges the given arms and returns their clamped
// actual/estimate ratio. Caller holds c.mu.
func familyScale(ss *shapeStats, arms ...exec.Strategy) (float64, bool) {
	var count int64
	var est, act float64
	for _, s := range arms {
		a := &ss.arms[s]
		count += a.count
		est += a.estSum
		act += a.actSum
	}
	if count < minObservations || est <= 0 {
		return 1, false
	}
	return clamp(act/est, scaleMin, scaleMax), true
}

// BatchFactor implements cost.Tuner: the fitted batched-vs-interpreted
// NoK cost ratio, from observed wall time per unit of counted work on
// each side, clamped to [factorMin, factorMax]. It stays at the static
// constant until both sides have minObservations records.
func (c *Calibrator) BatchFactor() float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	acc := &c.batchNoK
	if acc.interpCount < minObservations || acc.batchCount < minObservations ||
		acc.interpWork <= 0 || acc.batchWork <= 0 || acc.interpNS <= 0 {
		return cost.StaticBatchFactor()
	}
	interpPerUnit := acc.interpNS / acc.interpWork
	batchPerUnit := acc.batchNS / acc.batchWork
	return clamp(batchPerUnit/interpPerUnit, factorMin, factorMax)
}

// EffectiveWorkers implements cost.Tuner: the learned parallel degree
// for a worker budget, or 0 when the budget has no observations yet
// (the model then falls back to its static NumCPU cap).
func (c *Calibrator) EffectiveWorkers(budget int) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	pa := c.par[budget]
	if pa == nil || pa.count < minObservations {
		return 0
	}
	n := int(pa.sum/float64(pa.count) + 0.5)
	if n < 1 {
		n = 1
	}
	if n > budget {
		n = budget
	}
	return n
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// The Calibrator must satisfy the model's Tuner contract.
var _ cost.Tuner = (*Calibrator)(nil)
