package engine

import (
	"xqp/internal/compile"
	"xqp/internal/cost"
	"xqp/internal/cost/calibrate"
	"xqp/internal/exec"
	"xqp/internal/pattern"
	"xqp/internal/stats"
	"xqp/internal/storage"
)

// Plan is a compiled query together with the raw cost estimate of each
// of its τ patterns, priced against the store it was prepared for. It is
// immutable and shared by concurrent executions: the engine's plan
// cache, the facade's compiled queries and cq's watched queries each
// hold one, and every execution binds its own hooks with Bind.
type Plan struct {
	*compile.Compiled
	// ord identifies the store the estimates were priced against by its
	// creation ordinal (Store.Ord, unique per store and never 0), so a
	// plan cached past its generation does not keep that store alive;
	// 0 when the plan was prepared without a synopsis.
	ord  int64
	ests cost.Estimates
}

// Prepare compiles src against (st, syn) and, whenever a synopsis is
// given, prices every τ pattern of the plan once, so a run bound to the
// same store reads stored estimates instead of walking the synopsis per
// dispatch. Without a synopsis the analyzer performs structural checks
// only and nothing is priced.
func Prepare(src string, opts compile.Options, st *storage.Store, syn *stats.Synopsis) (*Plan, error) {
	c, err := compile.Compile(src, opts, st, syn)
	if err != nil {
		return nil, err
	}
	p := &Plan{Compiled: c}
	if syn != nil {
		p.ord, p.ests = st.Ord, cost.NewModelWith(st, syn).EstimatePlan(c.Plan)
	}
	return p, nil
}

// Bind installs the cost hooks for one execution of p on eo, all bound
// to the store st with synopsis syn:
//   - the chooser, under Strategy auto, tuned by cal when one is given;
//   - the estimator, under Trace or when a calibrator is given;
//   - the recorder, feeding every dispatch record to cal, when one is
//     given.
//
// The hooks answer only for st. They read p's estimates when p was
// priced against st, and otherwise price against syn. Every other
// store (doc() targets, γ temporaries, the intermediate stores of a
// multi-record commit) runs NoK with no estimate and no record, as
// does st itself when syn is nil. p may be nil: nothing is stored then.
func (p *Plan) Bind(eo *exec.Options, st *storage.Store, syn *stats.Synopsis, cal *calibrate.Calibrator) {
	b := &binding{cal: cal, workers: exec.Workers(eo.Parallelism)}
	if syn != nil {
		b.st, b.model = st, *cost.NewModelWith(st, syn)
		if p != nil && p.ord == st.Ord {
			b.ests = p.ests
		}
	}
	if cal != nil {
		b.tuner = cal
	}
	if eo.Strategy == exec.StrategyAuto {
		eo.Chooser = b.choose
	}
	if eo.Trace || cal != nil {
		// Calibration needs an estimate on every record (the estimated
		// side of each fit), even for forced strategies.
		eo.Estimator = b.estimator
	}
	if cal != nil {
		eo.Record = b.record
	}
}

// binding is the state Bind's hooks share for one execution.
type binding struct {
	st      *storage.Store // nil: no store is priced (exec never dispatches on nil)
	model   cost.Model
	ests    cost.Estimates
	cal     *calibrate.Calibrator
	tuner   cost.Tuner // cal, or nil for the static constants
	workers int
}

func (b *binding) estimate(g *pattern.Graph) cost.Estimate {
	if e, ok := b.ests[g]; ok {
		return e
	}
	return b.model.Estimate(g) // predicate sub-plans are translated at run time
}

func (b *binding) choose(st *storage.Store, g *pattern.Graph, rootAnchored bool) exec.Choice {
	if st != b.st {
		return exec.Choice{Strategy: exec.StrategyNoK}
	}
	return b.model.ChoiceFor(b.estimate(g), g, rootAnchored, b.workers, b.tuner)
}

func (b *binding) estimator(st *storage.Store, g *pattern.Graph) *exec.CostEstimate {
	if st != b.st {
		return nil
	}
	return b.estimate(g).ForExec()
}

func (b *binding) record(st *storage.Store, g *pattern.Graph, rec *exec.StrategyRecord) {
	if st == b.st {
		b.cal.Observe(g, rec)
	}
}
