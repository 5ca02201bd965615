// Package compile implements the shared compile pipeline of DESIGN.md's
// key decision 5: parse → translate → analyze (diagnose + prune) →
// rewrite → annotate. The public facade (package xqp), the concurrent
// query service (internal/engine) and continuous queries (internal/cq)
// all reach it through engine.Prepare, which pairs each compilation with
// pricing its τ patterns, so plan semantics and cost verdicts cannot
// drift between the one-shot, the cached and the watched paths.
package compile

import (
	"xqp/internal/analyze"
	"xqp/internal/core"
	"xqp/internal/parser"
	"xqp/internal/rewrite"
	"xqp/internal/stats"
	"xqp/internal/storage"
)

// Options selects the pipeline stages that shape the compiled plan.
// Execution-time knobs (strategy, cost-based choice) are deliberately
// absent: two compilations with equal Options and inputs yield
// interchangeable plans, which is what lets the engine's plan cache key
// on Options.Fingerprint. cmd/xqvet (cachekey) enforces that every
// field here is read by Fingerprint.
//
//xqvet:cachekey consumed-by=Fingerprint
type Options struct {
	// DisableAnalyzer turns off the static analysis pass (diagnostics,
	// empty-subplan pruning, pattern cardinality annotation).
	DisableAnalyzer bool
	// DisableRewrites turns off all logical optimization.
	DisableRewrites bool
	// Rewrites selects individual rules when DisableRewrites is false.
	// The zero value means "all rules".
	Rewrites *rewrite.Options
}

// Fingerprint packs the plan-shaping options into a cache-key component.
// Options carrying a custom Rewrites selection are marked distinct from
// the default so a granular ablation never reuses a fully-rewritten plan.
func (o Options) Fingerprint() uint32 {
	var fp uint32
	if o.DisableAnalyzer {
		fp |= 1 << 0
	}
	if o.DisableRewrites {
		fp |= 1 << 1
	}
	if o.Rewrites != nil {
		fp |= 1 << 2
		r := *o.Rewrites
		for i, on := range []bool{r.PathFusion, r.PredicatePushdown, r.ConstFold, r.LetElimination} {
			if on {
				fp |= 1 << (3 + uint(i))
			}
		}
	}
	return fp
}

// Compiled is the outcome of one pipeline run. The plan is immutable
// after compilation and safe to execute from multiple goroutines
// concurrently (exec keeps all per-run state in its own Engine).
type Compiled struct {
	Plan core.Op
	// Diagnostics are the static analyzer's findings (empty when compiled
	// with DisableAnalyzer).
	Diagnostics []analyze.Diagnostic
	// Pruned counts the provably-empty subplans replaced by the analyzer.
	Pruned int
	// RewriteStats records which optimization rules fired.
	RewriteStats *rewrite.Stats
}

// Compile runs the pipeline. st and syn may be nil, in which case the
// analyzer performs structural checks only and τ patterns stay
// un-annotated (no synopsis cardinalities for the cost model).
func Compile(src string, opts Options, st *storage.Store, syn *stats.Synopsis) (*Compiled, error) {
	e, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	plan, err := core.Translate(e)
	if err != nil {
		return nil, err
	}
	c := &Compiled{RewriteStats: &rewrite.Stats{}}
	if !opts.DisableAnalyzer {
		res := analyze.Analyze(plan, analyze.Options{Store: st, Synopsis: syn, Prune: true})
		plan = res.Plan
		c.Diagnostics = res.Diagnostics
		c.Pruned = res.Pruned
	}
	if !opts.DisableRewrites {
		ro := rewrite.All()
		if opts.Rewrites != nil {
			ro = *opts.Rewrites
		}
		plan, c.RewriteStats = rewrite.Rewrite(plan, ro)
	}
	if !opts.DisableAnalyzer {
		analyze.AnnotateGraphs(plan, st, syn)
	}
	c.Plan = plan
	return c, nil
}
