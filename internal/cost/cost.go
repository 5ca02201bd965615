// Package cost implements the cost model the paper's Section 2 calls for:
// given a pattern graph and a document synopsis, estimate the cost of each
// physical τ implementation and choose the cheapest.
//
// The model captures the two regimes the experiments (E4) exhibit:
//
//   - the NoK navigational matcher scans the context subtrees once, so its
//     cost is proportional to the document size (plus a small per-vertex
//     factor for the bitmask work);
//   - the join-based matchers scan only the per-vertex tag streams, so
//     their cost is proportional to the sum of the matching tag counts
//     (plus merge overhead per structural join and the intermediate
//     solutions the merge phase materializes).
//
// Highly selective patterns (rare tags) therefore favour joins; patterns
// that touch a large fraction of the document (common tags, wildcards,
// local structure) favour a single NoK scan.
package cost

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"

	"xqp/internal/batch"
	"xqp/internal/core"
	"xqp/internal/exec"
	"xqp/internal/pattern"
	"xqp/internal/stats"
	"xqp/internal/storage"
	"xqp/internal/tally"
)

// Tunable per-unit weights, calibrated roughly on the bundled benchmarks;
// only their ratios matter to the choice. Accuracy is tracked by
// experiment E16 (estimated vs actual, read out of execution traces):
// on the auction corpus at scale 8 the output-cardinality q-error is
// mean 1.04 / max 1.23 over the standard query mix, i.e. estimates stay
// within a ~25% factor of the actuals (see EXPERIMENTS.md).
const (
	// nokPerNode is the cost of visiting one document node in the NoK
	// upward pass.
	nokPerNode = 1.0
	// nokPerVertex scales the per-node test work with the pattern size.
	nokPerVertex = 0.12
	// joinPerElem is the cost of one stream element passing through the
	// stack machinery.
	joinPerElem = 2.5
	// joinPerSolution is the cost of materializing one intermediate path
	// solution in the merge phase.
	joinPerSolution = 1.5
	// joinSetup is the fixed cost per structural join (stream open,
	// stack setup).
	joinSetup = 64.0
	// parSetup is the fixed cost of planning a parallel τ dispatch:
	// range selection, goroutine pool spin-up, and the merge
	// machinery. It keeps small documents serial, where fan-out
	// overhead would dominate the matching itself.
	parSetup = 4000.0
	// parPerPartition is the per-partition task overhead (task handoff,
	// per-worker matcher state).
	parPerPartition = 48.0
	// parMergePerMatch is the per-match cost of merging partial
	// solution lists back into document order (sort + dedup).
	parMergePerMatch = 0.5
	// parScanShare is the fraction of the join matchers' stream cost
	// that parallelizes (the per-vertex tag scans; the coordinated
	// stack merge stays serial).
	parScanShare = 0.5
	// parPartitionsPerWorker mirrors the matcher's partition
	// oversizing (nok.partitionsPerWorker).
	parPartitionsPerWorker = 4
	// batchSetup is the fixed cost of compiling and binding a batch
	// Program (mask construction plus the vocabulary-sized candidate
	// table). It keeps tiny dispatches on the interpreter, where the
	// kernel's setup would dominate.
	batchSetup = 512.0
	// batchNoKFactor is the modeled per-node cost ratio of the batch
	// kernel's linear parenthesis scan against the interpreter's
	// FindClose-backed navigation (calibrated on E19: the kernel runs
	// the same upward/downward passes without per-node FindClose).
	batchNoKFactor = 0.4
)

// Tuner adjusts the model's verdicts from observed execution feedback.
// It is implemented by the calibration layer (cost/calibrate); package
// cost only defines the contract so the model itself stays a stateless
// function of the synopsis. A nil Tuner everywhere means the hand-tuned
// static constants above.
type Tuner interface {
	// Scale returns multiplicative corrections for the three
	// strategy-family estimates of g (1 means keep the static model).
	Scale(g *pattern.Graph) (nok, join, hybrid float64)
	// BatchFactor returns the fitted batched-vs-interpreted NoK cost
	// ratio replacing batchNoKFactor.
	BatchFactor() float64
	// EffectiveWorkers returns the learned parallel degree achievable
	// under a worker budget (replacing the static NumCPU cap); 0 means
	// no observation yet, falling back to the static cap.
	EffectiveWorkers(budget int) int
}

// ShapeKey renders the calibration shape of a pattern: the structural
// features the static model's error actually varies with — vertex
// labels and tests, child vs descendant arcs, predicate counts, the
// output vertex, root anchoring — in a stable textual form usable as a
// map key. Two τ dispatches with equal ShapeKeys are priced identically
// by the static model, so fitted corrections accumulate per ShapeKey.
func ShapeKey(g *pattern.Graph) string {
	var b strings.Builder
	if g.Rooted {
		b.WriteByte('R')
	}
	var walk func(v pattern.VertexID)
	walk = func(v pattern.VertexID) {
		vx := &g.Vertices[v]
		b.WriteString(vx.Label())
		if len(vx.Preds) > 0 {
			fmt.Fprintf(&b, "[%d]", len(vx.Preds))
		}
		if v == g.Output {
			b.WriteByte('*')
		}
		for _, e := range g.Children[v] {
			b.WriteByte('(')
			b.WriteString(e.Rel.String())
			walk(e.To)
			b.WriteByte(')')
		}
	}
	walk(0)
	return b.String()
}

// StaticBatchFactor exposes the hand-tuned batched-execution factor,
// so the calibration layer can fall back to it (and tests can pin
// verdict boundaries) without duplicating the constant.
func StaticBatchFactor() float64 {
	return batchNoKFactor
}

// ActualCost converts a matcher's actual work counters into the model's
// abstract cost units, using the same per-unit weights the estimates
// are built from, so estimated and observed cost are directly
// comparable (the calibration layer's fit is their ratio).
func ActualCost(c tally.Counters) float64 {
	return nokPerNode*float64(c.NodesVisited) +
		joinPerElem*float64(c.StreamElems) +
		joinPerSolution*float64(c.Solutions)
}

// Estimate holds the modeled costs for one pattern.
type Estimate struct {
	NoK         float64
	Join        float64
	Hybrid      float64
	OutputCard  float64
	StreamTotal float64
}

// Model estimates physical costs from a synopsis.
type Model struct {
	st  *storage.Store
	syn *stats.Synopsis
}

// NewModel builds a model for a store (constructing its synopsis).
func NewModel(st *storage.Store) *Model {
	return &Model{st: st, syn: stats.Build(st)}
}

// NewModelWith reuses an existing synopsis.
func NewModelWith(st *storage.Store, syn *stats.Synopsis) *Model {
	return &Model{st: st, syn: syn}
}

// Synopsis exposes the underlying synopsis.
func (m *Model) Synopsis() *stats.Synopsis { return m.syn }

// estimateCalls counts synopsis walks by Estimate, process-wide.
var estimateCalls atomic.Int64

// EstimateCalls reports how many patterns Estimate has priced so far in
// this process. Every call walks the synopsis, so a serving path that
// prices its plans once (EstimatePlan) keeps this flat on plan-cache
// hits.
func EstimateCalls() int64 { return estimateCalls.Load() }

// Estimate computes the cost estimate for a pattern on this document.
func (m *Model) Estimate(g *pattern.Graph) Estimate {
	estimateCalls.Add(1)
	var streams float64
	for v := 1; v < g.VertexCount(); v++ {
		streams += m.syn.EstimateVertexMatches(m.st, &g.Vertices[v])
	}
	// Prefer the output-cardinality annotation the static analyzer stamped
	// at compile time over re-walking the synopsis per execution.
	out := g.EstCard
	if out < 0 {
		out = m.syn.EstimatePattern(m.st, g)
	}
	joins := float64(g.VertexCount() - 1)
	e := Estimate{
		OutputCard:  out,
		StreamTotal: streams,
	}
	part := g.Partition()
	links := float64(part.JoinCount())
	if links == 0 {
		// Child-only pattern: the NoK matcher navigates top-down over
		// matching paths only. The nodes visited are roughly the matches
		// at every prefix of the pattern times the average fan-out.
		var prefixSum float64
		probe := g.Clone()
		for v := 1; v < probe.VertexCount(); v++ {
			probe.Output = pattern.VertexID(v)
			prefixSum += m.syn.EstimatePattern(m.st, probe)
		}
		const fanout = 4
		e.NoK = joinSetup + nokPerNode*fanout*(prefixSum+1)
	} else {
		// Descendant edges force the two global passes.
		e.NoK = nokPerNode*float64(m.syn.NodeCount()) +
			nokPerVertex*float64(g.VertexCount())*float64(m.syn.NodeCount())
	}
	e.Join = joinSetup*joins + joinPerElem*streams + joinPerSolution*out*joins
	// Hybrid: one tag-index probe per non-anchor fragment root, a local
	// navigation per candidate (bounded by the fragment size), and one
	// structural join per descendant link.
	if links == 0 {
		e.Hybrid = e.NoK // degenerates to the same top-down evaluation
	} else {
		var fragCandidates float64
		for fi := 1; fi < part.FragmentCount(); fi++ {
			root := part.Fragments[fi].Root
			cands := m.syn.EstimateVertexMatches(m.st, &g.Vertices[root])
			fragCandidates += cands * float64(len(part.Fragments[fi].Vertices))
		}
		e.Hybrid = joinSetup*links + joinPerElem*fragCandidates*2 + joinPerSolution*out*links
	}
	return e
}

// Choose picks the cheapest strategy the executor can actually run.
// rootAnchored reports whether the τ context is exactly the document
// root: the holistic join matchers only run there, so the model must
// never recommend them elsewhere. Below the root the dispatch is NoK:
// the estimates are whole-document figures, and while NoK's real cost
// shrinks to the contexts' subtrees, Hybrid still probes the
// whole-document postings, so comparing the two would be dishonest.
func (m *Model) Choose(g *pattern.Graph, rootAnchored bool) exec.Strategy {
	return chooseFrom(m.Estimate(g), g, rootAnchored)
}

func chooseFrom(e Estimate, g *pattern.Graph, rootAnchored bool) exec.Strategy {
	switch {
	case !rootAnchored:
		return exec.StrategyNoK
	case e.Join <= e.NoK && e.Join <= e.Hybrid:
		if g.IsPath() {
			return exec.StrategyPathStack
		}
		return exec.StrategyTwigStack
	case e.Hybrid < e.NoK:
		return exec.StrategyHybrid
	default:
		return exec.StrategyNoK
	}
}

// Choice evaluates the model once and returns the strategy together
// with the estimate it was decided from, in the shape the executor's
// Options.Chooser hook and trace strategy records expect.
func (m *Model) Choice(g *pattern.Graph, rootAnchored bool) exec.Choice {
	e := m.Estimate(g)
	return exec.Choice{Strategy: chooseFrom(e, g, rootAnchored), Estimate: e.ForExec()}
}

// ChoiceTuned is the full chooser pipeline — strategy, parallel and
// batched verdicts — with an optional Tuner whose fitted corrections
// replace the static constants: per-shape estimate scales steer the
// strategy pick, the fitted batch factor the batched verdict, and the
// learned parallel-degree table the modeled fan-out speedup. The
// Choice's Estimate always carries the raw (untuned) model estimate,
// so downstream calibration keeps fitting against a stable baseline
// instead of chasing its own corrections.
func (m *Model) ChoiceTuned(g *pattern.Graph, rootAnchored bool, workers int, t Tuner) exec.Choice {
	return m.ChoiceFor(m.Estimate(g), g, rootAnchored, workers, t)
}

// ChoiceFor is ChoiceTuned over an estimate the caller already holds
// (the engine prices every τ pattern once per compiled plan, see
// EstimatePlan), so a dispatch applies the tuner without re-walking the
// synopsis. e must be this model's raw Estimate of g.
func (m *Model) ChoiceFor(e Estimate, g *pattern.Graph, rootAnchored bool, workers int, t Tuner) exec.Choice {
	te := e
	if t != nil {
		nokS, joinS, hybS := t.Scale(g)
		te.NoK *= nokS
		te.Join *= joinS
		te.Hybrid *= hybS
	}
	s := chooseFrom(te, g, rootAnchored)
	ch := exec.Choice{Strategy: s, Estimate: e.ForExec()}
	if s == exec.StrategyHybrid {
		// The hybrid matcher has neither a parallel nor a batched mode.
		return ch
	}
	eff := float64(tunedWorkers(workers, t))
	if s != exec.StrategyNoK {
		ch.Parallel = workers > 1 && te.joinParallelEff(eff) < te.Join
		return ch
	}
	if g.VertexCount() > batch.MaxVertices {
		// No NoK matcher represents the pattern: the executor runs it
		// on the naive matcher, serially.
		return ch
	}
	bNoK := batchNoKFactor
	if t != nil {
		bNoK = t.BatchFactor()
	}
	// NoK has three modes: the interpreter, the serial kernel and the
	// kernel partitioned over the workers. Parallel NoK runs only on the
	// kernels, so a parallel verdict is a batched one.
	nodes := float64(m.syn.NodeCount())
	serial, kernel := te.NoK, kernelScan(nodes, bNoK)
	ch.Batched = kernel < serial
	if workers > 1 && nokParallelEff(te, nodes, bNoK, workers, eff) < min(serial, kernel) {
		ch.Parallel, ch.Batched = true, true
	}
	return ch
}

// Estimates holds the raw estimate of every τ pattern of one compiled
// plan, keyed by the plan's own graphs. A plan is compiled against one
// synopsis (the engine keys cached plans by document generation), so
// its estimates stay valid for as long as the plan is served.
type Estimates map[*pattern.Graph]Estimate

// EstimatePlan prices every τ pattern of a compiled plan once, so the
// chooser and the calibration estimator read stored estimates instead
// of walking the synopsis on every dispatch. Call it before the plan is
// published; the map is read-only afterwards.
func (m *Model) EstimatePlan(plan core.Op) Estimates {
	es := Estimates{}
	core.Walk(plan, func(o core.Op) bool {
		if t, ok := o.(*core.TPMOp); ok {
			if _, seen := es[t.Graph]; !seen {
				es[t.Graph] = m.Estimate(t.Graph)
			}
		}
		return true
	})
	return es
}

// WithinCost models the candidate-wise naive membership test the
// continuous-query layer uses for incremental re-evaluation: for each
// candidate node a bounded navigation of at most the pattern size along
// paths no deeper than the document (ancestor checks up, local descents
// down), with no global scan. Comparable against the Estimate families,
// so the cq dispatcher can ask whether a full re-match by the chosen
// strategy would beat re-testing the dirty candidates one by one.
func (m *Model) WithinCost(g *pattern.Graph, candidates int) float64 {
	perCand := float64(m.syn.MaxDepth()) + float64(g.VertexCount())
	return joinSetup + nokPerNode*perCand*float64(candidates)
}

// kernelScan models the serial NoK batch kernel: a linear pass over the
// whole parenthesis sequence of the context (nodes·bNoK) plus the
// compile-and-bind setup, whatever the pattern. The interpreter's cost
// is the NoK estimate itself: top-down navigation along matching paths
// for child-only patterns, two global passes once a descendant edge
// appears.
func kernelScan(nodes, bNoK float64) float64 {
	return nodes*bNoK + batchSetup
}

// nokParallelEff models the partitioned NoK matcher — the batch kernels
// over preorder ranges — under a worker budget: the kernel scan over
// nodes divides across the eff effective cores, plus the kernel setup
// and the fixed planning, per-partition task and document-order merge
// costs. bNoK and eff are the static or the Tuner's fitted values.
func nokParallelEff(e Estimate, nodes, bNoK float64, workers int, eff float64) float64 {
	parts := float64(workers * parPartitionsPerWorker)
	return nodes*bNoK/eff + batchSetup +
		parSetup + parPerPartition*parts + parMergePerMatch*e.OutputCard
}

// JoinParallel models PathStack/TwigStack with parallel per-vertex
// stream scans: only the scan share of the stream cost divides across
// cores; the coordinated stack merge stays serial (Amdahl's law in
// one line).
func (e Estimate) JoinParallel(workers int) float64 {
	return e.joinParallelEff(float64(effectiveWorkers(workers)))
}

// joinParallelEff is JoinParallel with the effective parallel degree
// factored out, so a Tuner's learned degree can replace the static cap.
func (e Estimate) joinParallelEff(eff float64) float64 {
	scan := joinPerElem * e.StreamTotal * parScanShare
	return e.Join - scan + scan/eff +
		parSetup + parPerPartition*eff + parMergePerMatch*e.OutputCard
}

// effectiveWorkers bounds the modeled speedup by the hardware: extra
// goroutines beyond the core count cannot make the scan any faster.
func effectiveWorkers(workers int) int {
	if n := runtime.NumCPU(); workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// tunedWorkers resolves the effective parallel degree for a worker
// budget: the tuner's learned table when it has observations for the
// budget (derived from per-partition span overlap), else the static
// NumCPU cap. Never above the budget itself, never below 1.
func tunedWorkers(workers int, t Tuner) int {
	if t != nil {
		if n := t.EffectiveWorkers(workers); n > 0 {
			if n > workers && workers >= 1 {
				n = workers
			}
			return n
		}
	}
	return effectiveWorkers(workers)
}

// ForExec converts the estimate to the executor's trace record shape.
func (e Estimate) ForExec() *exec.CostEstimate {
	return &exec.CostEstimate{NoK: e.NoK, Join: e.Join, Hybrid: e.Hybrid, OutputCard: e.OutputCard}
}

// String renders an estimate.
func (e Estimate) String() string {
	return fmt.Sprintf("Estimate{nok=%.0f, join=%.0f, card=%.1f, streams=%.0f}",
		e.NoK, e.Join, e.OutputCard, e.StreamTotal)
}
