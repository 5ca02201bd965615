package cq

import (
	"sort"
	"time"

	"xqp/internal/ast"
	"xqp/internal/core"
	"xqp/internal/cost"
	"xqp/internal/cost/calibrate"
	"xqp/internal/engine"
	"xqp/internal/exec"
	"xqp/internal/naive"
	"xqp/internal/pattern"
	"xqp/internal/stats"
	"xqp/internal/storage"
	"xqp/internal/tally"
	"xqp/internal/value"
	"xqp/internal/xmldoc"
)

// fallback enumerates why a commit was (or always will be) served by a
// full re-evaluation instead of the incremental dirty-region path.
type fallback uint8

const (
	fbNone fallback = iota
	// fbInitial: the query's first evaluation at registration.
	fbInitial
	// fbIneligible: the plan is not a single rooted τ over the watched
	// document (FLWOR, step-by-step paths, constructed results).
	fbIneligible
	// fbRootQualifying: the pattern root itself carries predicates or
	// branches, so any edit can flip every output at once.
	fbRootQualifying
	// fbUntracked: the commit carried no mutation records (document
	// replaced wholesale or updated through an opaque closure).
	fbUntracked
	// fbMissed: a generation gap — a commit notification was dropped, so
	// retained state cannot be advanced record-by-record.
	fbMissed
	// fbThreshold: the dirty candidate region exceeded the configured
	// fraction of the document; a full scan is cheaper than re-matching
	// region by region.
	fbThreshold
	// fbError: evaluation failed; state was kept and will heal on the
	// next commit via fbMissed.
	fbError
	fbCount
)

var fallbackNames = [fbCount]string{
	"", "initial", "ineligible-plan", "root-qualifying",
	"untracked-commit", "missed-commit", "dirty-region-threshold",
	"eval-error",
}

func (f fallback) String() string { return fallbackNames[f] }

// unboundedDepth stands in for an unbounded depth window limit
// (descendant edges).
const unboundedDepth = 1 << 30

// qualVertex is a root→output path vertex whose sub-pattern (branch
// children or value predicates) can flip output membership when content
// below one of its images changes, together with the depth window its
// images must occupy.
type qualVertex struct {
	v        *pattern.Vertex
	minDepth int
	maxDepth int
}

// incPlan is the per-query incremental re-evaluation plan: the pattern
// graph plus the qualifying-vertex analysis that bounds each edit's
// dirty region.
type incPlan struct {
	graph *pattern.Graph
	quals []qualVertex
}

// incrementalPlan derives an incPlan from a compiled plan, or reports
// the structural fallback that makes the query full-only.
func incrementalPlan(op core.Op) (*incPlan, fallback) {
	t, ok := op.(*core.TPMOp)
	if !ok {
		return nil, fbIneligible
	}
	d, ok := t.Input.(*core.DocOp)
	if !ok || d.URI != "" {
		return nil, fbIneligible
	}
	if !t.Graph.Rooted {
		return nil, fbIneligible
	}
	return analyzeGraph(t.Graph)
}

// analyzeGraph extracts the root→output path and its qualifying
// vertices with depth windows. The pattern root must be plain (no
// predicates, single child): a qualifying root means one edit can flip
// membership of every output in the document, so there is no useful
// region to restrict to.
func analyzeGraph(g *pattern.Graph) (*incPlan, fallback) {
	if len(g.Vertices[0].Preds) > 0 || len(g.Children[0]) > 1 {
		return nil, fbRootQualifying
	}
	// Path from output up to the root, then reversed; rels[i] is the
	// relation on the edge into path[i].
	var path []pattern.VertexID
	var rels []pattern.Rel
	for v := g.Output; v != 0; {
		p, rel := g.Parent(v)
		if p < 0 {
			return nil, fbIneligible // disconnected output; defensive
		}
		path = append(path, v)
		rels = append(rels, rel)
		v = p
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
		rels[i], rels[j] = rels[j], rels[i]
	}
	plan := &incPlan{graph: g}
	lo, hi := 0, 0
	for i, v := range path {
		lo++
		if rels[i] == pattern.RelDescendant || hi >= unboundedDepth {
			hi = unboundedDepth
		} else {
			hi++
		}
		if v == g.Output {
			// Flips at the output vertex itself are witnessed inside the
			// edit parent's subtree, so its images are always among the
			// re-checked ancestors — no scope lift needed.
			continue
		}
		vert := &g.Vertices[v]
		if len(vert.Preds) > 0 || len(g.Children[v]) > 1 {
			plan.quals = append(plan.quals, qualVertex{v: vert, minDepth: lo, maxDepth: hi})
		}
	}
	return plan, fbNone
}

// vertexTestMatches is pattern.MatchesVertex with value predicates
// stripped: the scope lift must match by label alone, because a
// predicate that currently fails is exactly what an edit may flip.
func vertexTestMatches(st *storage.Store, n storage.NodeRef, v *pattern.Vertex) bool {
	switch {
	case v.Attribute:
		return st.Kind(n) == xmldoc.KindAttribute && (v.Test.Name == "*" || st.Name(n) == v.Test.Name)
	case v.Test.Kind == ast.TestName:
		return st.Kind(n) == xmldoc.KindElement && (v.Test.Name == "*" || st.Name(n) == v.Test.Name)
	default:
		return pattern.MatchesKindTest(st, n, v.Test)
	}
}

// scopeLift returns the shallowest ancestor-or-self of the edit parent
// that could serve as an image of a qualifying vertex (label match
// inside the vertex's depth window), or -1 when no ancestor qualifies.
// Outputs outside the lifted subtree cannot change membership: every
// predicate or branch witness they depend on lies outside the edited
// region.
func (p *incPlan) scopeLift(st *storage.Store, par storage.NodeRef) storage.NodeRef {
	if len(p.quals) == 0 || par <= 0 {
		return -1
	}
	var chain []storage.NodeRef // par up to (excluding) the document node
	for a := par; a > 0; a = st.Parent(a) {
		chain = append(chain, a)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		a := chain[i]
		d := len(chain) - i // depth: document node is 0, its element 1
		for _, q := range p.quals {
			if d >= q.minDepth && d <= q.maxDepth && vertexTestMatches(st, a, q.v) {
				return a
			}
		}
	}
	return -1
}

// interval is a half-open node-ref range [lo, hi).
type interval struct{ lo, hi storage.NodeRef }

// mergeIntervals sorts and coalesces overlapping intervals, returning
// the merged list and the total node count it covers.
func mergeIntervals(ivs []interval) ([]interval, int) {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	out := ivs[:0]
	for _, iv := range ivs {
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			if iv.hi > out[n-1].hi {
				out[n-1].hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	count := 0
	for _, iv := range out {
		count += int(iv.hi - iv.lo)
	}
	return out, count
}

// rematcher prices continuous-query re-matches with the cost model and
// feeds their dispatch records to the engine's calibrator, so cq
// traffic tunes the chooser exactly like ad-hoc queries do. The model
// is built from the commit's snapshot (st, syn), the store every
// evaluation of the commit binds its cost hooks to; cal is the watched
// document's calibrator (nil when the engine runs with calibration
// disabled — dispatches then still run, just unrecorded and untuned).
type rematcher struct {
	st    *storage.Store
	syn   *stats.Synopsis
	model *cost.Model
	cal   *calibrate.Calibrator
	// work accumulates the navigational work of the region-restricted
	// walks run; full counts the re-matches that ran the whole plan
	// filtered to the candidates. The rematcher serves one commit on the
	// registry's single worker, so neither needs synchronizing.
	work tally.Counters
	full int64
}

// newRematcher builds the dispatcher for one snapshot of doc. Any of
// the inputs may be missing (nil synopsis on untracked replacements,
// nil engine in direct tests); the zero pieces degrade gracefully down
// to the plain naive walk.
func newRematcher(doc string, st *storage.Store, syn *stats.Synopsis, eng *engine.Engine) *rematcher {
	rm := &rematcher{st: st, syn: syn}
	if st != nil && syn != nil {
		rm.model = cost.NewModelWith(st, syn)
	}
	if eng != nil {
		rm.cal = eng.Calibrator(doc)
	}
	return rm
}

// chosenEstimate picks the modeled cost of the choice's strategy family
// out of its estimate (which the caller has checked is non-nil).
func chosenEstimate(ch exec.Choice) float64 {
	switch ch.Strategy {
	case exec.StrategyTwigStack, exec.StrategyPathStack:
		return ch.Estimate.Join
	case exec.StrategyHybrid:
		return ch.Estimate.Hybrid
	default:
		return ch.Estimate.NoK
	}
}

// rematch re-tests the dirty candidates: the cost model prices the
// region-restricted naive walk (WithinCost) against a full re-match by
// its chosen strategy and runs the cheaper. Verdicts are
// strategy-independent — a full match filtered to the candidates equals
// the region-restricted walk by construction — so the dispatch affects
// cost only, never results. The walk's record, carrying the within
// estimate it was priced on plus counted actual work, flows into the
// calibrator; the full path runs through exec bound to the commit's
// snapshot, so only a re-match on that snapshot (not on the
// intermediate store of a multi-record commit) is estimated and
// recorded.
func (rm *rematcher) rematch(doc string, st *storage.Store, plan *engine.Plan, g *pattern.Graph, cands []storage.NodeRef) ([]storage.NodeRef, error) {
	if rm.model == nil {
		return rm.walk(st, g, cands)
	}
	var tuner cost.Tuner
	if rm.cal != nil {
		tuner = rm.cal
	}
	ch := rm.model.ChoiceTuned(g, true, 0, tuner)
	within := rm.model.WithinCost(g, len(cands))
	if ch.Estimate == nil || within <= chosenEstimate(ch) {
		before := rm.work.NodesVisited
		start := time.Now()
		out, err := rm.walk(st, g, cands)
		if err != nil {
			return nil, err
		}
		if rm.cal != nil {
			rm.cal.Observe(g, &exec.StrategyRecord{
				Chosen:   exec.StrategyNaive,
				Executed: exec.StrategyNaive,
				Estimate: &exec.CostEstimate{NoK: within},
				Contexts: 1,
				Matches:  len(out),
				Actual:   tally.Counters{NodesVisited: rm.work.NodesVisited - before},
				Dur:      time.Since(start),
			})
		}
		return out, nil
	}
	// Full re-match by the model's choice, filtered to the candidates.
	rm.full++
	eo := exec.Options{Strategy: ch.Strategy, StrictDocs: true}
	plan.Bind(&eo, rm.st, rm.syn, rm.cal)
	ex := exec.New(st, eo)
	ex.AddDocument(doc, st)
	seq, err := ex.Eval(plan.Plan, exec.Root())
	if err != nil {
		return nil, err
	}
	want := make(map[storage.NodeRef]bool, len(cands))
	for _, r := range cands {
		want[r] = true
	}
	var out []storage.NodeRef
	for _, it := range seq {
		if n, ok := it.(value.Node); ok && n.Store == st && want[n.Ref] {
			out = append(out, n.Ref)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// walk re-tests the candidates by region-restricted navigation,
// counting its work into rm.work.
func (rm *rematcher) walk(st *storage.Store, g *pattern.Graph, cands []storage.NodeRef) ([]storage.NodeRef, error) {
	return naive.MatchOutputWithinCounted(st, g, []storage.NodeRef{0}, cands, &rm.work)
}

// step advances retained result state across one mutation record: remap
// refs through the edit point, re-match only the dirty candidate region
// (edit ancestors ∪ inserted interval ∪ lifted subtree), and splice the
// fresh matches over the dropped ones. The re-match dispatches through
// rm (cost-priced and fed to calibration); doc and plan identify the
// query in case the model prefers a full re-match. Returns false when
// the candidate region exceeds maxCand or the re-match fails — the
// caller falls back to a full re-run.
func (p *incPlan) step(rec engine.MutationRecord, items []item, maxCand int, doc string, plan *engine.Plan, rm *rematcher) ([]item, bool) {
	st := rec.After
	ins, del := rec.Stats.NodesInserted, rec.Stats.NodesDeleted
	ep := rec.Stats.EditPoint

	// 1. Remap retained refs into the new store's space; refs inside a
	// deleted interval drop out of the result here.
	remapped := make([]item, 0, len(items))
	for _, it := range items {
		r := it.ref
		switch {
		case r < ep:
			// stable
		case del > 0 && r < ep+storage.NodeRef(del):
			continue
		default:
			r += storage.NodeRef(ins - del)
		}
		remapped = append(remapped, item{ref: r, xml: it.xml, orig: it.orig})
	}

	// 2. The dirty candidate region. Ancestors-or-self of the edit
	// parent are always re-checked: their string values and branch
	// witnesses may have changed, and their serializations certainly
	// have. Inserted nodes are all new candidates. The scope lift covers
	// outputs deeper in the tree whose qualifying ancestor's predicate
	// may have flipped.
	ivs := []interval{}
	for a := rec.Stats.Parent; ; a = st.Parent(a) {
		ivs = append(ivs, interval{a, a + 1})
		if a <= 0 {
			break
		}
	}
	if ins > 0 {
		ivs = append(ivs, interval{ep, ep + storage.NodeRef(ins)})
	}
	if a := p.scopeLift(st, rec.Stats.Parent); a >= 0 {
		ivs = append(ivs, interval{a, a + storage.NodeRef(st.SubtreeSize(a))})
	}
	merged, count := mergeIntervals(ivs)
	if count > maxCand {
		return nil, false
	}

	// 3. Re-match just the candidates through the cost-priced dispatcher
	// (its verdicts agree with a full scan by construction, whichever
	// strategy the model picks).
	cands := make([]storage.NodeRef, 0, count)
	for _, iv := range merged {
		for r := iv.lo; r < iv.hi; r++ {
			cands = append(cands, r)
		}
	}
	matched, err := rm.rematch(doc, st, plan, p.graph, cands)
	if err != nil {
		return nil, false
	}

	// 4. Splice: retained items inside the candidate region give way to
	// the fresh matches; a re-matched ref keeps its origin position so
	// the delta can recognize it as unchanged.
	inRegion := func(r storage.NodeRef) bool {
		i := sort.Search(len(merged), func(i int) bool { return merged[i].hi > r })
		return i < len(merged) && merged[i].lo <= r
	}
	dropped := map[storage.NodeRef]int{}
	var kept []item
	for _, it := range remapped {
		if it.ref >= 0 && inRegion(it.ref) {
			dropped[it.ref] = it.orig
			continue
		}
		kept = append(kept, it)
	}
	fresh := make([]item, len(matched))
	for i, r := range matched {
		orig := -1
		if o, ok := dropped[r]; ok {
			orig = o
		}
		fresh[i] = item{ref: r, xml: st.XMLString(r), orig: orig}
	}
	return mergeByRef(kept, fresh), true
}

// mergeByRef merges two ref-sorted item slices (disjoint refs).
func mergeByRef(a, b []item) []item {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]item, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].ref < b[j].ref {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// remapItems pushes pre-commit item refs through every mutation record
// of a commit (used when a threshold fallback still wants positional
// origin tracking: the full re-evaluation's matches are joined back to
// old positions by ref). Deleted items are dropped.
func remapItems(items []item, recs []engine.MutationRecord) []item {
	out := items
	for _, rec := range recs {
		ins, del := rec.Stats.NodesInserted, rec.Stats.NodesDeleted
		ep := rec.Stats.EditPoint
		next := make([]item, 0, len(out))
		for _, it := range out {
			r := it.ref
			switch {
			case r < ep:
			case del > 0 && r < ep+storage.NodeRef(del):
				continue
			default:
				r += storage.NodeRef(ins - del)
			}
			next = append(next, item{ref: r, xml: it.xml, orig: it.orig})
		}
		out = next
	}
	return out
}

// assignOrigins joins next (fresh full evaluation, ref-sorted) against
// old (remapped pre-commit state, ref-sorted) by ref, copying origin
// positions onto surviving items so diffByOrig emits a minimal delta.
func assignOrigins(old, next []item) {
	i := 0
	for j := range next {
		for i < len(old) && old[i].ref < next[j].ref {
			i++
		}
		if i < len(old) && old[i].ref == next[j].ref {
			next[j].orig = old[i].orig
		}
	}
}

// fullEval runs the compiled plan from scratch against a snapshot and
// serializes the result. Node items of the watched store carry their
// ref so later deltas can track them; atoms and constructed nodes do
// not (ref -1). The run's cost hooks are bound to rm's snapshot: under
// auto its τ dispatches are cost-chosen, and with a calibrator they are
// estimated and recorded. A nil rm runs NoK, unrecorded.
func fullEval(doc string, st *storage.Store, plan *engine.Plan, strat exec.Strategy, rm *rematcher) ([]item, error) {
	eo := exec.Options{Strategy: strat, StrictDocs: true}
	if rm == nil {
		rm = &rematcher{}
	}
	plan.Bind(&eo, rm.st, rm.syn, rm.cal)
	ex := exec.New(st, eo)
	ex.AddDocument(doc, st)
	seq, err := ex.Eval(plan.Plan, exec.Root())
	if err != nil {
		return nil, err
	}
	items := make([]item, len(seq))
	for i, it := range seq {
		if n, ok := it.(value.Node); ok && n.Store == st {
			items[i] = item{ref: n.Ref, xml: st.XMLString(n.Ref), orig: -1}
		} else {
			items[i] = item{ref: -1, xml: it.String(), orig: -1}
		}
	}
	return items, nil
}
