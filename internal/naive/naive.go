// Package naive implements tree-pattern matching by direct recursive
// navigation, the "navigational approach" baseline the paper cites
// (Section 5, [10]): for every candidate node, test the pattern
// constraints by walking the tree, with memoization but no single-pass
// machinery and no structural joins.
//
// It is deliberately straightforward: it serves both as the baseline in
// the experiments and as the differential-testing oracle for the NoK
// matcher and the join-based algorithms.
package naive

import (
	"sort"

	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/tally"
)

// pollEvery is how many constraint tests pass between cancellation
// checks; a power of two keeps the modulo cheap.
const pollEvery = 256

// interruptPanic carries a cancellation error up the recursion;
// catchInterrupt converts it back at the package boundary.
type interruptPanic struct{ err error }

// catchInterrupt recovers an interruptPanic into *err; any other panic
// continues to propagate.
func catchInterrupt(err *error) {
	if r := recover(); r != nil {
		ip, ok := r.(interruptPanic)
		if !ok {
			panic(r)
		}
		*err = ip.err
	}
}

type evaluator struct {
	st       *storage.Store
	g        *pattern.Graph
	contexts map[storage.NodeRef]bool
	downMemo map[key]bool
	bindMemo map[key]bool
	// interrupt, when non-nil, is polled every pollEvery visits; a
	// non-nil return unwinds the recursion via interruptPanic.
	interrupt func() error
	// visits counts constraint tests (the navigational work actually
	// performed, memo hits excluded) for execution traces.
	visits int64
}

type key struct {
	n storage.NodeRef
	v pattern.VertexID
}

func newEvaluator(st *storage.Store, g *pattern.Graph, contexts map[storage.NodeRef]bool, interrupt func() error) *evaluator {
	return &evaluator{
		st:        st,
		g:         g,
		contexts:  contexts,
		downMemo:  map[key]bool{},
		bindMemo:  map[key]bool{},
		interrupt: interrupt,
	}
}

// poll counts one unit of navigational work and periodically checks the
// interrupt callback, unwinding with interruptPanic on cancellation.
func (e *evaluator) poll() {
	e.visits++
	if e.interrupt == nil || e.visits%pollEvery != 0 {
		return
	}
	if err := e.interrupt(); err != nil {
		panic(interruptPanic{err})
	}
}

// MatchOutput returns the output-vertex matches of the pattern graph in
// document order, evaluated by brute-force navigation.
func MatchOutput(st *storage.Store, g *pattern.Graph, contexts []storage.NodeRef) []storage.NodeRef {
	refs, _ := MatchOutputCounted(st, g, contexts, nil, nil)
	return refs
}

// MatchOutputCounted is MatchOutput reporting actual work into c (when
// non-nil): every un-memoized constraint test counts as a node visit.
// interrupt, when non-nil, is polled periodically during the scan; its
// error cancels the match.
func MatchOutputCounted(st *storage.Store, g *pattern.Graph, contexts []storage.NodeRef, interrupt func() error, c *tally.Counters) (refs []storage.NodeRef, err error) {
	defer catchInterrupt(&err)
	ctxSet := map[storage.NodeRef]bool{}
	for _, ctx := range contexts {
		ctxSet[ctx] = true
	}
	e := newEvaluator(st, g, ctxSet, interrupt)
	defer func() {
		if c != nil {
			c.NodesVisited += e.visits
		}
	}()
	var out []storage.NodeRef
	scan := func(lo, hi storage.NodeRef) {
		for n := lo; n < hi; n++ {
			if e.bind(n, g.Output) {
				out = append(out, n)
			}
		}
	}
	if g.Rooted {
		scan(0, storage.NodeRef(st.NodeCount()))
		return out, nil
	}
	// A relative pattern's matches lie in its contexts' subtrees: scan
	// each outermost context's interval once, not the whole document per
	// dispatch (a predicate path runs one dispatch per candidate).
	sorted := append([]storage.NodeRef(nil), contexts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	end := storage.NodeRef(0)
	for _, c := range sorted {
		if c < end {
			continue
		}
		end = c + storage.NodeRef(st.SubtreeSize(c))
		scan(c, end)
	}
	return out, nil
}

// MatchOutputWithin reports which of the candidate refs match the output
// vertex, in document order. It evaluates membership per candidate with
// the same memoized recursion as MatchOutput (so its verdicts agree with
// the full scan by construction), but touches only the candidates'
// ancestor chains and predicate witnesses instead of every node — the
// primitive behind incremental re-evaluation over dirty regions
// (internal/cq): after a local update, only nodes whose membership could
// have changed are re-tested.
func MatchOutputWithin(st *storage.Store, g *pattern.Graph, contexts, candidates []storage.NodeRef) (refs []storage.NodeRef, err error) {
	return MatchOutputWithinCounted(st, g, contexts, candidates, nil)
}

// MatchOutputWithinCounted is MatchOutputWithin reporting actual work
// into c (when non-nil), with the same node-visit accounting as
// MatchOutputCounted — the feed that lets region-restricted dispatches
// carry honest work counters into the calibration layer.
func MatchOutputWithinCounted(st *storage.Store, g *pattern.Graph, contexts, candidates []storage.NodeRef, c *tally.Counters) (refs []storage.NodeRef, err error) {
	defer catchInterrupt(&err)
	ctxSet := map[storage.NodeRef]bool{}
	for _, ctx := range contexts {
		ctxSet[ctx] = true
	}
	e := newEvaluator(st, g, ctxSet, nil)
	defer func() {
		if c != nil {
			c.NodesVisited += e.visits
		}
	}()
	var out []storage.NodeRef
	for _, n := range candidates {
		if n < 0 || int(n) >= st.NodeCount() {
			continue
		}
		if e.bind(n, g.Output) {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// test applies the vertex's node test and value predicates; the anchor
// (vertex 0) additionally requires the node to be a context node.
func (e *evaluator) test(n storage.NodeRef, v pattern.VertexID) bool {
	e.poll()
	if v == 0 && !e.contexts[n] {
		return false
	}
	return pattern.MatchesVertex(e.st, n, &e.g.Vertices[v])
}

// down reports whether the downward sub-pattern at v matches at n.
func (e *evaluator) down(n storage.NodeRef, v pattern.VertexID) bool {
	k := key{n, v}
	if r, ok := e.downMemo[k]; ok {
		return r
	}
	e.downMemo[k] = false // guard (patterns are acyclic; this is for safety)
	r := e.downEval(n, v)
	e.downMemo[k] = r
	return r
}

func (e *evaluator) downEval(n storage.NodeRef, v pattern.VertexID) bool {
	return e.test(n, v) && e.edgesHold(n, v, -1)
}

// edgesHold reports whether every edge of v, except the one to vertex
// skip, has a witness at the edge's relation below n.
func (e *evaluator) edgesHold(n storage.NodeRef, v, skip pattern.VertexID) bool {
	for _, edge := range e.g.Children[v] {
		if edge.To == skip {
			continue
		}
		found := false
		if edge.Rel == pattern.RelChild {
			for c := e.st.FirstChild(n); c != storage.NilRef; c = e.st.NextSibling(c) {
				if e.down(c, edge.To) {
					found = true
					break
				}
			}
		} else {
			end := n + storage.NodeRef(e.st.SubtreeSize(n))
			for d := n + 1; d < end; d++ {
				if e.down(d, edge.To) {
					found = true
					break
				}
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// bind reports whether v can be bound at n in some full pattern match.
func (e *evaluator) bind(n storage.NodeRef, v pattern.VertexID) bool {
	k := key{n, v}
	if r, ok := e.bindMemo[k]; ok {
		return r
	}
	e.bindMemo[k] = false
	r := e.down(n, v) && e.up(n, v)
	e.bindMemo[k] = r
	return r
}

// up reports whether v's pattern parent can be bound at the appropriate
// ancestor of n. Callers have established down(n, v).
func (e *evaluator) up(n storage.NodeRef, v pattern.VertexID) bool {
	if v == 0 {
		return true
	}
	p, rel := e.g.Parent(v)
	if rel == pattern.RelChild {
		a := e.st.Parent(n)
		return a != storage.NilRef && e.bindVia(a, p, v)
	}
	for a := e.st.Parent(n); a != storage.NilRef; a = e.st.Parent(a) {
		if e.bindVia(a, p, v) {
			return true
		}
	}
	return false
}

// bindVia is bind(a, p) for an a reached upward from a node n with
// down(n, via) already established, where via is p's child vertex and n
// sits at the edge's relation to a. That edge is therefore witnessed, and
// only p's test, its other edges and up(a, p) remain to check; the
// verdict is bind's, so it shares bind's memo. Skipping the witnessed
// edge is what keeps a region-restricted re-match local: re-checking a
// descendant edge from the document root would scan the document up to
// its first witness.
func (e *evaluator) bindVia(a storage.NodeRef, p, via pattern.VertexID) bool {
	k := key{a, p}
	if r, ok := e.bindMemo[k]; ok {
		return r
	}
	r := e.test(a, p) && e.edgesHold(a, p, via) && e.up(a, p)
	e.bindMemo[k] = r
	return r
}
