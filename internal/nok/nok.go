// Package nok implements the navigational tree-pattern matcher of the
// paper's Section 4: the physical τ (tree pattern matching) operator.
//
// A pattern graph is evaluated against the succinct store in two linear
// passes over the relevant subtrees — no structural joins:
//
//  1. an upward pass (post-order) computes, for every document node, the
//     set S(n) of pattern vertices whose *downward* sub-pattern matches at
//     n: the node passes the vertex's test and every pattern child is
//     satisfied in some document child (parent-child edges) or some
//     proper descendant (ancestor-descendant edges);
//  2. a downward pass (pre-order) intersects S with *upward* consistency:
//     a vertex binds at n only if its pattern parent binds at the right
//     ancestor. The pass prunes entire subtrees as soon as no vertex can
//     bind below.
//
// Next-of-kin (NoK) fragments — sub-patterns with only parent-child
// edges — are the case where pass 1 needs only a window of one
// parent-child hop of state, which is why the paper's storage scheme
// clusters by that relationship; fragments glue to the rest of the
// pattern through the descendant-edge machinery above.
//
// Vertex sets are bitmasks, so patterns are limited to 64 vertices
// (far above any realistic query; ErrTooLarge reports violations).
package nok

import (
	"errors"
	"sort"

	"xqp/internal/ast"
	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/tally"
	"xqp/internal/value"
	"xqp/internal/vocab"
	"xqp/internal/xmldoc"
)

// ErrTooLarge reports a pattern with more than 64 vertices.
var ErrTooLarge = errors.New("nok: pattern graph exceeds 64 vertices")

// Bindings maps pattern vertices to their matching document nodes, in
// document order.
type Bindings map[pattern.VertexID][]storage.NodeRef

// Match evaluates the pattern graph navigationally and returns the
// bindings of every pattern vertex. For rooted patterns pass the store
// root as the only context; for relative patterns pass the context nodes.
func Match(st *storage.Store, g *pattern.Graph, contexts []storage.NodeRef) (Bindings, error) {
	m, err := newMatcher(st, g)
	if err != nil {
		return nil, err
	}
	return m.run(contexts, nil), nil
}

// MatchOutput evaluates the pattern and returns only the output vertex's
// matches in document order — the common case for path expressions.
func MatchOutput(st *storage.Store, g *pattern.Graph, contexts []storage.NodeRef) ([]storage.NodeRef, error) {
	return MatchOutputCounted(st, g, contexts, nil, nil)
}

// MatchOutputCounted is MatchOutput with a cancellation poll, reporting
// the actual work into c (when non-nil): interrupt (when non-nil) is
// consulted every pollEvery node visits, and its first non-nil error
// aborts the scan mid-pass and is returned; every document node visited
// by the matcher's passes counts toward c.NodesVisited.
func MatchOutputCounted(st *storage.Store, g *pattern.Graph, contexts []storage.NodeRef, interrupt func() error, c *tally.Counters) (refs []storage.NodeRef, err error) {
	m, err := newMatcher(st, g)
	if err != nil {
		return nil, err
	}
	m.interrupt = interrupt
	if c != nil {
		defer func() { c.NodesVisited += m.visits }()
	}
	defer catchInterrupt(&err)
	want := []pattern.VertexID{g.Output}
	b := m.run(contexts, want)
	return b[g.Output], nil
}

// pollEvery is the number of node visits between interrupt polls: large
// enough to stay off the profile, small enough that a deadline stops a
// scan within microseconds.
const pollEvery = 256

// interruptPanic carries an interrupt error out of the matcher's
// recursions; catchInterrupt converts it back to an error return at the
// package boundary.
type interruptPanic struct{ err error }

func catchInterrupt(err *error) {
	if r := recover(); r != nil {
		ip, ok := r.(interruptPanic)
		if !ok {
			panic(r)
		}
		*err = ip.err
	}
}

// poll counts one node visit and checks the interrupt every pollEvery
// visits, aborting the matcher by panicking (recovered in the public
// entry points). The visit count doubles as the NodesVisited actual for
// execution traces.
func (m *matcher) poll() {
	m.visits++
	if m.interrupt == nil {
		return
	}
	if m.visits%pollEvery != 0 {
		return
	}
	if err := m.interrupt(); err != nil {
		panic(interruptPanic{err})
	}
}

// pollAux checks the interrupt from bookkeeping loops (the hybrid
// matcher's candidate gathering) on a separate cadence counter:
// that work is not pattern matching, so it must not inflate the
// NodesVisited actual that traces compare against serial runs.
func (m *matcher) pollAux() {
	if m.interrupt == nil {
		return
	}
	m.aux++
	if m.aux%pollEvery != 0 {
		return
	}
	if err := m.interrupt(); err != nil {
		panic(interruptPanic{err})
	}
}

// MatchNested evaluates the pattern and nests the output matches by their
// structural relationships, producing the NestedList that the logical τ
// operator returns (immediately-nested iff immediate ancestor-descendant
// among the matches).
func MatchNested(st *storage.Store, g *pattern.Graph, contexts []storage.NodeRef) (value.NestedList, error) {
	refs, err := MatchOutput(st, g, contexts)
	if err != nil {
		return value.NestedList{}, err
	}
	return NestRefs(st, refs), nil
}

// NestRefs nests document-ordered node refs by ancestorship.
func NestRefs(st *storage.Store, refs []storage.NodeRef) value.NestedList {
	var list value.NestedList
	type frame struct {
		n   *value.Nested
		end storage.NodeRef // exclusive subtree end
	}
	var stack []frame
	for _, r := range refs {
		nd := value.NewLeaf(value.Node{Store: st, Ref: r})
		for len(stack) > 0 && r >= stack[len(stack)-1].end {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			list.Roots = append(list.Roots, nd)
		} else {
			stack[len(stack)-1].n.Append(nd)
		}
		stack = append(stack, frame{n: nd, end: r + storage.NodeRef(st.SubtreeSize(r))})
	}
	return list
}

type matcher struct {
	st *storage.Store
	g  *pattern.Graph
	// Per vertex: bitmask of pattern children via child edges and via
	// descendant edges.
	childMask []uint64
	descMask  []uint64
	// tagSym caches the vocabulary symbol per vertex (None if the name
	// does not occur in the document: the vertex can never match).
	tagSym []vocab.Symbol
	absent []bool
	// smask holds S(n) for refs in the context window [base, base+len):
	// allocating only the window keeps τ cheap when the anchor is a
	// small subtree (e.g. a per-binding relative pattern).
	smask []uint64
	base  storage.NodeRef
	// interrupt (optional) aborts long scans; visits counts node visits
	// (poll cadence and the traces' NodesVisited actual).
	interrupt func() error
	visits    int64
	// aux is the pollAux cadence counter; kept separate from visits so
	// bookkeeping polls do not distort the NodesVisited tally.
	aux int64
	// floor holds per-vertex low-water marks into the top-down
	// accumulator: rollback never truncates below them. runTopDown sets
	// the marks at each context's start so a failing context cannot
	// erase bindings recorded by an earlier, overlapping context (nested
	// contexts interleave their recordings in the shared accumulator).
	floor []int
}

func (m *matcher) s(n storage.NodeRef) uint64       { return m.smask[n-m.base] }
func (m *matcher) setS(n storage.NodeRef, v uint64) { m.smask[n-m.base] = v }

func newMatcher(st *storage.Store, g *pattern.Graph) (*matcher, error) {
	n := g.VertexCount()
	if n > 64 {
		return nil, ErrTooLarge
	}
	m := &matcher{
		st:        st,
		g:         g,
		childMask: make([]uint64, n),
		descMask:  make([]uint64, n),
		tagSym:    make([]vocab.Symbol, n),
		absent:    make([]bool, n),
	}
	for v := 0; v < n; v++ {
		for _, e := range g.Children[v] {
			if e.Rel == pattern.RelChild {
				m.childMask[v] |= 1 << uint(e.To)
			} else {
				m.descMask[v] |= 1 << uint(e.To)
			}
		}
		vx := g.Vertices[v]
		if vx.Test.Kind == ast.TestName && vx.Test.Name != "*" {
			name := vx.Test.Name
			if vx.Attribute {
				name = "@" + name
			}
			m.tagSym[v] = st.Vocab.Lookup(name)
			m.absent[v] = m.tagSym[v] == vocab.None
		} else {
			m.tagSym[v] = vocab.None
		}
	}
	return m, nil
}

// test reports whether node n passes vertex v's node test and value
// predicates, comparing interned tag symbols on the fast path.
func (m *matcher) test(n storage.NodeRef, v int) bool {
	vx := &m.g.Vertices[v]
	if m.tagSym[v] == vocab.None {
		return pattern.MatchesVertex(m.st, n, vx)
	}
	if m.st.Tag(n) != m.tagSym[v] {
		return false
	}
	kind := m.st.Kind(n)
	if vx.Attribute {
		if kind != xmldoc.KindAttribute {
			return false
		}
	} else if kind != xmldoc.KindElement {
		return false
	}
	for _, p := range vx.Preds {
		if !p.Matches(m.st.StringValue(n)) {
			return false
		}
	}
	return true
}

// computeS runs the upward pass on the subtree of n. It returns S(n) and
// the union of S over n's proper descendants.
func (m *matcher) computeS(n storage.NodeRef) (s, below uint64) {
	m.poll()
	var cover, deep uint64
	for c := m.st.FirstChild(n); c != storage.NilRef; c = m.st.NextSibling(c) {
		cs, cb := m.computeS(c)
		cover |= cs
		deep |= cs | cb
	}
	s = m.vertexSet(n, cover, deep)
	m.setS(n, s)
	return s, deep
}

// vertexSet computes S(n) from the child cover and proper-descendant
// union: the per-node test step of the upward pass.
func (m *matcher) vertexSet(n storage.NodeRef, cover, deep uint64) (s uint64) {
	for v := range m.g.Vertices {
		if m.absent[v] {
			continue
		}
		need := m.childMask[v]
		if need&cover != need {
			continue
		}
		needD := m.descMask[v]
		if needD&deep != needD {
			continue
		}
		if m.test(n, v) {
			s |= 1 << uint(v)
		}
	}
	return s
}

// anchorS computes S for the subtree of a context node and reports
// whether the anchor (vertex 0) matches there. Vertex 0 always carries a
// node() test, so its S bit holds exactly when the downward constraints
// are satisfied at the context.
func (m *matcher) anchorS(n storage.NodeRef) bool {
	s, _ := m.computeS(n)
	return s&1 != 0
}

// childOnly reports whether the pattern has no descendant edges (a single
// NoK fragment): such patterns evaluate top-down, touching only the
// document paths that match, without the global S pass.
func (m *matcher) childOnly() bool {
	for _, dm := range m.descMask {
		if dm != 0 {
			return false
		}
	}
	return true
}

// runTopDown evaluates a child-only pattern by navigation from the
// context nodes: the single-scan NoK fragment evaluation of Section 4.2.
// Bindings are recorded tentatively and rolled back when a sibling
// constraint of an ancestor fails.
func (m *matcher) runTopDown(contexts []storage.NodeRef, acc [][]storage.NodeRef) {
	for _, absent := range m.absent {
		if absent {
			// Some vertex's tag does not occur in this document: the
			// pattern cannot match anywhere.
			return
		}
	}
	if m.floor == nil {
		m.floor = make([]int, m.g.VertexCount())
	}
	for _, ctx := range contexts {
		// Mark the accumulator's high water before this context: a
		// failing constraint rolls back only this context's recordings,
		// never an earlier context's (their subtrees may overlap).
		for v := range m.floor {
			m.floor[v] = len(acc[v])
		}
		// The anchor matches the context node itself; check its pattern
		// children below the context.
		ok := true
		for _, e := range m.g.Children[0] {
			found := false
			for c := m.st.FirstChild(ctx); c != storage.NilRef; c = m.st.NextSibling(c) {
				if m.topDown(c, e.To, acc) {
					found = true
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if ok {
			acc[0] = append(acc[0], ctx)
		} else {
			m.rollback(acc, 0, ctx)
		}
	}
}

// topDown evaluates the child-only pattern's vertex v at node n,
// recording tentative bindings into acc and rolling back the subtree's
// recordings when an ancestor constraint fails. It is the recursive
// step of runTopDown, factored as a method so the parallel matcher can
// evaluate disjoint chunks of a context's children independently.
func (m *matcher) topDown(n storage.NodeRef, v pattern.VertexID, acc [][]storage.NodeRef) bool {
	m.poll()
	if !m.test(n, int(v)) {
		return false
	}
	kids := m.g.Children[v]
	ok := true
	for _, e := range kids {
		found := false
		for c := m.st.FirstChild(n); c != storage.NilRef; c = m.st.NextSibling(c) {
			if m.topDown(c, e.To, acc) {
				found = true
			}
		}
		if !found {
			ok = false
			break
		}
	}
	if ok {
		acc[v] = append(acc[v], n)
		return true
	}
	// Roll back any bindings recorded below this failed node.
	m.rollback(acc, v, n)
	return false
}

// rollback removes bindings of v's pattern descendants that lie inside
// n's subtree (they were recorded before an ancestor constraint failed).
// It stops at the current context's floor: bindings recorded by earlier
// contexts survive even when they fall inside n's subtree.
func (m *matcher) rollback(acc [][]storage.NodeRef, v pattern.VertexID, n storage.NodeRef) {
	end := n + storage.NodeRef(m.st.SubtreeSize(n))
	var clear func(v pattern.VertexID)
	clear = func(v pattern.VertexID) {
		refs := acc[v]
		fl := 0
		if m.floor != nil {
			fl = m.floor[int(v)]
		}
		for len(refs) > fl && refs[len(refs)-1] >= n && refs[len(refs)-1] < end {
			refs = refs[:len(refs)-1]
		}
		acc[v] = refs
		for _, e := range m.g.Children[v] {
			clear(e.To)
		}
	}
	for _, e := range m.g.Children[v] {
		clear(e.To)
	}
}

// run evaluates the pattern for the given context nodes. If want is nil,
// bindings for all vertices are returned; otherwise only the listed ones.
func (m *matcher) run(contexts []storage.NodeRef, want []pattern.VertexID) Bindings {
	wantMask := uint64(0)
	if want == nil {
		wantMask = ^uint64(0)
	} else {
		for _, v := range want {
			wantMask |= 1 << uint(v)
		}
	}
	// Each context pass visits a node at most once, so duplicates can
	// only arise across overlapping contexts; collect into flat slices
	// and sort+dedup at the end instead of paying per-node map costs.
	acc := make([][]storage.NodeRef, m.g.VertexCount())
	if m.childOnly() {
		// Single NoK fragment: top-down navigation over matching paths
		// only, no global passes.
		m.runTopDown(contexts, acc)
		return m.finish(acc, wantMask)
	}
	// Size the S window to the context subtrees.
	m.sizeWindow(contexts)
	for _, ctx := range contexts {
		if !m.anchorS(ctx) {
			continue
		}
		if wantMask&1 != 0 {
			acc[0] = append(acc[0], ctx) // the anchor binds at the context node itself
		}
		for c := m.st.FirstChild(ctx); c != storage.NilRef; c = m.st.NextSibling(c) {
			m.down(c, m.childMask[0], m.descMask[0], wantMask, acc)
		}
	}
	return m.finish(acc, wantMask)
}

// sizeWindow allocates the S window covering the context subtrees.
func (m *matcher) sizeWindow(contexts []storage.NodeRef) {
	if len(contexts) == 0 {
		return
	}
	lo, hi := contexts[0], contexts[0]
	for _, c := range contexts {
		if c < lo {
			lo = c
		}
		if end := c + storage.NodeRef(m.st.SubtreeSize(c)); end > hi {
			hi = end
		}
	}
	m.base = lo
	m.smask = make([]uint64, hi-lo)
}

// down is the downward pre-order pass of run.
func (m *matcher) down(n storage.NodeRef, allowedChild, allowedDesc, wantMask uint64, acc [][]storage.NodeRef) {
	m.poll()
	bound := m.s(n) & (allowedChild | allowedDesc)
	if bound&wantMask != 0 {
		for v := 0; v < m.g.VertexCount(); v++ {
			if bound&wantMask&(1<<uint(v)) != 0 {
				acc[v] = append(acc[v], n)
			}
		}
	}
	var nextChild uint64
	nextDesc := allowedDesc
	for v := 0; v < m.g.VertexCount(); v++ {
		if bound&(1<<uint(v)) != 0 {
			nextChild |= m.childMask[v]
			nextDesc |= m.descMask[v]
		}
	}
	if nextChild == 0 && nextDesc == 0 {
		return
	}
	for c := m.st.FirstChild(n); c != storage.NilRef; c = m.st.NextSibling(c) {
		m.down(c, nextChild, nextDesc, wantMask, acc)
	}
}

// finish sorts and dedups the per-vertex bindings (contexts may overlap
// or arrive unsorted) and filters to the wanted vertices.
func (m *matcher) finish(acc [][]storage.NodeRef, wantMask uint64) Bindings {
	out := Bindings{}
	for v, refs := range acc {
		if refs == nil || wantMask&(1<<uint(v)) == 0 {
			continue
		}
		if !sortedUnique(refs) {
			sortRefs(refs)
			refs = dedupRefs(refs)
		}
		out[pattern.VertexID(v)] = refs
	}
	return out
}

func sortedUnique(refs []storage.NodeRef) bool {
	for i := 1; i < len(refs); i++ {
		if refs[i-1] >= refs[i] {
			return false
		}
	}
	return true
}

func dedupRefs(refs []storage.NodeRef) []storage.NodeRef {
	out := refs[:0]
	for i, r := range refs {
		if i == 0 || r != refs[i-1] {
			out = append(out, r)
		}
	}
	return out
}

func sortRefs(refs []storage.NodeRef) {
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
}
