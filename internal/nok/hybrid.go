package nok

import (
	"sort"

	"xqp/internal/join"
	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/tally"
	"xqp/internal/vocab"
)

// MatchHybrid implements the paper's Section 4.2 evaluation strategy for
// general path expressions: partition the pattern graph into NoK
// fragments (maximal parent-child components), evaluate each fragment
// navigationally over tag-index candidates, and join the fragment results
// on their ancestor-descendant relationships with structural joins.
//
// Fragments are processed bottom-up so that each fragment's root bindings
// already account for the existence of its descendant-linked fragments;
// a final top-down pass filters the chain of fragments leading to the
// output vertex.
func MatchHybrid(st *storage.Store, g *pattern.Graph, contexts []storage.NodeRef) ([]storage.NodeRef, error) {
	return MatchHybridCounted(st, g, contexts, nil, nil)
}

// MatchHybridCounted is MatchHybrid with a cancellation poll (see
// MatchOutputCounted), reporting actual work into c (when non-nil):
// nodes visited by fragment navigation, stream elements fed into the
// glue structural joins, and the intermediate solutions those joins
// produce.
func MatchHybridCounted(st *storage.Store, g *pattern.Graph, contexts []storage.NodeRef, interrupt func() error, c *tally.Counters) (refs []storage.NodeRef, err error) {
	m, err := newMatcher(st, g)
	if err != nil {
		return nil, err
	}
	m.interrupt = interrupt
	if c != nil {
		defer func() { c.NodesVisited += m.visits }()
	}
	defer catchInterrupt(&err)
	for _, absent := range m.absent {
		if absent {
			return nil, nil
		}
	}
	p := g.Partition()
	h := &hybrid{m: m, p: p, validRoots: make([][]storage.NodeRef, len(p.Fragments))}
	// Fragment children always have larger indexes than their parent
	// (Partition builds depth-first), so reverse order is bottom-up.
	for fi := len(p.Fragments) - 1; fi >= 0; fi-- {
		cands := h.candidates(fi, contexts)
		b := h.evalFragment(fi, cands)
		h.validRoots[fi] = b[p.Fragments[fi].Root]
	}
	// Top-down: walk the fragment chain from the anchor fragment to the
	// fragment containing the output vertex, narrowing roots per hop.
	outFrag := p.FragmentOf[g.Output]
	chain := h.fragmentChain(outFrag)
	roots := h.validRoots[0]
	for i := 1; i < len(chain); i++ {
		prev, cur := chain[i-1], chain[i]
		linkFrom := h.linkSource(prev, cur)
		b := h.evalFragment(prev, roots)
		fromRefs := b[linkFrom]
		if c != nil {
			c.StreamElems += int64(len(fromRefs) + len(h.validRoots[cur]))
		}
		roots = intersectDescendants(st, fromRefs, h.validRoots[cur])
		if c != nil {
			c.Solutions += int64(len(roots))
		}
	}
	final := h.evalFragment(chain[len(chain)-1], roots)
	return final[g.Output], nil
}

type hybrid struct {
	m          *matcher
	p          *pattern.Partition
	validRoots [][]storage.NodeRef
}

// candidates returns the root candidates of a fragment: the given
// contexts for the anchor fragment, else the tag-index posting list of
// the fragment root's tag (or a kind scan for wildcard/kind tests).
func (h *hybrid) candidates(fi int, contexts []storage.NodeRef) []storage.NodeRef {
	if fi == 0 {
		return contexts
	}
	root := h.p.Fragments[fi].Root
	if sym := h.m.tagSym[root]; sym != vocab.None {
		return h.m.st.TagRefs(sym)
	}
	// Wildcard or kind test: scan.
	var out []storage.NodeRef
	st := h.m.st
	for i := 0; i < st.NodeCount(); i++ {
		h.m.pollAux()
		n := storage.NodeRef(i)
		if pattern.MatchesVertex(st, n, &h.m.g.Vertices[root]) {
			out = append(out, n)
		}
	}
	return out
}

// linkSource returns the vertex in fragment prev whose descendant link
// targets fragment cur.
func (h *hybrid) linkSource(prev, cur int) pattern.VertexID {
	for _, l := range h.p.Links[prev] {
		if l.ToFragment == cur {
			return l.From
		}
	}
	panic("nok: fragments not linked")
}

// fragmentChain returns the fragment indexes from 0 to target following
// partition links.
func (h *hybrid) fragmentChain(target int) []int {
	parent := make([]int, len(h.p.Fragments))
	for i := range parent {
		parent[i] = -1
	}
	for fi, links := range h.p.Links {
		for _, l := range links {
			parent[l.ToFragment] = fi
		}
	}
	var chain []int
	for f := target; f >= 0; f = parent[f] {
		chain = append([]int{f}, chain...)
	}
	return chain
}

// evalFragment evaluates the child-only sub-pattern of fragment fi over
// the candidate roots, returning bindings per fragment vertex. Vertices
// with descendant links additionally require a valid linked-fragment root
// below them (checked against validRoots, which bottom-up ordering has
// already populated).
func (h *hybrid) evalFragment(fi int, cands []storage.NodeRef) Bindings {
	frag := h.p.Fragments[fi]
	m := h.m
	st := m.st
	acc := make([][]storage.NodeRef, m.g.VertexCount())
	// linkOK checks the descendant-link constraints of a vertex.
	linkOK := func(v pattern.VertexID, n storage.NodeRef) bool {
		for _, l := range h.p.Links[fi] {
			if l.From != v {
				continue
			}
			targets := h.validRoots[l.ToFragment]
			end := n + storage.NodeRef(st.SubtreeSize(n))
			i := sort.Search(len(targets), func(i int) bool { return targets[i] > n })
			if i >= len(targets) || targets[i] >= end {
				return false
			}
		}
		return true
	}
	var rec func(n storage.NodeRef, v pattern.VertexID) bool
	rec = func(n storage.NodeRef, v pattern.VertexID) bool {
		m.poll()
		if !m.test(n, int(v)) || !linkOK(v, n) {
			return false
		}
		ok := true
		for _, e := range m.g.Children[v] {
			if e.Rel != pattern.RelChild {
				continue // descendant edges are fragment links
			}
			found := false
			for c := st.FirstChild(n); c != storage.NilRef; c = st.NextSibling(c) {
				if rec(c, e.To) {
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
		m.rollback(acc, v, n)
		return false
	}
	// For the anchor fragment the candidate is the context node itself;
	// vertex 0 carries a node() test, so rec handles both cases
	// uniformly.
	for _, c := range cands {
		rec(c, frag.Root)
	}
	out := Bindings{}
	for v, refs := range acc {
		if refs == nil {
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

// intersectDescendants returns the members of targets that are proper
// descendants of some node in ancs, in document order.
func intersectDescendants(st *storage.Store, ancs, targets []storage.NodeRef) []storage.NodeRef {
	if len(ancs) == 0 || len(targets) == 0 {
		return nil
	}
	aStream := join.ContextStream(st, ancs)
	dStream := join.ContextStream(st, targets)
	out := join.StackTreeDescendants(aStream, dStream, pattern.RelDescendant)
	refs := make([]storage.NodeRef, len(out))
	for i, e := range out {
		refs[i] = e.Ref
	}
	return refs
}
