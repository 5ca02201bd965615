// Package stats builds a path synopsis (a DataGuide-style summary) of a
// stored document and estimates pattern-match cardinalities from it. The
// cost model (package cost) uses these estimates to choose between the
// navigational and join-based physical plans — the chooser the paper's
// Section 2 calls for.
//
// # Concurrency
//
// A Synopsis is immutable after Build returns: estimation walks
// (EstimatePattern, Matchable, PathCount, ...) only read the summary
// tree, so one synopsis may serve concurrent queries without locking.
// When a document is updated the synopsis is derived alongside the new
// store under the owner's exclusive lock (internal/engine does this
// during its generation bump): Edit follows one tracked edit, copying
// only the summary nodes it changes, and Build rebuilds from scratch.
package stats

import (
	"fmt"
	"maps"
	"strings"

	"xqp/internal/ast"
	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/vocab"
	"xqp/internal/xmldoc"
)

// predSelectivity is the default selectivity assumed for each value
// predicate on a pattern vertex.
const predSelectivity = 0.33

// Synopsis summarizes the distinct root-to-node label paths of a document
// with their occurrence counts.
type Synopsis struct {
	root      *node
	tagCount  map[vocab.Symbol]int64
	nodeCount int64
	elemCount int64
	maxDepth  int
}

type node struct {
	sym      vocab.Symbol
	count    int64
	children map[vocab.Symbol]*node
}

func newNode(sym vocab.Symbol) *node {
	return &node{sym: sym, children: map[vocab.Symbol]*node{}}
}

// Build scans the store once and constructs its synopsis.
func Build(st *storage.Store) *Synopsis {
	s := &Synopsis{root: newNode(vocab.Root), tagCount: map[vocab.Symbol]int64{}}
	s.root.count = 1
	stack := []*node{s.root}
	st.Scan(st.Root(), func(n storage.NodeRef, depth int) bool {
		if n == st.Root() {
			return true
		}
		if depth > s.maxDepth {
			s.maxDepth = depth
		}
		s.nodeCount++
		if st.Kind(n) == xmldoc.KindElement {
			s.elemCount++
		}
		sym := st.Tag(n)
		s.tagCount[sym]++
		stack = stack[:depth] // parent synopsis node is at depth-1
		parent := stack[depth-1]
		child, ok := parent.children[sym]
		if !ok {
			child = newNode(sym)
			parent.children[sym] = child
		}
		child.count++
		stack = append(stack, child)
		return true
	})
	return s
}

// Edit returns the synopsis of after, where s summarizes before and after
// is before with the one edit us describes (a Store.InsertChild or
// Store.DeleteSubtree). It copies the summary nodes on the root→parent
// label path and on the label paths of the inserted or deleted subtree,
// adjusts their counts and prunes entries that reach zero; every other
// node is shared, and s is never modified, so older snapshots stay valid.
// Its work is proportional to the edit, and its result equals
// Build(after).
func (s *Synopsis) Edit(before, after *storage.Store, us storage.UpdateStats) *Synopsis {
	out := &Synopsis{
		tagCount:  maps.Clone(s.tagCount),
		nodeCount: s.nodeCount,
		elemCount: s.elemCount,
		maxDepth:  s.maxDepth,
	}
	e := &synEdit{own: map[*node]bool{}}
	out.root = e.copy(s.root)

	st, delta, count := after, int64(1), us.NodesInserted
	if us.NodesDeleted > 0 {
		st, delta, count = before, -1, us.NodesDeleted
	}
	// The parent and its ancestors precede the edit point, so they have
	// the same refs and tags in both stores.
	var path []vocab.Symbol
	for a := us.Parent; a > 0; a = st.Parent(a) {
		path = append(path, st.Tag(a))
	}
	parent := out.root
	for i := len(path) - 1; i >= 0; i-- {
		parent = e.child(parent, path[i])
	}
	// The edited nodes are one subtree (delete) or a run of sibling
	// subtrees under the parent (insert).
	deepest := 0
	stack := []*node{parent}
	end := us.EditPoint + storage.NodeRef(count)
	for r := us.EditPoint; r < end; r += storage.NodeRef(st.SubtreeSize(r)) {
		st.Scan(r, func(n storage.NodeRef, depth int) bool {
			sym := st.Tag(n)
			c := e.child(stack[depth], sym)
			c.count += delta
			stack = append(stack[:depth+1], c)
			out.tagCount[sym] += delta
			if out.tagCount[sym] == 0 {
				delete(out.tagCount, sym)
			}
			out.nodeCount += delta
			if st.Kind(n) == xmldoc.KindElement {
				out.elemCount += delta
			}
			if d := len(path) + 1 + depth; d > deepest {
				deepest = d
			}
			return true
		})
	}
	if delta > 0 {
		if deepest > out.maxDepth {
			out.maxDepth = deepest
		}
		return out
	}
	// A zero count can only appear on a node the edit copied, under a
	// parent it copied too.
	for n := range e.own {
		for sym, c := range n.children {
			if c.count == 0 {
				delete(n.children, sym)
			}
		}
	}
	if deepest >= out.maxDepth {
		out.maxDepth = out.root.height()
	}
	return out
}

// synEdit tracks which summary nodes an Edit owns (has copied or
// created); only those may be modified.
type synEdit struct {
	own map[*node]bool
}

// copy returns a private copy of n sharing its children.
func (e *synEdit) copy(n *node) *node {
	c := &node{sym: n.sym, count: n.count, children: maps.Clone(n.children)}
	e.own[c] = true
	return c
}

// child returns p's owned child for sym, copying or creating it; p must
// be owned.
func (e *synEdit) child(p *node, sym vocab.Symbol) *node {
	c, ok := p.children[sym]
	switch {
	case !ok:
		c = newNode(sym)
		e.own[c] = true
	case !e.own[c]:
		c = e.copy(c)
	default:
		return c
	}
	p.children[sym] = c
	return c
}

// height is the depth of the deepest node below n (0 for a leaf).
func (n *node) height() int {
	h := 0
	for _, c := range n.children {
		if ch := c.height() + 1; ch > h {
			h = ch
		}
	}
	return h
}

// NodeCount reports the number of stored nodes excluding the root.
func (s *Synopsis) NodeCount() int64 { return s.nodeCount }

// ElementCount reports the number of element nodes.
func (s *Synopsis) ElementCount() int64 { return s.elemCount }

// MaxDepth reports the maximum node depth.
func (s *Synopsis) MaxDepth() int { return s.maxDepth }

// TagCount reports how many nodes carry the given tag symbol.
func (s *Synopsis) TagCount(sym vocab.Symbol) int64 { return s.tagCount[sym] }

// TagCountName reports how many nodes carry the given element name.
func (s *Synopsis) TagCountName(st *storage.Store, name string) int64 {
	sym := st.Vocab.Lookup(name)
	if sym == vocab.None {
		return 0
	}
	return s.tagCount[sym]
}

// PathCount reports the number of nodes reachable by the given
// root-to-leaf label path (child steps only), e.g. ["bib","book","title"].
func (s *Synopsis) PathCount(st *storage.Store, path []string) int64 {
	cur := []*node{s.root}
	for _, name := range path {
		sym := st.Vocab.Lookup(name)
		if sym == vocab.None {
			return 0
		}
		var next []*node
		for _, n := range cur {
			if c, ok := n.children[sym]; ok {
				next = append(next, c)
			}
		}
		if len(next) == 0 {
			return 0
		}
		cur = next
	}
	var total int64
	for _, n := range cur {
		total += n.count
	}
	return total
}

// EstimateVertexMatches estimates how many document nodes match a pattern
// vertex's node test (before structural constraints).
func (s *Synopsis) EstimateVertexMatches(st *storage.Store, v *pattern.Vertex) float64 {
	var base float64
	switch {
	case v.Attribute:
		if v.Test.Name == "*" {
			base = float64(s.nodeCount-s.elemCount) / 2
		} else {
			base = float64(s.TagCountName(st, "@"+v.Test.Name))
		}
	case v.Test.Kind == ast.TestName:
		if v.Test.Name == "*" {
			base = float64(s.elemCount)
		} else {
			base = float64(s.TagCountName(st, v.Test.Name))
		}
	case v.Test.Kind == ast.TestText:
		base = float64(s.TagCountName(st, "#text"))
	default:
		base = float64(s.nodeCount)
	}
	for range v.Preds {
		base *= predSelectivity
	}
	return base
}

// EstimatePattern estimates the number of matches of the pattern's output
// vertex by walking the synopsis against the pattern graph. Descendant
// edges search all synopsis depths; value predicates contribute the
// default selectivity.
func (s *Synopsis) EstimatePattern(st *storage.Store, g *pattern.Graph) float64 {
	// matches(synNode, vertex) = estimated count of (doc node, vertex)
	// embeddings at this synopsis node, considering the downward pattern.
	type key struct {
		n *node
		v pattern.VertexID
	}
	memo := map[key]float64{}
	var down func(n *node, v pattern.VertexID) float64
	down = func(n *node, v pattern.VertexID) float64 {
		k := key{n, v}
		if r, ok := memo[k]; ok {
			return r
		}
		memo[k] = 0
		vx := &g.Vertices[v]
		if !synMatches(st, n, vx) {
			return 0
		}
		frac := 1.0
		for range vx.Preds {
			frac *= predSelectivity
		}
		for _, e := range g.Children[v] {
			var sub float64
			if e.Rel == pattern.RelChild {
				for _, c := range n.children {
					sub += down(c, e.To)
				}
			} else {
				var rec func(m *node)
				rec = func(m *node) {
					for _, c := range m.children {
						sub += down(c, e.To)
						rec(c)
					}
				}
				rec(n)
			}
			// Probability that a given node has at least one matching
			// child: clamp the expected count.
			if sub <= 0 {
				memo[k] = 0
				return 0
			}
			p := sub / float64(maxI64(n.count, 1))
			if p > 1 {
				p = 1
			}
			frac *= p
		}
		r := float64(n.count) * frac
		memo[k] = r
		return r
	}
	// The output vertex estimate: product of downward fraction at output
	// and the upward path reaching it. A simple approximation: estimate
	// matches of the output vertex along every synopsis placement
	// consistent with the pattern's root path.
	var total float64
	chain := rootChain(g)
	var walkChain func(n *node, ci int)
	walkChain = func(n *node, ci int) {
		if ci == len(chain)-1 {
			total += down(n, chain[ci].v)
			return
		}
		cur := chain[ci]
		next := chain[ci+1]
		if !synMatches(st, n, &g.Vertices[cur.v]) {
			return
		}
		if next.rel == pattern.RelChild {
			for _, c := range n.children {
				walkChain(c, ci+1)
			}
		} else {
			var rec func(m *node)
			rec = func(m *node) {
				for _, c := range m.children {
					walkChain(c, ci+1)
					rec(c)
				}
			}
			rec(n)
		}
	}
	walkChain(s.root, 0)
	return total
}

// Matchable reports whether the pattern can match at least one node of
// the summarized document. Because the synopsis preserves every distinct
// root-to-node label path, a "no" answer for downward-only patterns is
// exact, not an estimate: the static analyzer uses it to prune provably
// empty plans. Rooted patterns anchor at the document root; relative
// patterns are tried at every synopsis node. Value predicates are ignored
// (they can only shrink the match set, never grow it, so ignoring them
// keeps "no" answers sound).
func (s *Synopsis) Matchable(st *storage.Store, g *pattern.Graph) bool {
	type key struct {
		n *node
		v pattern.VertexID
	}
	memo := map[key]bool{}
	var down func(n *node, v pattern.VertexID) bool
	down = func(n *node, v pattern.VertexID) bool {
		k := key{n, v}
		if r, ok := memo[k]; ok {
			return r
		}
		memo[k] = false
		vx := &g.Vertices[v]
		if !synMatches(st, n, vx) {
			return false
		}
		for _, e := range g.Children[v] {
			found := false
			if e.Rel == pattern.RelChild {
				for _, c := range n.children {
					if down(c, e.To) {
						found = true
						break
					}
				}
			} else {
				var rec func(m *node) bool
				rec = func(m *node) bool {
					for _, c := range m.children {
						if down(c, e.To) || rec(c) {
							return true
						}
					}
					return false
				}
				found = rec(n)
			}
			if !found {
				return false
			}
		}
		memo[k] = true
		return true
	}
	if g.Rooted {
		return down(s.root, 0)
	}
	var anywhere func(m *node) bool
	anywhere = func(m *node) bool {
		if down(m, 0) {
			return true
		}
		for _, c := range m.children {
			if anywhere(c) {
				return true
			}
		}
		return false
	}
	return anywhere(s.root)
}

type chainStep struct {
	v   pattern.VertexID
	rel pattern.Rel
}

// rootChain is the vertex path from the pattern root to the output.
func rootChain(g *pattern.Graph) []chainStep {
	var chain []chainStep
	for v := g.Output; v >= 0; {
		p, rel := g.Parent(v)
		chain = append([]chainStep{{v: v, rel: rel}}, chain...)
		v = p
	}
	return chain
}

func synMatches(st *storage.Store, n *node, vx *pattern.Vertex) bool {
	if vx.Test.Kind != ast.TestName {
		return true // kind tests estimated loosely
	}
	if n.sym == vocab.Root {
		return false
	}
	name := st.Vocab.Name(n.sym)
	if vx.Attribute {
		return strings.HasPrefix(name, "@") && (vx.Test.Name == "*" || name[1:] == vx.Test.Name)
	}
	if strings.HasPrefix(name, "@") || strings.HasPrefix(name, "#") || strings.HasPrefix(name, "?") {
		return false
	}
	return vx.Test.Name == "*" || name == vx.Test.Name
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// String summarizes the synopsis.
func (s *Synopsis) String() string {
	return fmt.Sprintf("Synopsis{nodes=%d, elements=%d, maxDepth=%d, tags=%d}",
		s.nodeCount, s.elemCount, s.maxDepth, len(s.tagCount))
}
