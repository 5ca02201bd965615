package stats

import (
	"slices"

	"xqp/internal/storage"
	"xqp/internal/vocab"
	"xqp/internal/xmldoc"
)

// Edit returns the synopsis of after, where s summarizes before and after
// is before with the one edit us describes (a Store.InsertChild or
// Store.DeleteSubtree). An edit whose nodes all fall on label paths s
// already has, and that empties none of them, copies only the count and
// tag-count arrays and shares the rest with s; one that adds or prunes a
// label path re-emits the rows, in time linear in their number. s is
// never modified, so older snapshots stay valid. The result equals
// Build(after).
func (s *Synopsis) Edit(before, after *storage.Store, us storage.UpdateStats) *Synopsis {
	out := &Synopsis{
		sym:       s.sym,
		class:     s.class,
		end:       s.end,
		count:     slices.Clone(s.count),
		tagCount:  make([]int64, max(after.Vocab.Len(), len(s.tagCount))),
		nodeCount: s.nodeCount,
		elemCount: s.elemCount,
		maxDepth:  s.maxDepth,
	}
	copy(out.tagCount, s.tagCount)

	st, delta, count := after, int64(1), us.NodesInserted
	if us.NodesDeleted > 0 {
		st, delta, count = before, -1, us.NodesDeleted
	}
	// The parent and its ancestors precede the edit point, so they have
	// the same refs and tags in both stores; their label path is a row.
	var path []vocab.Symbol
	for a := us.Parent; a > 0; a = st.Parent(a) {
		path = append(path, st.Tag(a))
	}
	parent := int32(0)
	for i := len(path) - 1; i >= 0; i-- {
		parent = s.childRow(parent, path[i])
	}
	// The edited nodes are one subtree (delete) or a run of sibling
	// subtrees under the parent (insert). rows is false once one of them
	// lies on a label path s lacks.
	rows, pruned := true, false
	stack := []int32{parent}
	edited(st, us.EditPoint, count, func(n storage.NodeRef, depth int) {
		sym := st.Tag(n)
		out.tagCount[sym] += delta
		out.nodeCount += delta
		if st.Kind(n) == xmldoc.KindElement {
			out.elemCount += delta
		}
		if !rows {
			return
		}
		c := s.childRow(stack[depth], sym)
		if c < 0 {
			rows = false
			return
		}
		out.count[c] += delta
		pruned = pruned || out.count[c] == 0
		stack = append(stack[:depth+1], c)
	})
	switch {
	case !rows:
		// Only an insert brings new label paths: replay its nodes into
		// a tree of s's rows, which are its first nodes.
		t := s.pathTree()
		stack = append(stack[:0], parent)
		edited(st, us.EditPoint, count, func(n storage.NodeRef, depth int) {
			c := t.child(stack[depth], st.Tag(n))
			t.count[c]++
			stack = append(stack[:depth+1], c)
		})
		t.emit(after.Vocab, out)
	case pruned:
		out.pathTree().emit(after.Vocab, out)
	}
	return out
}

// edited calls f for each of the count nodes from first on, a run of
// whole sibling subtrees in st, with its depth in its subtree (0 for the
// subtree's root).
func edited(st *storage.Store, first storage.NodeRef, count int, f func(storage.NodeRef, int)) {
	end := first + storage.NodeRef(count)
	for r := first; r < end; r += storage.NodeRef(st.SubtreeSize(r)) {
		st.Scan(r, func(n storage.NodeRef, depth int) bool {
			f(n, depth)
			return true
		})
	}
}

// pathTree is a label-path tree under construction, in the order its
// paths were met; emit turns it into synopsis rows. Node 0 is the root.
type pathTree struct {
	parent []int32
	sym    []vocab.Symbol
	count  []int64
	// base, when the tree was made from a synopsis, holds its rows as
	// nodes 0 to base.rows()-1; their children are found in base.
	base *Synopsis
	// last is the child that child returned last for each node: runs of
	// siblings with one tag are the common case.
	last []int32
	// added holds the children of nodes that base does not list.
	added map[pathKey]int32
}

type pathKey struct {
	parent int32
	sym    vocab.Symbol
}

func newPathTree() *pathTree {
	t := &pathTree{added: map[pathKey]int32{}}
	t.add(-1, vocab.Root, 1)
	return t
}

// pathTree returns s's rows as a tree with s's counts.
func (s *Synopsis) pathTree() *pathTree {
	n := s.rows()
	t := &pathTree{
		parent: make([]int32, n),
		sym:    slices.Clone(s.sym),
		count:  slices.Clone(s.count),
		base:   s,
		last:   make([]int32, n),
		added:  map[pathKey]int32{},
	}
	open := []int32{-1}
	for i := int32(0); i < n; i++ {
		for len(open) > 1 && s.end[open[len(open)-1]] <= i {
			open = open[:len(open)-1]
		}
		t.parent[i], t.last[i] = open[len(open)-1], -1
		open = append(open, i)
	}
	return t
}

func (t *pathTree) add(parent int32, sym vocab.Symbol, count int64) int32 {
	id := int32(len(t.sym))
	t.parent = append(t.parent, parent)
	t.sym = append(t.sym, sym)
	t.count = append(t.count, count)
	t.last = append(t.last, -1)
	return id
}

// child returns p's child with symbol sym, adding it if it is new.
func (t *pathTree) child(p int32, sym vocab.Symbol) int32 {
	if l := t.last[p]; l >= 0 && t.sym[l] == sym {
		return l
	}
	c := int32(-1)
	if t.base != nil && p < t.base.rows() {
		c = t.base.childRow(p, sym)
	}
	if c < 0 {
		k := pathKey{p, sym}
		var ok bool
		if c, ok = t.added[k]; !ok {
			c = t.add(p, sym, 0)
			t.added[k] = c
		}
	}
	t.last[p] = c
	return c
}

// emit writes the tree's label paths with a non-zero count into s's rows
// and sets s.maxDepth: pre-order, children in symbol order. Names are
// classified through v.
func (t *pathTree) emit(v *vocab.Table, s *Synopsis) {
	n := len(t.sym)
	// Children per node, counting-sorted by parent, then by symbol.
	first := make([]int32, n+1)
	for c := 1; c < n; c++ {
		if t.count[c] > 0 {
			first[t.parent[c]+1]++
		}
	}
	for i := 0; i < n; i++ {
		first[i+1] += first[i]
	}
	kids := make([]int32, first[n])
	fill := slices.Clone(first[:n])
	for c := 1; c < n; c++ {
		if t.count[c] > 0 {
			p := t.parent[c]
			kids[fill[p]] = int32(c)
			fill[p]++
		}
	}
	for p := 0; p < n; p++ {
		if ks := kids[first[p]:first[p+1]]; len(ks) > 1 {
			slices.SortFunc(ks, func(a, b int32) int { return int(t.sym[a]) - int(t.sym[b]) })
		}
	}

	rows := len(kids) + 1
	s.sym = make([]vocab.Symbol, 0, rows)
	s.class = make([]class, 0, rows)
	s.end = make([]int32, rows)
	s.count = make([]int64, 0, rows)
	s.maxDepth = 0
	type frame struct{ node, row, next int32 }
	stack := []frame{{0, 0, first[0]}}
	s.emitRow(v, t.sym[0], t.count[0])
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next == first[f.node+1] {
			s.end[f.row] = int32(len(s.sym))
			stack = stack[:len(stack)-1]
			continue
		}
		k := kids[f.next]
		f.next++
		row := s.emitRow(v, t.sym[k], t.count[k])
		s.maxDepth = max(s.maxDepth, len(stack))
		stack = append(stack, frame{k, row, first[k]})
	}
}

func (s *Synopsis) emitRow(v *vocab.Table, sym vocab.Symbol, count int64) int32 {
	s.sym = append(s.sym, sym)
	s.class = append(s.class, classOf(sym, v.Name(sym)))
	s.count = append(s.count, count)
	return int32(len(s.sym) - 1)
}
