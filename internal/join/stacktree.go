package join

import (
	"cmp"
	"fmt"
	"slices"

	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/value"
)

// Pair is one structural-join result: an ancestor (or parent) and a
// descendant (or child).
type Pair struct {
	Anc, Desc Elem
}

// StackTree performs the Stack-Tree-Desc binary structural join of
// Al-Khalifa et al. (ICDE 2002): it returns all (a, d) pairs with a from
// ancs, d from descs, and d a descendant (rel == RelDescendant) or child
// (rel == RelChild) of a. Both inputs must be in document order; the
// output is ordered by descendant.
//
// The algorithm is a single merge pass with a stack of nested ancestors:
// time O(|ancs| + |descs| + |output|).
//
//xqvet:ignore ctxpoll in-memory merge of already-materialized streams; cancellation is polled while the input streams are built
func StackTree(ancs, descs Stream, rel pattern.Rel) []Pair {
	var out []Pair
	var stack []Elem
	a, d := NewCursor(ancs), NewCursor(descs)
	for !d.EOF() && (!a.EOF() || len(stack) > 0) {
		if !a.EOF() && a.Head().Start < d.Head().Start {
			next := a.Head()
			for len(stack) > 0 && stack[len(stack)-1].End < next.Start {
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, next)
			a.Advance()
			continue
		}
		dd := d.Head()
		for len(stack) > 0 && stack[len(stack)-1].End < dd.Start {
			stack = stack[:len(stack)-1]
		}
		for _, anc := range stack {
			if !anc.Contains(dd) {
				continue
			}
			if rel == pattern.RelChild && anc.Level+1 != dd.Level {
				continue
			}
			out = append(out, Pair{Anc: anc, Desc: dd})
		}
		d.Advance()
	}
	return out
}

// StackTreeDescendants returns the distinct descendants produced by the
// structural join, in document order (the common projection when chaining
// joins along a path).
func StackTreeDescendants(ancs, descs Stream, rel pattern.Rel) Stream {
	pairs := StackTree(ancs, descs, rel)
	out := make(Stream, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, p.Desc)
	}
	// Output is ordered by descendant already; dedup adjacent (one
	// descendant may pair with several stacked ancestors).
	return dedupSorted(out)
}

// StackTreeAncestors returns the distinct ancestors that have at least one
// descendant in descs, in document order (used for existence predicates).
func StackTreeAncestors(ancs, descs Stream, rel pattern.Rel) Stream {
	pairs := StackTree(ancs, descs, rel)
	seen := make(map[int32]bool, len(pairs))
	out := make(Stream, 0, len(pairs))
	for _, p := range pairs {
		if !seen[p.Anc.Start] {
			seen[p.Anc.Start] = true
			out = append(out, p.Anc)
		}
	}
	sortStream(out)
	return out
}

func sortStream(s Stream) {
	slices.SortFunc(s, func(a, b Elem) int { return cmp.Compare(a.Start, b.Start) })
}

// PathJoin evaluates a pure path pattern (no branching) by chaining binary
// structural joins bottom-up along the path — the paper's "join-based
// approach" strawman for path expressions. It returns the matches of the
// output vertex in document order.
func PathJoin(streams []Stream, rels []pattern.Rel) Stream {
	if len(streams) == 0 {
		return nil
	}
	cur := streams[0]
	for i := 1; i < len(streams); i++ {
		cur = StackTreeDescendants(cur, streams[i], rels[i-1])
	}
	return cur
}

// StructuralJoin is the algebra's ⋈s (Table 1) over node sequences: the
// nodes of descs that stand in relation rel to some node of ancs, in
// document order. Both lists must hold nodes of one store.
func StructuralJoin(ancs, descs value.Sequence, rel pattern.Rel) (value.Sequence, error) {
	return structuralJoin(ancs, descs, rel, StackTreeDescendants)
}

// StructuralSemiJoin returns the nodes of ancs that have at least one node
// of descs below them in relation rel (existence predicates).
func StructuralSemiJoin(ancs, descs value.Sequence, rel pattern.Rel) (value.Sequence, error) {
	return structuralJoin(ancs, descs, rel, StackTreeAncestors)
}

func structuralJoin(ancs, descs value.Sequence, rel pattern.Rel, project func(a, d Stream, rel pattern.Rel) Stream) (value.Sequence, error) {
	aStream, st, err := streamOf(ancs)
	if err != nil {
		return nil, err
	}
	dStream, st2, err := streamOf(descs)
	if err != nil {
		return nil, err
	}
	if st == nil || st2 == nil {
		return nil, nil
	}
	if st != st2 {
		return nil, &value.TypeError{Msg: "structural join across documents"}
	}
	out := project(aStream, dStream, rel)
	res := make(value.Sequence, len(out))
	for i, e := range out {
		res[i] = value.Node{Store: st, Ref: e.Ref}
	}
	return res, nil
}

func streamOf(list value.Sequence) (Stream, *storage.Store, error) {
	var st *storage.Store
	var refs []storage.NodeRef
	for _, it := range list {
		n, ok := it.(value.Node)
		if !ok {
			return nil, nil, &value.TypeError{Msg: fmt.Sprintf("structural join over %s item", value.ItemKind(it))}
		}
		if st == nil {
			st = n.Store
		} else if st != n.Store {
			return nil, nil, &value.TypeError{Msg: "structural join across documents"}
		}
		refs = append(refs, n.Ref)
	}
	if st == nil {
		return nil, nil, nil
	}
	return ContextStream(st, refs), st, nil
}
