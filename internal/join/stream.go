// Package join implements the join-based XML pattern matching baselines
// the paper compares against (Section 5): interval-encoded element
// streams, the binary Stack-Tree structural join of Al-Khalifa et al.
// (ICDE 2002), and the holistic PathStack/TwigStack algorithms of Bruno,
// Koudas and Srivastava (SIGMOD 2002).
//
// All algorithms consume Streams: document-ordered lists of elements
// carrying their interval encoding (start, end, level), as produced by a
// tag-index scan over the succinct store.
package join

import (
	"xqp/internal/ast"
	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/xmldoc"
)

// pollEvery is how many stream elements pass between cancellation
// checks; a power of two keeps the modulo cheap.
const pollEvery = 256

// interruptPanic carries a cancellation error out of a join;
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

// poller periodically invokes an interrupt callback from scan and merge
// loops. A nil poller (or nil callback) polls nothing, so the plain
// un-Counted entry points cost only a nil check.
type poller struct {
	interrupt func() error
	visits    int
}

// poll counts one unit of scan work and periodically checks the
// interrupt callback, unwinding with interruptPanic on cancellation.
func (p *poller) poll() {
	if p == nil || p.interrupt == nil {
		return
	}
	p.visits++
	if p.visits%pollEvery != 0 {
		return
	}
	if err := p.interrupt(); err != nil {
		panic(interruptPanic{err})
	}
}

// Elem is one stream element: a node with its interval encoding.
type Elem struct {
	Ref        storage.NodeRef
	Start, End int32
	Level      int32
}

// Contains reports whether e properly contains d (ancestor test).
func (e Elem) Contains(d Elem) bool { return e.Start < d.Start && d.End < e.End }

// ParentOf reports whether e is the parent of d.
func (e Elem) ParentOf(d Elem) bool { return e.Contains(d) && e.Level+1 == d.Level }

// Stream is a document-ordered sequence of elements.
type Stream []Elem

// Cursor is a read position over a stream.
type Cursor struct {
	s   Stream
	pos int
}

// NewCursor returns a cursor at the stream's head.
func NewCursor(s Stream) *Cursor { return &Cursor{s: s} }

// EOF reports whether the cursor is exhausted.
func (c *Cursor) EOF() bool { return c.pos >= len(c.s) }

// Head returns the current element; it panics at EOF.
func (c *Cursor) Head() Elem { return c.s[c.pos] }

// NextStart returns the current element's start, or MaxInt32 at EOF.
func (c *Cursor) NextStart() int32 {
	if c.EOF() {
		return int32(1<<31 - 1)
	}
	return c.s[c.pos].Start
}

// NextEnd returns the current element's end, or MaxInt32 at EOF.
func (c *Cursor) NextEnd() int32 {
	if c.EOF() {
		return int32(1<<31 - 1)
	}
	return c.s[c.pos].End
}

// Advance moves past the current element.
func (c *Cursor) Advance() { c.pos++ }

// elemOf builds the interval element for a node.
func elemOf(st *storage.Store, n storage.NodeRef) Elem {
	o, c := st.Span(n)
	return Elem{Ref: n, Start: int32(o), End: int32(c), Level: int32(st.Seq.Depth(o))}
}

// VertexStream returns the document-ordered stream of nodes matching a
// pattern vertex (node test plus value predicates), as a tag-index scan
// would produce it.
func VertexStream(st *storage.Store, v pattern.Vertex) Stream {
	return vertexStream(st, v, nil)
}

// vertexStream is VertexStream polling p during full-store scans (the
// wildcard and kind-test cases, which visit every node).
func vertexStream(st *storage.Store, v pattern.Vertex, p *poller) Stream {
	var out Stream
	// presize fits a posting-list scan exactly when no predicate filters
	// it; a filtered scan may keep few of the postings, so it grows.
	presize := func(refs []storage.NodeRef) {
		if len(v.Preds) == 0 {
			out = make(Stream, 0, len(refs))
		}
	}
	add := func(n storage.NodeRef) {
		p.poll()
		for _, pr := range v.Preds {
			if !pr.Matches(st.StringValue(n)) {
				return
			}
		}
		out = append(out, elemOf(st, n))
	}
	switch {
	case v.Attribute:
		if v.Test.Name == "*" {
			for i := 0; i < st.NodeCount(); i++ {
				p.poll()
				if st.Kind(storage.NodeRef(i)) == xmldoc.KindAttribute {
					add(storage.NodeRef(i))
				}
			}
			return out
		}
		refs := st.TagRefs(st.Vocab.Lookup("@" + v.Test.Name))
		presize(refs)
		for _, n := range refs {
			add(n)
		}
		return out
	case v.Test.Kind == ast.TestName:
		if v.Test.Name == "*" {
			for i := 0; i < st.NodeCount(); i++ {
				p.poll()
				if st.Kind(storage.NodeRef(i)) == xmldoc.KindElement {
					add(storage.NodeRef(i))
				}
			}
			return out
		}
		refs := st.ElementRefs(v.Test.Name)
		presize(refs)
		for _, n := range refs {
			add(n)
		}
		return out
	default:
		// Kind tests: text(), node(), comment(), processing-instruction().
		for i := 0; i < st.NodeCount(); i++ {
			p.poll()
			n := storage.NodeRef(i)
			if pattern.MatchesKindTest(st, n, v.Test) {
				add(n)
			}
		}
		return out
	}
}

// RootStream returns the single-element stream holding the document root
// (used for rooted patterns) or the given context nodes.
func RootStream(st *storage.Store) Stream {
	return Stream{elemOf(st, st.Root())}
}

// ContextStream builds a stream from explicit context nodes, sorting into
// document order.
func ContextStream(st *storage.Store, refs []storage.NodeRef) Stream {
	out := make(Stream, 0, len(refs))
	for _, n := range refs {
		out = append(out, elemOf(st, n))
	}
	sortStream(out)
	return out
}

// Refs projects the stream's node refs.
func (s Stream) Refs() []storage.NodeRef {
	out := make([]storage.NodeRef, len(s))
	for i, e := range s {
		out[i] = e.Ref
	}
	return out
}

// dedupSorted removes adjacent duplicates from a doc-ordered stream.
func dedupSorted(s Stream) Stream {
	out := s[:0]
	for i, e := range s {
		if i == 0 || e.Ref != s[i-1].Ref {
			out = append(out, e)
		}
	}
	return out
}
