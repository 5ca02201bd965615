// Package stats builds a path synopsis (a DataGuide-style summary) of a
// stored document and estimates pattern-match cardinalities from it. The
// cost model (package cost) uses these estimates to choose between the
// navigational and join-based physical plans — the chooser the paper's
// Section 2 calls for.
//
// # Layout
//
// The synopsis has one row per distinct root-to-node label path, in
// pre-order, and the children of a row are in symbol order. A row holds
// its last symbol, its occurrence count, its class (element, attribute,
// text or other, so that a wildcard test reads no name) and its subtree
// end: the rows of its descendants are exactly the range (i, end[i]),
// and its children are found by jumping from the first one, i+1, with
// c = end[c]. The estimation walks resolve each pattern vertex's test to
// a symbol or a class once per call, memoize in one dense rows × |V|
// table, and recurse only over the pattern's vertices.
//
// # Concurrency
//
// A Synopsis is immutable after Build or Edit returns: the estimation
// walks (EstimatePattern, Matchable, PathCount, ...) only read its
// arrays, so one synopsis may serve concurrent queries without locking.
// When a document is updated the synopsis is derived alongside the new
// store under the owner's exclusive lock (internal/engine does this
// during its generation bump): Edit follows one tracked edit and shares
// every array it does not change with its receiver, and Build rebuilds
// from scratch.
package stats

import (
	"fmt"

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
// with their occurrence counts. Row 0 is the document root.
type Synopsis struct {
	sym   []vocab.Symbol // the label path's last symbol
	class []class        // the kind of name sym is
	end   []int32        // one past the row's last descendant
	count []int64        // the nodes the label path reaches
	// tagCount is indexed by symbol; it spans the store's vocabulary.
	tagCount  []int64
	nodeCount int64
	elemCount int64
	maxDepth  int
}

// class sorts the symbols of label paths by what a node test can match.
type class uint8

const (
	classOther     class = iota // the root, comments and processing instructions
	classElement                // element names
	classAttribute              // "@"-prefixed attribute names
	classText                   // "#text"
)

// classOf classifies a stored name by the prefix storage gives it.
func classOf(sym vocab.Symbol, name string) class {
	switch {
	case sym == vocab.Root || name == "":
		return classOther
	case name[0] == '@':
		return classAttribute
	case name == "#text":
		return classText
	case name[0] == '#' || name[0] == '?':
		return classOther
	}
	return classElement
}

// Build scans the store once and constructs its synopsis.
func Build(st *storage.Store) *Synopsis {
	s := &Synopsis{tagCount: make([]int64, st.Vocab.Len())}
	t := newPathTree()
	stack := []int32{0}
	st.Scan(st.Root(), func(n storage.NodeRef, depth int) bool {
		if n == st.Root() {
			return true
		}
		s.nodeCount++
		if st.Kind(n) == xmldoc.KindElement {
			s.elemCount++
		}
		sym := st.Tag(n)
		s.tagCount[sym]++
		stack = stack[:depth] // the parent's label path is at depth-1
		c := t.child(stack[depth-1], sym)
		t.count[c]++
		stack = append(stack, c)
		return true
	})
	t.emit(st.Vocab, s)
	return s
}

// rows reports the number of label paths, the root's included.
func (s *Synopsis) rows() int32 { return int32(len(s.sym)) }

// childRow returns the child row of p with symbol sym, or -1.
func (s *Synopsis) childRow(p int32, sym vocab.Symbol) int32 {
	for c := p + 1; c < s.end[p]; c = s.end[c] {
		if s.sym[c] == sym {
			return c
		}
		if s.sym[c] > sym {
			break
		}
	}
	return -1
}

// NodeCount reports the number of stored nodes excluding the root.
func (s *Synopsis) NodeCount() int64 { return s.nodeCount }

// ElementCount reports the number of element nodes.
func (s *Synopsis) ElementCount() int64 { return s.elemCount }

// MaxDepth reports the maximum node depth.
func (s *Synopsis) MaxDepth() int { return s.maxDepth }

// TagCount reports how many nodes carry the given tag symbol.
func (s *Synopsis) TagCount(sym vocab.Symbol) int64 {
	if sym < 0 || int(sym) >= len(s.tagCount) {
		return 0
	}
	return s.tagCount[sym]
}

// TagCountName reports how many nodes carry the given element name.
func (s *Synopsis) TagCountName(st *storage.Store, name string) int64 {
	return s.TagCount(st.Vocab.Lookup(name))
}

// PathCount reports the number of nodes reachable by the given
// root-to-leaf label path (child steps only), e.g. ["bib","book","title"].
func (s *Synopsis) PathCount(st *storage.Store, path []string) int64 {
	r := int32(0)
	for _, name := range path {
		sym := st.Vocab.Lookup(name)
		if sym == vocab.None {
			return 0
		}
		if r = s.childRow(r, sym); r < 0 {
			return 0
		}
	}
	return s.count[r]
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

// String summarizes the synopsis.
func (s *Synopsis) String() string {
	tags := 0
	for _, c := range s.tagCount {
		if c != 0 {
			tags++
		}
	}
	return fmt.Sprintf("Synopsis{nodes=%d, elements=%d, maxDepth=%d, tags=%d}",
		s.nodeCount, s.elemCount, s.maxDepth, tags)
}
