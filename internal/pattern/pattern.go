// Package pattern implements the paper's PatternGraph sort (Definition 1):
// a labeled tree-shaped pattern extracted from path expressions (package
// core builds it from translated paths and their predicate plans), with
// parent-child and ancestor-descendant arcs, per-vertex value predicates,
// and marked output vertices. It also implements the NoK (next-of-kin)
// partitioning of Section 4.2: splitting a pattern into fragments that
// contain only local (parent-child/attribute) relationships, which the
// navigational matcher evaluates in a single scan, connected by
// ancestor-descendant links that require structural joins.
package pattern

import (
	"fmt"
	"strings"

	"xqp/internal/ast"
	"xqp/internal/value"
)

// VertexID indexes a vertex in a Graph.
type VertexID int

// Rel labels an arc: the structural relation between its endpoints.
type Rel uint8

const (
	// RelChild is the parent-child relation ("/").
	RelChild Rel = iota
	// RelDescendant is the ancestor-descendant relation ("//").
	RelDescendant
)

func (r Rel) String() string {
	if r == RelChild {
		return "/"
	}
	return "//"
}

// ValuePred is a per-vertex comparison with a literal (the paper's
// ⟨⊙, l⟩ pairs): the vertex's string value compared against Lit.
type ValuePred struct {
	Op  value.CmpOp
	Lit value.Item // Str or numeric literal
}

func (p ValuePred) String() string {
	return fmt.Sprintf(". %s %s", p.Op, p.Lit)
}

// Matches evaluates the predicate against a node string value.
func (p ValuePred) Matches(sv string) bool {
	ok, err := value.CompareGeneral(p.Op, value.Singleton(value.Str(sv)), value.Singleton(p.Lit))
	return err == nil && ok
}

// Vertex is one pattern vertex.
type Vertex struct {
	// Test is the node test: name ("*" matches any element), or a kind
	// test for text()/node()/etc.
	Test ast.NodeTest
	// Attribute marks vertices reached through the attribute axis.
	Attribute bool
	// Preds are value predicates that each matching node must satisfy.
	Preds []ValuePred
	// Output marks the vertex whose matches are returned.
	Output bool
}

// Label renders the vertex's node test for display and for tag lookup.
func (v Vertex) Label() string {
	if v.Attribute {
		return "@" + v.Test.Name
	}
	return v.Test.String()
}

// Edge connects a parent vertex to a child vertex.
type Edge struct {
	To  VertexID
	Rel Rel
}

// Graph is a tree-shaped pattern graph. Vertex 0 is always the pattern
// root, which matches the document root when the pattern is absolute or
// the context node when it is relative.
type Graph struct {
	Vertices []Vertex
	// Children holds outgoing edges per vertex, in query order.
	Children [][]Edge
	// Rooted reports whether vertex 0 anchors at the document root
	// (true) or at the context node (false).
	Rooted bool
	// Output is the vertex whose matches form the result.
	Output VertexID
	// EstCard is the synopsis estimate of the output cardinality, stamped
	// by the static analyzer after rewriting (analyze.AnnotateGraphs);
	// negative means not annotated and the cost model estimates on demand.
	EstCard float64
}

// NewGraph returns a graph with only the root vertex.
func NewGraph(rooted bool) *Graph {
	return &Graph{
		Vertices: []Vertex{{Test: ast.NodeTest{Kind: ast.TestNode}}},
		Children: [][]Edge{nil},
		Rooted:   rooted,
		EstCard:  -1,
	}
}

// AddVertex appends a vertex connected to parent with relation rel.
func (g *Graph) AddVertex(parent VertexID, rel Rel, v Vertex) VertexID {
	id := VertexID(len(g.Vertices))
	g.Vertices = append(g.Vertices, v)
	g.Children = append(g.Children, nil)
	g.Children[parent] = append(g.Children[parent], Edge{To: id, Rel: rel})
	return id
}

// Graft copies src's vertices (except its anchor) into g, attaching
// src's top-level subtrees under vertex at. Output flags of the grafted
// vertices are cleared; value predicates on src's anchor are moved onto
// at. It returns the vertex of g corresponding to src's output vertex
// (useful for adding value predicates afterwards), or -1 when src's
// output is its anchor. Used by predicate pushdown to fold existence and
// comparison sub-patterns into a clause's τ pattern.
func (g *Graph) Graft(at VertexID, src *Graph) VertexID {
	mapped := make([]VertexID, len(src.Vertices))
	mapped[0] = at
	g.Vertices[at].Preds = append(g.Vertices[at].Preds, src.Vertices[0].Preds...)
	var copyFrom func(sv VertexID)
	copyFrom = func(sv VertexID) {
		for _, e := range src.Children[sv] {
			v := src.Vertices[e.To]
			v.Output = false
			if len(v.Preds) > 0 {
				v.Preds = append([]ValuePred(nil), v.Preds...)
			}
			mapped[e.To] = g.AddVertex(mapped[sv], e.Rel, v)
			copyFrom(e.To)
		}
	}
	copyFrom(0)
	if src.Output == 0 {
		return -1
	}
	return mapped[src.Output]
}

// Clone returns a deep copy of the graph (vertices, predicates, edges);
// rewrites mutate clones so plans can share pattern graphs safely.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		Vertices: make([]Vertex, len(g.Vertices)),
		Children: make([][]Edge, len(g.Children)),
		Rooted:   g.Rooted,
		Output:   g.Output,
		EstCard:  g.EstCard,
	}
	copy(ng.Vertices, g.Vertices)
	for i := range ng.Vertices {
		if len(g.Vertices[i].Preds) > 0 {
			ng.Vertices[i].Preds = append([]ValuePred(nil), g.Vertices[i].Preds...)
		}
	}
	for i := range g.Children {
		if len(g.Children[i]) > 0 {
			ng.Children[i] = append([]Edge(nil), g.Children[i]...)
		}
	}
	return ng
}

// Parent returns the parent of v and the relation of the connecting edge;
// the root returns (-1, RelChild).
func (g *Graph) Parent(v VertexID) (VertexID, Rel) {
	for p := range g.Children {
		for _, e := range g.Children[p] {
			if e.To == v {
				return VertexID(p), e.Rel
			}
		}
	}
	return -1, RelChild
}

// VertexCount reports the number of vertices including the root.
func (g *Graph) VertexCount() int { return len(g.Vertices) }

// IsPath reports whether the pattern is a simple path (no branching).
func (g *Graph) IsPath() bool {
	for _, kids := range g.Children {
		if len(kids) > 1 {
			return false
		}
	}
	return true
}

// String renders the graph as an indented tree.
func (g *Graph) String() string {
	var b strings.Builder
	var walk func(v VertexID, rel string, depth int)
	walk = func(v VertexID, rel string, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(rel)
		vv := g.Vertices[v]
		b.WriteString(vv.Label())
		for _, p := range vv.Preds {
			fmt.Fprintf(&b, "[%s]", p)
		}
		if vv.Output {
			b.WriteString(" <- output")
		}
		b.WriteByte('\n')
		for _, e := range g.Children[v] {
			walk(e.To, e.Rel.String(), depth+1)
		}
	}
	root := "root"
	if !g.Rooted {
		root = "context"
	}
	b.WriteString(root + "\n")
	for _, e := range g.Children[0] {
		walk(e.To, e.Rel.String(), 1)
	}
	return b.String()
}
