// Package pattern implements the paper's PatternGraph sort (Definition 1):
// a labeled tree-shaped pattern extracted from path expressions, with
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

// NotExpressibleError reports that an expression cannot be captured by a
// pattern graph and must be evaluated by the general executor.
type NotExpressibleError struct{ Reason string }

func (e *NotExpressibleError) Error() string {
	return "pattern: not expressible: " + e.Reason
}

func notExpr(format string, args ...any) error {
	return &NotExpressibleError{Reason: fmt.Sprintf(format, args...)}
}

// FromPath compiles a path expression into a pattern graph. The path must
// use only downward axes (child, descendant, descendant-or-self,
// attribute, self) and predicates expressible as pattern subtrees with
// optional literal comparisons. Paths with a Base expression, reverse
// axes, positional predicates, or complex predicate logic return a
// NotExpressibleError; such queries run through the step-by-step executor
// instead (the paper's approach: τ covers the common fragment).
func FromPath(pe *ast.PathExpr) (*Graph, error) {
	if pe.Base != nil {
		// A "."-based path (e.g. .//b) is an ordinary relative path.
		if _, ok := pe.Base.(*ast.ContextItem); !ok {
			return nil, notExpr("path has a non-step base expression")
		}
	}
	g := NewGraph(pe.Rooted)
	cur := VertexID(0)
	rel := RelChild
	for i, st := range pe.Steps {
		switch st.Axis {
		case ast.AxisDescendantOrSelf:
			if st.Test.Kind == ast.TestNode && len(st.Preds) == 0 {
				// The "//" abbreviation: strengthen the next edge.
				rel = RelDescendant
				continue
			}
			return nil, notExpr("descendant-or-self with a non-trivial test")
		case ast.AxisChild:
			// rel stays as set (child, or descendant from a prior //).
		case ast.AxisDescendant:
			rel = RelDescendant
		case ast.AxisAttribute:
			// fallthrough to vertex creation with Attribute set
		case ast.AxisSelf:
			// self::node() with predicates: attach preds to current vertex.
			if st.Test.Kind == ast.TestNode {
				if err := attachPreds(g, cur, st.Preds); err != nil {
					return nil, err
				}
				continue
			}
			return nil, notExpr("self axis with a name test")
		default:
			return nil, notExpr("axis %s", st.Axis)
		}
		v := Vertex{Test: st.Test, Attribute: st.Axis == ast.AxisAttribute}
		id := g.AddVertex(cur, rel, v)
		if err := attachPreds(g, id, st.Preds); err != nil {
			return nil, err
		}
		cur = id
		rel = RelChild
		_ = i
	}
	if cur == 0 {
		return nil, notExpr("path has no steps")
	}
	g.Vertices[cur].Output = true
	g.Output = cur
	return g, nil
}

// AttachPredicate grafts a predicate expression onto vertex v: existence
// paths become pattern subtrees, literal comparisons become value
// predicates. It returns a NotExpressibleError when the predicate cannot
// be captured; the graph is left unchanged in that case only if the
// predicate failed before any vertex was added, so callers should treat an
// error as "rebuild the pattern". Used by the logical rewriter to push
// where-clauses into τ patterns.
func AttachPredicate(g *Graph, v VertexID, pred ast.Expr) error {
	return attachPred(g, v, pred)
}

// attachPreds expands step predicates below vertex v.
func attachPreds(g *Graph, v VertexID, preds []ast.Expr) error {
	for _, p := range preds {
		if err := attachPred(g, v, p); err != nil {
			return err
		}
	}
	return nil
}

func attachPred(g *Graph, v VertexID, pred ast.Expr) error {
	switch p := pred.(type) {
	case *ast.PathExpr:
		// Existence predicate: [a/b], [@id], [.//c]
		_, err := expandPredPath(g, v, p)
		return err
	case *ast.Binary:
		if p.Op == ast.OpAnd {
			if err := attachPred(g, v, p.L); err != nil {
				return err
			}
			return attachPred(g, v, p.R)
		}
		if !p.Op.Comparison() {
			return notExpr("predicate operator %s", p.Op)
		}
		// path cmp literal | literal cmp path | . cmp literal
		pathSide, litSide := p.L, p.R
		op := cmpOpOf(p.Op)
		if isLiteral(p.L) && !isLiteral(p.R) {
			pathSide, litSide = p.R, p.L
			op = flip(op)
		}
		lit, ok := literalItem(litSide)
		if !ok {
			return notExpr("comparison against a non-literal")
		}
		switch ps := pathSide.(type) {
		case *ast.ContextItem:
			g.Vertices[v].Preds = append(g.Vertices[v].Preds, ValuePred{Op: op, Lit: lit})
			return nil
		case *ast.PathExpr:
			leaf, err := expandPredPath(g, v, ps)
			if err != nil {
				return err
			}
			g.Vertices[leaf].Preds = append(g.Vertices[leaf].Preds, ValuePred{Op: op, Lit: lit})
			return nil
		default:
			return notExpr("comparison over %T", pathSide)
		}
	default:
		return notExpr("predicate %T", pred)
	}
}

// expandPredPath adds the predicate path as a (non-output) subtree under v
// and returns its final vertex.
func expandPredPath(g *Graph, v VertexID, pe *ast.PathExpr) (VertexID, error) {
	if pe.Rooted {
		return 0, notExpr("predicate path is not relative")
	}
	if pe.Base != nil {
		// A "."-based path (e.g. .//b) is still relative to the vertex.
		if _, ok := pe.Base.(*ast.ContextItem); !ok {
			return 0, notExpr("predicate path is not relative")
		}
	}
	cur := v
	rel := RelChild
	for _, st := range pe.Steps {
		switch st.Axis {
		case ast.AxisDescendantOrSelf:
			if st.Test.Kind == ast.TestNode && len(st.Preds) == 0 {
				rel = RelDescendant
				continue
			}
			return 0, notExpr("descendant-or-self in predicate")
		case ast.AxisChild:
		case ast.AxisDescendant:
			rel = RelDescendant
		case ast.AxisAttribute:
		case ast.AxisSelf:
			if st.Test.Kind == ast.TestNode {
				if err := attachPreds(g, cur, st.Preds); err != nil {
					return 0, err
				}
				continue
			}
			return 0, notExpr("self axis in predicate")
		default:
			return 0, notExpr("axis %s in predicate", st.Axis)
		}
		id := g.AddVertex(cur, rel, Vertex{Test: st.Test, Attribute: st.Axis == ast.AxisAttribute})
		if err := attachPreds(g, id, st.Preds); err != nil {
			return 0, err
		}
		cur = id
		rel = RelChild
	}
	if cur == v {
		return 0, notExpr("empty predicate path")
	}
	return cur, nil
}

func isLiteral(e ast.Expr) bool {
	switch e.(type) {
	case *ast.StringLit, *ast.NumberLit:
		return true
	}
	return false
}

func literalItem(e ast.Expr) (value.Item, bool) {
	switch l := e.(type) {
	case *ast.StringLit:
		return value.Str(l.Val), true
	case *ast.NumberLit:
		if l.IsInt {
			return value.Int(l.Int), true
		}
		return value.Dbl(l.Val), true
	}
	return nil, false
}

func cmpOpOf(op ast.BinOp) value.CmpOp {
	switch op {
	case ast.OpEq:
		return value.CmpEq
	case ast.OpNe:
		return value.CmpNe
	case ast.OpLt:
		return value.CmpLt
	case ast.OpLe:
		return value.CmpLe
	case ast.OpGt:
		return value.CmpGt
	}
	return value.CmpGe
}

func flip(op value.CmpOp) value.CmpOp {
	switch op {
	case value.CmpLt:
		return value.CmpGt
	case value.CmpLe:
		return value.CmpGe
	case value.CmpGt:
		return value.CmpLt
	case value.CmpGe:
		return value.CmpLe
	}
	return op // = and != are symmetric
}

// MustFromPath compiles src (a path expression string, already parsed) and
// panics on failure; for tests and examples.
func MustFromPath(pe *ast.PathExpr) *Graph {
	g, err := FromPath(pe)
	if err != nil {
		panic(err)
	}
	return g
}
