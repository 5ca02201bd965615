package core

import (
	"fmt"

	"xqp/internal/ast"
	"xqp/internal/parser"
	"xqp/internal/pattern"
	"xqp/internal/value"
)

// This file is the pattern builder: it reads a πs-chain's steps and their
// predicate plans and captures them as a pattern graph (Definition 1) for
// the τ operator. Paths with reverse or sibling axes, positional or
// negated predicates, or predicates over anything but the step's node
// are not expressible; they run step by step in the executor instead
// (τ covers the common fragment, the rest stays πs).

// NotExpressibleError reports that a path or predicate cannot be captured
// by a pattern graph and must be evaluated by the general executor.
type NotExpressibleError struct{ Reason string }

func (e *NotExpressibleError) Error() string {
	return "pattern: not expressible: " + e.Reason
}

func notExpr(format string, args ...any) error {
	return &NotExpressibleError{Reason: fmt.Sprintf(format, args...)}
}

// BuildPattern captures a step list as a pattern graph anchored at the
// document root (rooted) or at each context node, with the last step's
// vertex as output.
func BuildPattern(rooted bool, steps []Step) (*pattern.Graph, error) {
	g := pattern.NewGraph(rooted)
	out, err := addSteps(g, 0, steps)
	if err != nil {
		return nil, err
	}
	if out == 0 {
		return nil, notExpr("path has no steps")
	}
	g.Vertices[out].Output = true
	g.Output = out
	return g, nil
}

// AttachPredicate grafts a predicate plan onto vertex v of g: relative
// paths become pattern subtrees (existence tests), comparisons of a
// relative path or of the anchor itself with a literal become value
// predicates, and conjunctions attach both sides. anchor reports whether
// an operator denotes v's node: the context item for a step predicate, the
// clause variable for a pushed where-conjunct. On a NotExpressibleError g
// may hold vertices already added; callers build on a clone.
func AttachPredicate(g *pattern.Graph, v pattern.VertexID, pred Op, anchor func(Op) bool) error {
	switch p := pred.(type) {
	case *LogicOp:
		if p.Kind != LogicAnd {
			return notExpr("predicate %s", p.Label())
		}
		if err := AttachPredicate(g, v, p.L, anchor); err != nil {
			return err
		}
		return AttachPredicate(g, v, p.R, anchor)
	case *CompareOp:
		side, litSide, op := p.L, p.R, p.Op
		if _, ok := literal(p.L); ok {
			if _, ok := literal(p.R); !ok {
				side, litSide, op = p.R, p.L, op.Flip()
			}
		}
		lit, ok := literal(litSide)
		if !ok {
			return notExpr("comparison against a non-literal")
		}
		at := v
		if !anchor(side) {
			leaf, err := attachPath(g, v, side, anchor)
			if err != nil {
				return err
			}
			at = leaf
		}
		g.Vertices[at].Preds = append(g.Vertices[at].Preds, pattern.ValuePred{Op: op, Lit: lit})
		return nil
	}
	_, err := attachPath(g, v, pred, anchor)
	return err
}

// attachPath adds a relative path below v as a non-output subtree and
// returns its last vertex. The path is a πs-chain or an already fused τ
// whose input is the anchor.
func attachPath(g *pattern.Graph, v pattern.VertexID, op Op, anchor func(Op) bool) (pattern.VertexID, error) {
	switch p := op.(type) {
	case *PathOp:
		if p.Rooted || !anchor(p.Input) {
			return 0, notExpr("predicate path is not relative")
		}
		leaf, err := addSteps(g, v, p.Steps)
		if err != nil {
			return 0, err
		}
		if leaf == v {
			return 0, notExpr("empty predicate path")
		}
		return leaf, nil
	case *TPMOp:
		if p.Graph.Rooted || !anchor(p.Input) {
			return 0, notExpr("predicate pattern is not relative")
		}
		if leaf := g.Graft(v, p.Graph); leaf >= 0 {
			return leaf, nil
		}
		return v, nil
	}
	return 0, notExpr("predicate %s", op.Label())
}

// addSteps appends one vertex per child, descendant or attribute step
// below cur and returns the last one. descendant-or-self::node() is the
// "//" abbreviation: it strengthens the edge to the next vertex, so a
// path that ends in it, or follows it with self steps only, is not
// expressible (no vertex would select the descendants).
func addSteps(g *pattern.Graph, cur pattern.VertexID, steps []Step) (pattern.VertexID, error) {
	rel := pattern.RelChild
	for _, st := range steps {
		switch st.Axis {
		case ast.AxisDescendantOrSelf:
			if st.Test.Kind != ast.TestNode || len(st.Preds) > 0 {
				return 0, notExpr("descendant-or-self with a non-trivial test")
			}
			rel = pattern.RelDescendant
			continue
		case ast.AxisChild, ast.AxisAttribute:
			// rel stays as set (child, or descendant from a prior //).
		case ast.AxisDescendant:
			rel = pattern.RelDescendant
		case ast.AxisSelf:
			if st.Test.Kind != ast.TestNode {
				return 0, notExpr("self axis with a name test")
			}
			if rel == pattern.RelDescendant {
				return 0, notExpr("self step after descendant-or-self")
			}
			if err := attachPreds(g, cur, st.Preds); err != nil {
				return 0, err
			}
			continue
		default:
			return 0, notExpr("axis %s", st.Axis)
		}
		id := g.AddVertex(cur, rel, pattern.Vertex{Test: st.Test, Attribute: st.Axis == ast.AxisAttribute})
		if err := attachPreds(g, id, st.Preds); err != nil {
			return 0, err
		}
		cur, rel = id, pattern.RelChild
	}
	if rel == pattern.RelDescendant {
		return 0, notExpr("descendant-or-self selects no later vertex")
	}
	return cur, nil
}

// attachPreds attaches a step's predicates to its vertex; inside them the
// context item is that vertex's node.
func attachPreds(g *pattern.Graph, v pattern.VertexID, preds []Op) error {
	for _, p := range preds {
		if err := AttachPredicate(g, v, p, isContext); err != nil {
			return err
		}
	}
	return nil
}

func isContext(op Op) bool {
	_, ok := op.(*ContextOp)
	return ok
}

// literal returns the item of a string or numeric constant.
func literal(op Op) (value.Item, bool) {
	c, ok := op.(*ConstOp)
	if !ok || len(c.Seq) != 1 {
		return nil, false
	}
	switch c.Seq[0].(type) {
	case value.Str, value.Int, value.Dbl:
		return c.Seq[0], true
	}
	return nil, false
}

// PatternOf parses and translates a path expression and builds its
// pattern graph: the one way tests, tools and experiments obtain a
// graph from source text.
func PatternOf(src string) (*pattern.Graph, error) {
	e, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	op, err := Translate(e)
	if err != nil {
		return nil, err
	}
	p, ok := op.(*PathOp)
	if !ok {
		return nil, notExpr("%s is not a path", src)
	}
	if _, ctx := p.Input.(*ContextOp); !ctx && !p.Rooted {
		return nil, notExpr("path has a non-step base expression")
	}
	return BuildPattern(p.Rooted, p.Steps)
}

// MustPattern is PatternOf that panics on failure; for tests and examples.
func MustPattern(src string) *pattern.Graph {
	g, err := PatternOf(src)
	if err != nil {
		panic(err)
	}
	return g
}
