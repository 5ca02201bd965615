// Package ast defines the abstract syntax tree for the XQuery subset the
// system processes: path expressions, FLWOR expressions, constructors,
// conditionals, quantifiers, and operator/function applications.
//
// This is the non-recursive fragment the paper identifies (Section 3.1):
// complete enough for the XML Query Use Cases style of workload while
// keeping the algebra safe (no recursive user functions).
package ast

import (
	"fmt"
	"strings"
)

// Expr is any expression node.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// Axis enumerates the supported XPath axes.
type Axis uint8

const (
	AxisChild Axis = iota
	AxisDescendant
	AxisDescendantOrSelf
	AxisSelf
	AxisParent
	AxisAncestor
	AxisAncestorOrSelf
	AxisAttribute
	AxisFollowingSibling
	AxisPrecedingSibling
)

func (a Axis) String() string {
	switch a {
	case AxisChild:
		return "child"
	case AxisDescendant:
		return "descendant"
	case AxisDescendantOrSelf:
		return "descendant-or-self"
	case AxisSelf:
		return "self"
	case AxisParent:
		return "parent"
	case AxisAncestor:
		return "ancestor"
	case AxisAncestorOrSelf:
		return "ancestor-or-self"
	case AxisAttribute:
		return "attribute"
	case AxisFollowingSibling:
		return "following-sibling"
	case AxisPrecedingSibling:
		return "preceding-sibling"
	}
	return fmt.Sprintf("axis(%d)", uint8(a))
}

// Reverse reports whether the axis walks against document order.
func (a Axis) Reverse() bool {
	switch a {
	case AxisParent, AxisAncestor, AxisAncestorOrSelf, AxisPrecedingSibling:
		return true
	}
	return false
}

// TestKind classifies node tests.
type TestKind uint8

const (
	// TestName matches elements (or attributes, on the attribute axis)
	// by name; Name "*" matches any.
	TestName TestKind = iota
	// TestText matches text nodes: text().
	TestText
	// TestNode matches any node: node().
	TestNode
	// TestComment matches comment nodes: comment().
	TestComment
	// TestPI matches processing instructions: processing-instruction().
	TestPI
)

// NodeTest is the test part of a step.
type NodeTest struct {
	Kind TestKind
	Name string // for TestName (may be "*"), or PI target (may be "")
}

func (t NodeTest) String() string {
	switch t.Kind {
	case TestName:
		return t.Name
	case TestText:
		return "text()"
	case TestNode:
		return "node()"
	case TestComment:
		return "comment()"
	case TestPI:
		if t.Name != "" {
			return "processing-instruction(" + QuoteString(t.Name) + ")"
		}
		return "processing-instruction()"
	}
	return "?"
}

// Step is one location step: axis, node test, predicates.
type Step struct {
	Axis  Axis
	Test  NodeTest
	Preds []Expr
}

func (s Step) String() string {
	var head string
	switch {
	case s.Axis == AxisChild:
		head = s.Test.String()
	case s.Axis == AxisAttribute:
		head = "@" + s.Test.String()
	case s.Axis == AxisSelf && s.Test.Kind == TestNode:
		head = "."
	case s.Axis == AxisParent && s.Test.Kind == TestNode:
		head = ".."
	case s.Axis == AxisDescendantOrSelf && s.Test.Kind == TestNode:
		head = "descendant-or-self::node()"
	default:
		head = s.Axis.String() + "::" + s.Test.String()
	}
	switch len(s.Preds) {
	case 0:
		return head
	case 1:
		return head + "[" + s.Preds[0].String() + "]"
	}
	var b strings.Builder
	b.WriteString(head)
	for _, p := range s.Preds {
		b.WriteByte('[')
		b.WriteString(p.String())
		b.WriteByte(']')
	}
	return b.String()
}

// PathExpr is a path: optional root anchor and a sequence of steps applied
// to Base (nil Base means the context item, or the root if Rooted).
type PathExpr struct {
	Rooted bool // starts with "/" or "//"
	Base   Expr // optional non-step start (e.g. doc("x")/a/b); nil otherwise
	Steps  []Step
}

func (p *PathExpr) exprNode() {}

func (p *PathExpr) String() string {
	if p.Base == nil && !p.Rooted && len(p.Steps) == 1 {
		return p.Steps[0].String()
	}
	var b strings.Builder
	if p.Base != nil {
		b.WriteString(p.Base.String())
	}
	if p.Rooted {
		b.WriteString("/")
	}
	for i, s := range p.Steps {
		if i > 0 || p.Base != nil && !p.Rooted {
			b.WriteByte('/')
		}
		b.WriteString(s.String())
	}
	return b.String()
}

// StringLit is a string literal.
type StringLit struct{ Val string }

func (*StringLit) exprNode()        {}
func (s *StringLit) String() string { return QuoteString(s.Val) }

// QuoteString renders s as an XQuery string literal: the delimiting
// quote is escaped by doubling (there are no backslash escapes in
// XQuery, so Go's %q would emit unparseable syntax).
func QuoteString(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// NumberLit is a numeric literal. An integer literal (IsInt) keeps its
// exact value in Int and integer semantics downstream; Val holds the
// float64 value of every literal.
type NumberLit struct {
	Val   float64
	IsInt bool
	Int   int64
}

func (*NumberLit) exprNode() {}
func (n *NumberLit) String() string {
	if n.IsInt {
		return fmt.Sprintf("%d", n.Int)
	}
	return fmt.Sprintf("%g", n.Val)
}

// VarRef references a variable ($name).
type VarRef struct{ Name string }

func (*VarRef) exprNode()        {}
func (v *VarRef) String() string { return "$" + v.Name }

// ContextItem is ".".
type ContextItem struct{}

func (*ContextItem) exprNode()      {}
func (*ContextItem) String() string { return "." }

// EmptySeq is "()".
type EmptySeq struct{}

func (*EmptySeq) exprNode()      {}
func (*EmptySeq) String() string { return "()" }

// SequenceExpr is a comma sequence (e1, e2, ...).
type SequenceExpr struct{ Items []Expr }

func (*SequenceExpr) exprNode() {}
func (s *SequenceExpr) String() string {
	parts := make([]string, len(s.Items))
	for i, it := range s.Items {
		parts[i] = it.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// BinOp enumerates binary operators.
type BinOp uint8

const (
	OpOr BinOp = iota
	OpAnd
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpIDiv
	OpMod
	OpUnion
	OpIntersect
	OpExcept
	OpTo
)

func (o BinOp) String() string {
	switch o {
	case OpOr:
		return "or"
	case OpAnd:
		return "and"
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "div"
	case OpIDiv:
		return "idiv"
	case OpMod:
		return "mod"
	case OpUnion:
		return "union"
	case OpIntersect:
		return "intersect"
	case OpExcept:
		return "except"
	case OpTo:
		return "to"
	}
	return "?"
}

// Comparison reports whether the operator is a comparison.
func (o BinOp) Comparison() bool { return o >= OpEq && o <= OpGe }

// Binary is a binary operator application.
type Binary struct {
	Op   BinOp
	L, R Expr
}

func (*Binary) exprNode() {}
func (b *Binary) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

// Unary is unary minus (or plus, normalized away).
type Unary struct {
	Neg bool
	X   Expr
}

func (*Unary) exprNode() {}
func (u *Unary) String() string {
	if u.Neg {
		return fmt.Sprintf("(-%s)", u.X)
	}
	return u.X.String()
}

// FuncCall is a (built-in) function call.
type FuncCall struct {
	Name string
	Args []Expr
	// Line and Col locate the call's name in the source, 1-based (zero
	// for calls built outside the parser).
	Line, Col int
}

func (*FuncCall) exprNode() {}
func (f *FuncCall) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return f.Name + "(" + strings.Join(parts, ", ") + ")"
}

// If is a conditional.
type If struct {
	Cond, Then, Else Expr
}

func (*If) exprNode() {}
func (i *If) String() string {
	return fmt.Sprintf("if (%s) then %s else %s", i.Cond, i.Then, i.Else)
}

// QuantKind distinguishes some/every.
type QuantKind uint8

const (
	// QuantSome is existential quantification.
	QuantSome QuantKind = iota
	// QuantEvery is universal quantification.
	QuantEvery
)

// QuantBinding is one "$v in expr" binding of a quantified expression.
type QuantBinding struct {
	Var string
	In  Expr
}

// Quantified is "some/every $v in e satisfies p".
type Quantified struct {
	Kind      QuantKind
	Bindings  []QuantBinding
	Satisfies Expr
}

func (*Quantified) exprNode() {}
func (q *Quantified) String() string {
	kw := "some"
	if q.Kind == QuantEvery {
		kw = "every"
	}
	parts := make([]string, len(q.Bindings))
	for i, b := range q.Bindings {
		parts[i] = fmt.Sprintf("$%s in %s", b.Var, b.In)
	}
	return fmt.Sprintf("%s %s satisfies %s", kw, strings.Join(parts, ", "), q.Satisfies)
}

// ClauseKind distinguishes FLWOR clauses.
type ClauseKind uint8

const (
	// ClauseFor is a for-binding (iteration).
	ClauseFor ClauseKind = iota
	// ClauseLet is a let-binding (no iteration).
	ClauseLet
)

// Clause is one for/let binding. For-clauses may carry a positional
// variable ("at $i").
type Clause struct {
	Kind   ClauseKind
	Var    string
	PosVar string // "" when absent; for-clauses only
	Expr   Expr
}

func (c Clause) String() string {
	switch c.Kind {
	case ClauseFor:
		if c.PosVar != "" {
			return fmt.Sprintf("for $%s at $%s in %s", c.Var, c.PosVar, c.Expr)
		}
		return fmt.Sprintf("for $%s in %s", c.Var, c.Expr)
	default:
		return fmt.Sprintf("let $%s := %s", c.Var, c.Expr)
	}
}

// OrderSpec is one order-by key.
type OrderSpec struct {
	Key        Expr
	Descending bool
	EmptyLeast bool
}

func (o OrderSpec) String() string {
	s := o.Key.String()
	if o.Descending {
		s += " descending"
	}
	return s
}

// FLWOR is a for/let/where/order-by/return expression.
type FLWOR struct {
	Clauses []Clause
	Where   Expr // nil if absent
	OrderBy []OrderSpec
	Return  Expr
}

func (*FLWOR) exprNode() {}
func (f *FLWOR) String() string {
	var b strings.Builder
	for i, c := range f.Clauses {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(c.String())
	}
	if f.Where != nil {
		fmt.Fprintf(&b, " where %s", f.Where)
	}
	if len(f.OrderBy) > 0 {
		b.WriteString(" order by ")
		for i, o := range f.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.String())
		}
	}
	fmt.Fprintf(&b, " return %s", f.Return)
	return b.String()
}

// AttrValuePart is one fragment of an attribute value template: either a
// literal string or an enclosed expression.
type AttrValuePart struct {
	Lit  string
	Expr Expr // non-nil for {expr} parts
}

// AttrConstructor is one attribute inside a direct element constructor.
type AttrConstructor struct {
	Name  string
	Parts []AttrValuePart
}

// ContentItem is one content particle of a direct element constructor:
// exactly one of Lit, Expr or Child is set.
type ContentItem struct {
	Lit   string
	Expr  Expr         // enclosed {expr}
	Child *ElementCtor // nested direct constructor
}

// ElementCtor is a direct element constructor <name attr="...">...</name>.
type ElementCtor struct {
	Name    string
	Attrs   []AttrConstructor
	Content []ContentItem
}

func (*ElementCtor) exprNode() {}
func (e *ElementCtor) String() string {
	var b strings.Builder
	b.WriteString("<")
	b.WriteString(e.Name)
	for _, a := range e.Attrs {
		fmt.Fprintf(&b, " %s=\"", a.Name)
		for _, p := range a.Parts {
			if p.Expr != nil {
				fmt.Fprintf(&b, "{%s}", p.Expr)
			} else {
				b.WriteString(p.Lit)
			}
		}
		b.WriteString("\"")
	}
	if len(e.Content) == 0 {
		b.WriteString("/>")
		return b.String()
	}
	b.WriteString(">")
	for _, c := range e.Content {
		switch {
		case c.Child != nil:
			b.WriteString(c.Child.String())
		case c.Expr != nil:
			fmt.Fprintf(&b, "{%s}", c.Expr)
		default:
			b.WriteString(c.Lit)
		}
	}
	fmt.Fprintf(&b, "</%s>", e.Name)
	return b.String()
}

// ComputedCtor is a computed element/attribute/text constructor, e.g.
// element result { $x }, attribute id { $i }, text { "s" }.
type ComputedCtor struct {
	Kind    string // "element", "attribute", "text"
	Name    string // for element/attribute
	Content Expr   // may be nil (empty)
}

func (*ComputedCtor) exprNode() {}
func (c *ComputedCtor) String() string {
	body := ""
	if c.Content != nil {
		body = c.Content.String()
	}
	if c.Kind == "text" {
		return fmt.Sprintf("text { %s }", body)
	}
	return fmt.Sprintf("%s %s { %s }", c.Kind, c.Name, body)
}
