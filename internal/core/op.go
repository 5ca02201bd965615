// Package core defines the paper's logical algebra (Section 3): the sorts
// List, NestedList, Tree, PatternGraph, SchemaTree and Env, and the
// operators of Table 1 —
//
//	structure-based: σs (selection on tag), ⋈s (structural join),
//	                 πs (tree navigation along an axis);
//	value-based:     σv (selection on values), ⋈v (value join);
//	hybrid:          τ  (tree pattern matching: Tree × PatternGraph →
//	                     NestedList),
//	                 γ  (construction: NestedList × SchemaTree → Tree).
//
// The algebra appears in two forms: as a library of operator functions
// over the runtime sorts (algebra.go, matching the signatures of Table 1),
// and as a logical plan language (this file) that queries are translated
// into (translate.go) and that the rewriter (package rewrite) and the
// physical executor (package exec) consume. τ operators sit at the bottom
// of plans, γ at the top, with list-transforming operators in between,
// exactly as Section 3.2 prescribes. Step predicates (σv/σs filters) are
// plans too, children of their πs-chain (PathOp); pattern.go is the one
// builder that captures a chain's steps and predicate plans as a
// PatternGraph for τ.
package core

import (
	"fmt"
	"strings"

	"xqp/internal/ast"
	"xqp/internal/builtin"
	"xqp/internal/pattern"
	"xqp/internal/value"
)

// Op is a logical plan operator.
type Op interface {
	// Children returns the operator's input sub-plans.
	Children() []Op
	// Label renders the operator's own node (without inputs).
	Label() string
}

// ConstOp yields a constant sequence.
type ConstOp struct{ Seq value.Sequence }

func (o *ConstOp) Children() []Op { return nil }
func (o *ConstOp) Label() string {
	if len(o.Seq) == 0 {
		return "const ()"
	}
	return fmt.Sprintf("const %s", o.Seq)
}

// VarOp references a variable binding from the environment.
type VarOp struct{ Name string }

func (o *VarOp) Children() []Op { return nil }
func (o *VarOp) Label() string  { return "$" + o.Name }

// ContextOp yields the context item.
type ContextOp struct{}

func (o *ContextOp) Children() []Op { return nil }
func (o *ContextOp) Label() string  { return "context-item" }

// DocOp yields the root of a named document (resolved via the executor's
// catalog); URI "" means the default document.
type DocOp struct{ URI string }

func (o *DocOp) Children() []Op { return nil }
func (o *DocOp) Label() string  { return fmt.Sprintf("doc(%q)", o.URI) }

// Step is one location step of a πs-chain: axis, node test, and its
// predicates translated to plans (σv/σs filters evaluated with each
// candidate node as the context item). Src is the step as written, kept
// for labels and diagnostics only.
type Step struct {
	Axis  ast.Axis
	Test  ast.NodeTest
	Preds []Op
	Src   string
}

// PathOp evaluates a path expression step-by-step (a chain of πs/σs
// operators) against its input. It is what the translator emits for every
// path; the rewriter fuses eligible PathOps into TPMOps. Its children are
// the input and every step's predicate plans, so plan walks, the analyzer
// and EXPLAIN see inside predicates.
type PathOp struct {
	Input  Op
	Rooted bool
	Steps  []Step
}

func (o *PathOp) Children() []Op {
	out := []Op{o.Input}
	for _, st := range o.Steps {
		out = append(out, st.Preds...)
	}
	return out
}

func (o *PathOp) Label() string { return "πs-chain " + o.PathString() }

// PathString renders the steps as written, "/"-separated after a leading
// "/" when rooted.
func (o *PathOp) PathString() string {
	var b strings.Builder
	if o.Rooted {
		b.WriteByte('/')
	}
	for i, st := range o.Steps {
		if i > 0 {
			b.WriteByte('/')
		}
		b.WriteString(st.Src)
	}
	return b.String()
}

// TPMOp is the τ operator: match a pattern graph against the input nodes
// (the pattern anchor binds to each input node; for rooted graphs the
// input is the document root).
type TPMOp struct {
	Input Op
	Graph *pattern.Graph
	// Residual predicates that could not be folded into the graph are
	// kept by the rewriter as a σv above this operator, never here.
}

func (o *TPMOp) Children() []Op { return []Op{o.Input} }
func (o *TPMOp) Label() string {
	return fmt.Sprintf("τ pattern{%s} joins=%d", strings.TrimSpace(strings.ReplaceAll(o.Graph.String(), "\n", " ")), o.Graph.Partition().JoinCount())
}

// SeqOp concatenates its inputs (the comma operator).
type SeqOp struct{ Items []Op }

func (o *SeqOp) Children() []Op { return o.Items }
func (o *SeqOp) Label() string  { return "seq" }

// ArithOp applies an arithmetic operator.
type ArithOp struct {
	Op   value.ArithOp
	L, R Op
}

func (o *ArithOp) Children() []Op { return []Op{o.L, o.R} }
func (o *ArithOp) Label() string {
	names := [...]string{"+", "-", "*", "div", "idiv", "mod"}
	return "arith " + names[o.Op]
}

// NegOp is unary minus.
type NegOp struct{ X Op }

func (o *NegOp) Children() []Op { return []Op{o.X} }
func (o *NegOp) Label() string  { return "neg" }

// CompareOp is a general comparison (σv / ⋈v building block).
type CompareOp struct {
	Op   value.CmpOp
	L, R Op
}

func (o *CompareOp) Children() []Op { return []Op{o.L, o.R} }
func (o *CompareOp) Label() string  { return "compare " + o.Op.String() }

// LogicKind selects and/or.
type LogicKind uint8

// Logic kinds.
const (
	LogicAnd LogicKind = iota
	LogicOr
)

// LogicOp is boolean conjunction/disjunction over effective boolean
// values.
type LogicOp struct {
	Kind LogicKind
	L, R Op
}

func (o *LogicOp) Children() []Op { return []Op{o.L, o.R} }
func (o *LogicOp) Label() string {
	if o.Kind == LogicAnd {
		return "and"
	}
	return "or"
}

// SetKind selects a node-set operation.
type SetKind uint8

// Node-set operations (doc order, dedup).
const (
	SetUnion SetKind = iota
	SetIntersect
	SetExcept
)

// UnionOp is a node-set operation: union, intersect or except.
type UnionOp struct {
	Kind SetKind
	L, R Op
}

func (o *UnionOp) Children() []Op { return []Op{o.L, o.R} }
func (o *UnionOp) Label() string {
	return [...]string{"union", "intersect", "except"}[o.Kind]
}

// RangeOp is the integer range constructor (to).
type RangeOp struct{ L, R Op }

func (o *RangeOp) Children() []Op { return []Op{o.L, o.R} }
func (o *RangeOp) Label() string  { return "range" }

// IfOp is a conditional.
type IfOp struct{ Cond, Then, Else Op }

func (o *IfOp) Children() []Op { return []Op{o.Cond, o.Then, o.Else} }
func (o *IfOp) Label() string  { return "if" }

// FnOp is a call of a builtin, resolved by the translator.
type FnOp struct {
	Fn   *builtin.Func
	Args []Op
}

func (o *FnOp) Children() []Op { return o.Args }
func (o *FnOp) Label() string  { return "fn:" + o.Fn.Name }

// BindKind distinguishes for/let clauses.
type BindKind uint8

// Binding kinds.
const (
	BindFor BindKind = iota
	BindLet
)

// Bind is one for/let clause of a FLWOR operator.
type Bind struct {
	Kind   BindKind
	Var    string
	PosVar string // for-clauses only; "" when absent
	Expr   Op
}

// OrderKey is one order-by key.
type OrderKey struct {
	Key        Op
	Descending bool
	EmptyLeast bool
}

// FLWOROp builds an Env from its clauses (Definition 3) and evaluates the
// return expression once per total variable binding.
type FLWOROp struct {
	Clauses []Bind
	Where   Op // nil when absent
	OrderBy []OrderKey
	Return  Op
}

func (o *FLWOROp) Children() []Op {
	var out []Op
	for _, c := range o.Clauses {
		out = append(out, c.Expr)
	}
	if o.Where != nil {
		out = append(out, o.Where)
	}
	for _, k := range o.OrderBy {
		out = append(out, k.Key)
	}
	out = append(out, o.Return)
	return out
}

func (o *FLWOROp) Label() string {
	var parts []string
	for _, c := range o.Clauses {
		kw := "for"
		if c.Kind == BindLet {
			kw = "let"
		}
		parts = append(parts, fmt.Sprintf("%s $%s", kw, c.Var))
	}
	s := "flwor [" + strings.Join(parts, ", ") + "]"
	if o.Where != nil {
		s += " where"
	}
	if len(o.OrderBy) > 0 {
		s += " order"
	}
	return s
}

// QuantOp is some/every quantification.
type QuantOp struct {
	Every     bool
	Bindings  []Bind // Kind is always BindFor
	Satisfies Op
}

func (o *QuantOp) Children() []Op {
	var out []Op
	for _, b := range o.Bindings {
		out = append(out, b.Expr)
	}
	return append(out, o.Satisfies)
}

func (o *QuantOp) Label() string {
	if o.Every {
		return "every"
	}
	return "some"
}

// ConstructOp is the γ operator: build new tree content following a
// SchemaTree whose placeholders are sub-plans.
type ConstructOp struct{ Schema *SchemaTree }

func (o *ConstructOp) Children() []Op { return o.Schema.placeholderOps() }
func (o *ConstructOp) Label() string  { return "γ " + o.Schema.Summary() }

// Explain renders a plan as an indented tree.
func Explain(op Op) string {
	var b strings.Builder
	var walk func(op Op, depth int)
	walk = func(op Op, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(op.Label())
		b.WriteByte('\n')
		for _, c := range op.Children() {
			walk(c, depth+1)
		}
	}
	walk(op, 0)
	return b.String()
}

// ExplainWith renders the plan like Explain, appending annotate's output
// (when non-empty) after each operator label. The static analyzer uses it
// to show inferred type/cardinality annotations per operator.
func ExplainWith(op Op, annotate func(Op) string) string {
	var b strings.Builder
	var walk func(op Op, depth int)
	walk = func(op Op, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(op.Label())
		if s := annotate(op); s != "" {
			b.WriteString("  [" + s + "]")
		}
		b.WriteByte('\n')
		for _, c := range op.Children() {
			walk(c, depth+1)
		}
	}
	walk(op, 0)
	return b.String()
}

// Walk visits op and all descendants pre-order; returning false prunes.
func Walk(op Op, f func(Op) bool) {
	if op == nil || !f(op) {
		return
	}
	for _, c := range op.Children() {
		Walk(c, f)
	}
}

// Count returns the number of operators in the plan matching pred.
func Count(op Op, pred func(Op) bool) int {
	n := 0
	Walk(op, func(o Op) bool {
		if pred(o) {
			n++
		}
		return true
	})
	return n
}
