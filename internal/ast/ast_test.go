package ast

import (
	"strings"
	"testing"
)

func TestAxisStrings(t *testing.T) {
	all := []Axis{
		AxisChild, AxisDescendant, AxisDescendantOrSelf, AxisSelf,
		AxisParent, AxisAncestor, AxisAncestorOrSelf, AxisAttribute,
		AxisFollowingSibling, AxisPrecedingSibling,
	}
	seen := map[string]bool{}
	for _, a := range all {
		s := a.String()
		if s == "" || seen[s] {
			t.Fatalf("axis %d: bad or duplicate name %q", a, s)
		}
		seen[s] = true
	}
	if !AxisParent.Reverse() || AxisChild.Reverse() {
		t.Fatal("Reverse() wrong")
	}
}

func TestNodeTestStrings(t *testing.T) {
	cases := []struct {
		t    NodeTest
		want string
	}{
		{NodeTest{Kind: TestName, Name: "a"}, "a"},
		{NodeTest{Kind: TestName, Name: "*"}, "*"},
		{NodeTest{Kind: TestText}, "text()"},
		{NodeTest{Kind: TestNode}, "node()"},
		{NodeTest{Kind: TestComment}, "comment()"},
		{NodeTest{Kind: TestPI}, "processing-instruction()"},
		{NodeTest{Kind: TestPI, Name: "x"}, `processing-instruction("x")`},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%v = %q, want %q", c.t, got, c.want)
		}
	}
}

func TestBinOpStrings(t *testing.T) {
	for op := OpOr; op <= OpTo; op++ {
		if op.String() == "?" {
			t.Fatalf("op %d has no name", op)
		}
	}
	if !OpEq.Comparison() || OpAdd.Comparison() {
		t.Fatal("Comparison() wrong")
	}
}

func TestExprStrings(t *testing.T) {
	e := &FLWOR{
		Clauses: []Clause{
			{Kind: ClauseFor, Var: "b", Expr: &PathExpr{Rooted: true, Steps: []Step{{Axis: AxisChild, Test: NodeTest{Kind: TestName, Name: "bib"}}}}},
			{Kind: ClauseLet, Var: "t", Expr: &VarRef{Name: "b"}},
		},
		Where:   &Binary{Op: OpGt, L: &VarRef{Name: "t"}, R: &NumberLit{Val: 3, IsInt: true, Int: 3}},
		OrderBy: []OrderSpec{{Key: &VarRef{Name: "t"}, Descending: true}},
		Return:  &ElementCtor{Name: "r", Content: []ContentItem{{Expr: &VarRef{Name: "t"}}}},
	}
	s := e.String()
	for _, want := range []string{"for $b", "let $t", "where", "order by", "descending", "return", "<r>"} {
		if !strings.Contains(s, want) {
			t.Errorf("FLWOR string missing %q: %s", want, s)
		}
	}
	q := &Quantified{Kind: QuantEvery, Bindings: []QuantBinding{{Var: "x", In: &ContextItem{}}}, Satisfies: &EmptySeq{}}
	if !strings.Contains(q.String(), "every $x in .") {
		t.Errorf("quantified string = %s", q)
	}
	iff := &If{Cond: &FuncCall{Name: "true"}, Then: &NumberLit{Val: 1, IsInt: true, Int: 1}, Else: &NumberLit{Val: 2.5}}
	if iff.String() != "if (true()) then 1 else 2.5" {
		t.Errorf("if string = %s", iff)
	}
	cc := &ComputedCtor{Kind: "element", Name: "x", Content: &StringLit{Val: "v"}}
	if !strings.Contains(cc.String(), `element x { "v" }`) {
		t.Errorf("computed ctor = %s", cc)
	}
	u := &Unary{Neg: true, X: &NumberLit{Val: 4, IsInt: true, Int: 4}}
	if u.String() != "(-4)" {
		t.Errorf("unary = %s", u)
	}
	sq := &SequenceExpr{Items: []Expr{&NumberLit{Val: 1, IsInt: true, Int: 1}, &StringLit{Val: "a"}}}
	if sq.String() != `(1, "a")` {
		t.Errorf("sequence = %s", sq)
	}
}

func TestClauseAndOrderSpecString(t *testing.T) {
	c := Clause{Kind: ClauseFor, Var: "x", PosVar: "i", Expr: &EmptySeq{}}
	if c.String() != "for $x at $i in ()" {
		t.Errorf("clause = %s", c.String())
	}
	o := OrderSpec{Key: &VarRef{Name: "k"}, Descending: true}
	if o.String() != "$k descending" {
		t.Errorf("orderspec = %s", o.String())
	}
}
