package core

import (
	"strings"
	"testing"

	"xqp/internal/ast"
	"xqp/internal/join"
	"xqp/internal/nok"
	"xqp/internal/parser"
	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/value"
)

const bibXML = `<bib>
  <book year="1994"><title>T1</title><author><last>Stevens</last></author><price>65.95</price></book>
  <book year="2000"><title>T2</title><author><last>Abiteboul</last></author><author><last>Buneman</last></author><price>39.95</price></book>
</bib>`

func nodesOf(st *storage.Store, refs []storage.NodeRef) value.Sequence {
	out := make(value.Sequence, len(refs))
	for i, r := range refs {
		out[i] = value.Node{Store: st, Ref: r}
	}
	return out
}

// --- Table 1 operator functions ---

func TestSelectTag(t *testing.T) {
	st := storage.MustLoad(bibXML)
	all := nodesOf(st, st.ElementRefs("book"))
	all = append(all, nodesOf(st, st.ElementRefs("title"))...)
	got := SelectTag(all, "title")
	if len(got) != 2 {
		t.Fatalf("σs(title) = %d, want 2", len(got))
	}
	if len(SelectTag(value.Sequence{value.Int(1)}, "x")) != 0 {
		t.Fatal("σs over atomic should select nothing")
	}
}

func TestSelectValue(t *testing.T) {
	st := storage.MustLoad(bibXML)
	prices := nodesOf(st, st.ElementRefs("price"))
	got := SelectValue(prices, value.CmpLt, value.Int(50))
	if len(got) != 1 {
		t.Fatalf("σv(price < 50) = %d, want 1", len(got))
	}
}

func TestStructuralJoinOps(t *testing.T) {
	st := storage.MustLoad(bibXML)
	books := nodesOf(st, st.ElementRefs("book"))
	lasts := nodesOf(st, st.ElementRefs("last"))
	got, err := join.StructuralJoin(books, lasts, pattern.RelDescendant)
	if err != nil || len(got) != 3 {
		t.Fatalf("⋈s desc = %v (%v)", got, err)
	}
	semi, err := join.StructuralSemiJoin(books, lasts, pattern.RelDescendant)
	if err != nil || len(semi) != 2 {
		t.Fatalf("semi ⋈s = %v (%v)", semi, err)
	}
	if _, err := join.StructuralJoin(value.Sequence{value.Int(1)}, lasts, pattern.RelChild); err == nil {
		t.Fatal("⋈s over atomics did not error")
	}
	// Empty inputs are fine.
	if got, err := join.StructuralJoin(nil, lasts, pattern.RelChild); err != nil || got != nil {
		t.Fatalf("empty join = %v (%v)", got, err)
	}
}

func TestValueJoin(t *testing.T) {
	l := value.Sequence{value.Int(1), value.Int(5), value.Int(9)}
	r := value.Sequence{value.Int(5), value.Int(9)}
	got, err := ValueJoin(l, r, value.CmpEq)
	if err != nil || len(got) != 2 {
		t.Fatalf("⋈v = %v (%v)", got, err)
	}
}

func TestTPMOperator(t *testing.T) {
	st := storage.MustLoad(bibXML)
	g, err := PatternOf("//book[price]/author")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := nok.MatchNested(st, g, []storage.NodeRef{st.Root()})
	if err != nil {
		t.Fatal(err)
	}
	if nl.Size() != 3 {
		t.Fatalf("τ matches = %d, want 3", nl.Size())
	}
}

func TestNavigateStepAxes(t *testing.T) {
	st := storage.MustLoad(bibXML)
	bib := nodesOf(st, []storage.NodeRef{st.DocumentElement()})
	books, err := NavigateStep(bib, ast.AxisChild, ast.NodeTest{Kind: ast.TestName, Name: "book"})
	if err != nil || len(books) != 2 {
		t.Fatalf("child::book = %d (%v)", len(books), err)
	}
	// descendant
	lasts, err := NavigateStep(bib, ast.AxisDescendant, ast.NodeTest{Kind: ast.TestName, Name: "last"})
	if err != nil || len(lasts) != 3 {
		t.Fatalf("descendant::last = %d", len(lasts))
	}
	// parent
	up, err := NavigateStep(books, ast.AxisParent, ast.NodeTest{Kind: ast.TestName, Name: "*"})
	if err != nil || len(up) != 1 {
		t.Fatalf("parent = %d", len(up))
	}
	// ancestor-or-self from last
	anc, err := NavigateStep(lasts[:1], ast.AxisAncestorOrSelf, ast.NodeTest{Kind: ast.TestNode})
	if err != nil || len(anc) != 5 {
		t.Fatalf("ancestor-or-self = %d, want 5 (last,author,book,bib,root)", len(anc))
	}
	// attribute
	attrs, err := NavigateStep(books, ast.AxisAttribute, ast.NodeTest{Kind: ast.TestName, Name: "year"})
	if err != nil || len(attrs) != 2 {
		t.Fatalf("@year = %d", len(attrs))
	}
	// siblings
	titles, _ := NavigateStep(books[:1], ast.AxisChild, ast.NodeTest{Kind: ast.TestName, Name: "title"})
	foll, err := NavigateStep(titles, ast.AxisFollowingSibling, ast.NodeTest{Kind: ast.TestName, Name: "*"})
	if err != nil || len(foll) != 2 {
		t.Fatalf("following-sibling = %d, want 2 (author, price)", len(foll))
	}
	prec, err := NavigateStep(foll[len(foll)-1:], ast.AxisPrecedingSibling, ast.NodeTest{Kind: ast.TestName, Name: "*"})
	if err != nil || len(prec) != 2 {
		t.Fatalf("preceding-sibling = %d, want 2", len(prec))
	}
	// text()
	txt, err := NavigateStep(titles, ast.AxisChild, ast.NodeTest{Kind: ast.TestText})
	if err != nil || len(txt) != 1 {
		t.Fatalf("text() = %d", len(txt))
	}
	// self
	self, err := NavigateStep(books, ast.AxisSelf, ast.NodeTest{Kind: ast.TestName, Name: "book"})
	if err != nil || len(self) != 2 {
		t.Fatalf("self::book = %d", len(self))
	}
	// atomics error
	if _, err := NavigateStep(value.Sequence{value.Int(1)}, ast.AxisChild, ast.NodeTest{Kind: ast.TestNode}); err == nil {
		t.Fatal("πs over atomic did not error")
	}
}

// --- Env (Definition 3 / Example 1) ---

func TestEnvExample1(t *testing.T) {
	// The paper's Example 1: for $a in E1, $b in E2 let $c := E3, $d := E4
	// for $e in E5 return E6, instantiated to yield exactly 13 total
	// bindings: |E5| per (a,b) pair = 3,2,2,2,3,1 over pairs
	// (a1,b11),(a1,b12),(a2,b21),(a3,b31),(a3,b32),(a3,b33).
	env := NewEnv(nil)
	e1 := value.Sequence{value.Str("a1"), value.Str("a2"), value.Str("a3")}
	e2 := map[string]value.Sequence{
		"a1": {value.Str("b11"), value.Str("b12")},
		"a2": {value.Str("b21")},
		"a3": {value.Str("b31"), value.Str("b32"), value.Str("b33")},
	}
	e5 := map[string]int{"b11": 3, "b12": 2, "b21": 2, "b31": 2, "b32": 3, "b33": 1}
	if err := env.ExtendFor("a", "", func(Binding) (value.Sequence, error) { return e1, nil }); err != nil {
		t.Fatal(err)
	}
	if err := env.ExtendFor("b", "", func(b Binding) (value.Sequence, error) {
		a, _ := b.Lookup("a")
		return e2[a.String()], nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := env.ExtendLet("c", func(b Binding) (value.Sequence, error) {
		return value.Singleton(value.Str("c")), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := env.ExtendLet("d", func(b Binding) (value.Sequence, error) {
		return value.Sequence{value.Str("d1"), value.Str("d2")}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := env.ExtendFor("e", "", func(b Binding) (value.Sequence, error) {
		bv, _ := b.Lookup("b")
		n := e5[bv.String()]
		var out value.Sequence
		for i := 0; i < n; i++ {
			out = append(out, value.Int(int64(i)))
		}
		return out, nil
	}); err != nil {
		t.Fatal(err)
	}
	if env.Size() != 13 {
		t.Fatalf("total bindings = %d, want 13 (the paper's Example 1)", env.Size())
	}
	if env.Depth() != 5 {
		t.Fatalf("layers = %d, want 5", env.Depth())
	}
	// let binds the whole sequence.
	d, ok := env.Paths()[0].Lookup("d")
	if !ok || len(d) != 2 {
		t.Fatalf("$d = %v", d)
	}
	if !strings.Contains(env.String(), "total bindings: 13") {
		t.Fatalf("env string = %s", env.String())
	}
}

func TestEnvFilterAndSort(t *testing.T) {
	env := NewEnv(nil)
	seq := value.Sequence{value.Int(3), value.Int(1), value.Int(2)}
	if err := env.ExtendFor("x", "i", func(Binding) (value.Sequence, error) { return seq, nil }); err != nil {
		t.Fatal(err)
	}
	// Positional variable.
	x0 := env.Paths()[0]
	if i, ok := x0.Lookup("i"); !ok || i[0] != value.Int(1) {
		t.Fatalf("$i = %v", i)
	}
	if err := env.Filter(func(b Binding) (bool, error) {
		x, _ := b.Lookup("x")
		return value.NumberOf(x[0]) >= 2, nil
	}); err != nil {
		t.Fatal(err)
	}
	if env.Size() != 2 {
		t.Fatalf("filtered size = %d", env.Size())
	}
	err := env.SortBy(
		[]func(Binding) (value.Sequence, error){func(b Binding) (value.Sequence, error) {
			x, _ := b.Lookup("x")
			return x, nil
		}},
		[]bool{false}, []bool{true},
	)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := env.Paths()[0].Lookup("x")
	if x[0] != value.Int(2) {
		t.Fatalf("sorted first = %v", x)
	}
}

func TestEnvOuterScope(t *testing.T) {
	outer := func(name string) (value.Sequence, bool) {
		if name == "g" {
			return value.Singleton(value.Str("G")), true
		}
		return nil, false
	}
	env := NewEnv(outer)
	if err := env.ExtendFor("x", "", func(b Binding) (value.Sequence, error) {
		g, ok := b.Lookup("g")
		if !ok {
			t.Fatal("outer variable invisible during extension")
		}
		return g, nil
	}); err != nil {
		t.Fatal(err)
	}
	v, ok := env.Paths()[0].Lookup("g")
	if !ok || v[0].String() != "G" {
		t.Fatalf("outer lookup = %v", v)
	}
	if _, ok := env.Paths()[0].Lookup("missing"); ok {
		t.Fatal("missing var found")
	}
}

func TestEnvEmptyForPrunes(t *testing.T) {
	env := NewEnv(nil)
	_ = env.ExtendFor("x", "", func(Binding) (value.Sequence, error) {
		return value.Sequence{value.Int(1), value.Int(2)}, nil
	})
	_ = env.ExtendFor("y", "", func(b Binding) (value.Sequence, error) {
		x, _ := b.Lookup("x")
		if x[0] == value.Int(1) {
			return nil, nil // no bindings under x=1
		}
		return value.Singleton(value.Int(9)), nil
	})
	if env.Size() != 1 {
		t.Fatalf("size = %d, want 1", env.Size())
	}
}

// --- Translation ---

func TestTranslateShapes(t *testing.T) {
	cases := []struct {
		src  string
		want string // operator type fragment expected in Explain
	}{
		{`/bib/book`, "πs-chain"},
		{`1 + 2`, "arith"},
		{`"x"`, "const"},
		{`$v`, "$v"},
		{`count(/a)`, "fn:count"},
		{`for $x in /a return $x`, "flwor"},
		{`if (1) then 2 else 3`, "if"},
		{`some $x in /a satisfies $x`, "some"},
		{`<r>{1}</r>`, "γ"},
		{`/a | /b`, "union"},
		{`1 to 5`, "range"},
		{`doc("x")/a`, `doc("x")`},
	}
	for _, c := range cases {
		e, err := parser.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		op, err := Translate(e)
		if err != nil {
			t.Fatalf("translate %q: %v", c.src, err)
		}
		if !strings.Contains(Explain(op), c.want) {
			t.Errorf("Explain(%q) missing %q:\n%s", c.src, c.want, Explain(op))
		}
	}
}

func TestTranslateDocRequiresLiteral(t *testing.T) {
	e, err := parser.Parse(`doc($x)/a`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Translate(e); err == nil {
		t.Fatal("doc($x) translated, want error")
	}
}

func TestSchemaTreeExtraction(t *testing.T) {
	e, err := parser.Parse(`<results><result id="{$i}">{$t} text</result></results>`)
	if err != nil {
		t.Fatal(err)
	}
	op, err := Translate(e)
	if err != nil {
		t.Fatal(err)
	}
	ctor, ok := op.(*ConstructOp)
	if !ok {
		t.Fatalf("translated to %T", op)
	}
	if ctor.Schema.PlaceholderCount() != 2 {
		t.Fatalf("placeholders = %d, want 2", ctor.Schema.PlaceholderCount())
	}
	sum := ctor.Schema.Summary()
	if !strings.Contains(sum, "<results>") || !strings.Contains(sum, "@id") {
		t.Fatalf("summary = %s", sum)
	}
}

func TestWalkAndCount(t *testing.T) {
	e, _ := parser.Parse(`for $b in /bib/book where $b/price < 50 return <r>{$b/title}</r>`)
	op, err := Translate(e)
	if err != nil {
		t.Fatal(err)
	}
	paths := Count(op, func(o Op) bool { _, ok := o.(*PathOp); return ok })
	if paths != 3 {
		t.Fatalf("PathOps = %d, want 3", paths)
	}
	total := Count(op, func(Op) bool { return true })
	if total < 8 {
		t.Fatalf("plan ops = %d, implausibly few", total)
	}
}

func TestBuildTreeGamma(t *testing.T) {
	st := storage.MustLoad(bibXML)
	titleRefs := st.ElementRefs("title")
	schema := &SchemaTree{Root: &SchemaNode{
		Kind: SchemaElement, Name: "out",
		Children: []*SchemaNode{
			{Kind: SchemaAttribute, Name: "n", Parts: []SchemaPart{{Lit: "v"}}},
			{Kind: SchemaText, Text: "x"},
			{Kind: SchemaPlaceholder, Expr: &ConstOp{Seq: nodesOf(st, titleRefs[:1])}},
			{Kind: SchemaIf, Expr: &ConstOp{Seq: value.Singleton(value.Bool(false))},
				Children: []*SchemaNode{{Kind: SchemaText, Text: "hidden"}}},
		},
	}}
	doc, err := BuildTree(schema, func(op Op) (value.Sequence, error) {
		return op.(*ConstOp).Seq, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := doc.XMLString(doc.Root())
	want := `<out n="v">x<title>T1</title></out>`
	if got != want {
		t.Fatalf("γ output = %s, want %s", got, want)
	}
}

func TestBuildTreeAtomicSpacing(t *testing.T) {
	schema := &SchemaTree{Root: &SchemaNode{
		Kind: SchemaElement, Name: "o",
		Children: []*SchemaNode{
			{Kind: SchemaPlaceholder, Expr: &ConstOp{Seq: value.Sequence{value.Int(1), value.Int(2)}}},
		},
	}}
	doc, err := BuildTree(schema, func(op Op) (value.Sequence, error) {
		return op.(*ConstOp).Seq, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.XMLString(doc.Root()); got != "<o>1 2</o>" {
		t.Fatalf("spacing = %s", got)
	}
}
