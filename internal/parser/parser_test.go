package parser

import (
	"errors"
	"strings"
	"testing"

	"xqp/internal/ast"
)

// parseOK parses src and fails the test on error.
func parseOK(t *testing.T, src string) ast.Expr {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return e
}

func TestParsePaths(t *testing.T) {
	cases := []struct {
		src  string
		want string // rendered AST
	}{
		{"/bib/book", "/bib/book"},
		{"/bib/book/title", "/bib/book/title"},
		{"book", "book"},
		{"./book", "./book"},
		{"@year", "@year"},
		{"book/@year", "book/@year"},
		{"*", "*"},
		{"/a/*/c", "/a/*/c"},
		{"..", ".."},
		{"../title", "../title"},
		{"child::book", "book"},
		{"descendant::price", "descendant::price"},
		{"ancestor::book", "ancestor::book"},
		{"following-sibling::book", "following-sibling::book"},
		{"preceding-sibling::book", "preceding-sibling::book"},
		{"self::book", "self::book"},
		{"text()", "text()"},
		{"node()", "node()"},
		{"comment()", "comment()"},
		{"a/text()", "a/text()"},
	}
	for _, c := range cases {
		e := parseOK(t, c.src)
		if got := e.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestParseDescendantAbbrev(t *testing.T) {
	e := parseOK(t, "//book")
	pe, ok := e.(*ast.PathExpr)
	if !ok || !pe.Rooted || len(pe.Steps) != 2 {
		t.Fatalf("//book parsed as %#v", e)
	}
	if pe.Steps[0].Axis != ast.AxisDescendantOrSelf || pe.Steps[0].Test.Kind != ast.TestNode {
		t.Errorf("first step of // is %v", pe.Steps[0])
	}
	if pe.Steps[1].Axis != ast.AxisChild || pe.Steps[1].Test.Name != "book" {
		t.Errorf("second step of // is %v", pe.Steps[1])
	}
	e2 := parseOK(t, "a//b")
	pe2 := e2.(*ast.PathExpr)
	if len(pe2.Steps) != 3 {
		t.Fatalf("a//b has %d steps", len(pe2.Steps))
	}
}

func TestParsePredicates(t *testing.T) {
	e := parseOK(t, `/bib/book[price < 60][@year = "2000"]`)
	pe := e.(*ast.PathExpr)
	if len(pe.Steps) != 2 || len(pe.Steps[1].Preds) != 2 {
		t.Fatalf("wrong shape: %s", e)
	}
	// Positional predicate.
	e2 := parseOK(t, "book[1]")
	pe2 := e2.(*ast.PathExpr)
	if len(pe2.Steps[0].Preds) != 1 {
		t.Fatalf("book[1] predicates = %d", len(pe2.Steps[0].Preds))
	}
	if _, ok := pe2.Steps[0].Preds[0].(*ast.NumberLit); !ok {
		t.Fatalf("book[1] predicate is %T", pe2.Steps[0].Preds[0])
	}
}

func TestParseRootOnly(t *testing.T) {
	e := parseOK(t, "/")
	pe, ok := e.(*ast.PathExpr)
	if !ok || !pe.Rooted || len(pe.Steps) != 0 {
		t.Fatalf("/ parsed as %#v", e)
	}
}

func TestParsePathWithBase(t *testing.T) {
	e := parseOK(t, `doc("bib.xml")/bib/book`)
	pe, ok := e.(*ast.PathExpr)
	if !ok {
		t.Fatalf("parsed as %T", e)
	}
	fc, ok := pe.Base.(*ast.FuncCall)
	if !ok || fc.Name != "doc" || len(fc.Args) != 1 {
		t.Fatalf("base = %#v", pe.Base)
	}
	if len(pe.Steps) != 2 {
		t.Fatalf("steps = %d", len(pe.Steps))
	}
	e2 := parseOK(t, "$b/title")
	pe2 := e2.(*ast.PathExpr)
	if _, ok := pe2.Base.(*ast.VarRef); !ok {
		t.Fatalf("$b/title base = %#v", pe2.Base)
	}
}

func TestParseFLWOR(t *testing.T) {
	src := `for $b in /bib/book
	        let $t := $b/title
	        where $b/price > 50
	        order by $t descending
	        return $t`
	e := parseOK(t, src)
	f, ok := e.(*ast.FLWOR)
	if !ok {
		t.Fatalf("parsed as %T", e)
	}
	if len(f.Clauses) != 2 || f.Clauses[0].Kind != ast.ClauseFor || f.Clauses[1].Kind != ast.ClauseLet {
		t.Fatalf("clauses: %v", f.Clauses)
	}
	if f.Where == nil || len(f.OrderBy) != 1 || !f.OrderBy[0].Descending {
		t.Fatalf("where/order wrong: %v / %v", f.Where, f.OrderBy)
	}
	if f.Return == nil {
		t.Fatal("no return")
	}
}

func TestParseFLWORMultiBinding(t *testing.T) {
	e := parseOK(t, "for $a in 1 to 3, $b in 4 to 6 return $a + $b")
	f := e.(*ast.FLWOR)
	if len(f.Clauses) != 2 {
		t.Fatalf("clauses = %d, want 2", len(f.Clauses))
	}
}

func TestParseForAt(t *testing.T) {
	e := parseOK(t, "for $x at $i in /a/b return $i")
	f := e.(*ast.FLWOR)
	if f.Clauses[0].PosVar != "i" {
		t.Fatalf("pos var = %q", f.Clauses[0].PosVar)
	}
}

func TestParseNestedFLWOR(t *testing.T) {
	src := `for $a in /x/a return for $b in $a/b return $b`
	e := parseOK(t, src)
	f := e.(*ast.FLWOR)
	if _, ok := f.Return.(*ast.FLWOR); !ok {
		t.Fatalf("nested return is %T", f.Return)
	}
}

func TestParseQuantified(t *testing.T) {
	e := parseOK(t, `some $x in /a/b satisfies $x/c = "v"`)
	q, ok := e.(*ast.Quantified)
	if !ok || q.Kind != ast.QuantSome || len(q.Bindings) != 1 {
		t.Fatalf("parsed as %#v", e)
	}
	e2 := parseOK(t, `every $x in /a/b, $y in /a/c satisfies $x = $y`)
	q2 := e2.(*ast.Quantified)
	if q2.Kind != ast.QuantEvery || len(q2.Bindings) != 2 {
		t.Fatalf("every parsed as %#v", e2)
	}
}

func TestParseIf(t *testing.T) {
	e := parseOK(t, `if ($x > 1) then "big" else "small"`)
	i, ok := e.(*ast.If)
	if !ok {
		t.Fatalf("parsed as %T", e)
	}
	if _, ok := i.Cond.(*ast.Binary); !ok {
		t.Fatalf("cond is %T", i.Cond)
	}
}

func TestIfAsElementName(t *testing.T) {
	// "if" not followed by "(" is a name test.
	e := parseOK(t, "/a/if")
	pe := e.(*ast.PathExpr)
	if pe.Steps[1].Test.Name != "if" {
		t.Fatalf("step = %v", pe.Steps[1])
	}
}

func TestParseOperatorsPrecedence(t *testing.T) {
	e := parseOK(t, "1 + 2 * 3")
	b := e.(*ast.Binary)
	if b.Op != ast.OpAdd {
		t.Fatalf("top op = %v", b.Op)
	}
	if r, ok := b.R.(*ast.Binary); !ok || r.Op != ast.OpMul {
		t.Fatalf("right = %v", b.R)
	}
	e2 := parseOK(t, "1 < 2 and 3 >= 2 or not(4 != 5)")
	if e2.(*ast.Binary).Op != ast.OpOr {
		t.Fatal("or not at top")
	}
	e3 := parseOK(t, "6 div 2 mod 2 idiv 1")
	_ = e3.(*ast.Binary)
	e4 := parseOK(t, "1 to 10")
	if e4.(*ast.Binary).Op != ast.OpTo {
		t.Fatal("to not parsed")
	}
	e5 := parseOK(t, "-$x + 2")
	if e5.(*ast.Binary).Op != ast.OpAdd {
		t.Fatal("unary minus binds wrong")
	}
	e6 := parseOK(t, "a | b union c")
	if e6.(*ast.Binary).Op != ast.OpUnion {
		t.Fatal("union not parsed")
	}
	e7 := parseOK(t, "$a eq $b")
	if e7.(*ast.Binary).Op != ast.OpEq {
		t.Fatal("eq not parsed")
	}
}

func TestParseFunctionCalls(t *testing.T) {
	e := parseOK(t, `count(/bib/book)`)
	fc := e.(*ast.FuncCall)
	if fc.Name != "count" || len(fc.Args) != 1 {
		t.Fatalf("count call = %#v", fc)
	}
	e2 := parseOK(t, `concat("a", "b", "c")`)
	if len(e2.(*ast.FuncCall).Args) != 3 {
		t.Fatal("concat args wrong")
	}
	e3 := parseOK(t, `true()`)
	if len(e3.(*ast.FuncCall).Args) != 0 {
		t.Fatal("true() args wrong")
	}
	e4 := parseOK(t, `fn:count($x)`)
	if e4.(*ast.FuncCall).Name != "count" {
		t.Fatal("fn: prefix not stripped")
	}
}

func TestParseSequences(t *testing.T) {
	e := parseOK(t, "(1, 2, 3)")
	s, ok := e.(*ast.SequenceExpr)
	if !ok || len(s.Items) != 3 {
		t.Fatalf("sequence = %#v", e)
	}
	if _, ok := parseOK(t, "()").(*ast.EmptySeq); !ok {
		t.Fatal("() not EmptySeq")
	}
}

func TestParseStringEscapes(t *testing.T) {
	e := parseOK(t, `"he said ""hi"""`)
	if e.(*ast.StringLit).Val != `he said "hi"` {
		t.Fatalf("string = %q", e.(*ast.StringLit).Val)
	}
	e2 := parseOK(t, `'it''s'`)
	if e2.(*ast.StringLit).Val != "it's" {
		t.Fatalf("string = %q", e2.(*ast.StringLit).Val)
	}
}

func TestParseNumbers(t *testing.T) {
	if n := parseOK(t, "42").(*ast.NumberLit); n.Val != 42 || !n.IsInt {
		t.Fatalf("42 = %#v", n)
	}
	if n := parseOK(t, "3.14").(*ast.NumberLit); n.Val != 3.14 || n.IsInt {
		t.Fatalf("3.14 = %#v", n)
	}
	if n := parseOK(t, "1e3").(*ast.NumberLit); n.Val != 1000 {
		t.Fatalf("1e3 = %#v", n)
	}
	if n := parseOK(t, ".5").(*ast.NumberLit); n.Val != 0.5 {
		t.Fatalf(".5 = %#v", n)
	}
}

// TestParseIntegerLiterals: integer literals are read exactly, and one
// outside the int64 range is a positioned FOAR0002 error.
func TestParseIntegerLiterals(t *testing.T) {
	if n := parseOK(t, "9007199254740993").(*ast.NumberLit); n.Int != 9007199254740993 || !n.IsInt {
		t.Fatalf("9007199254740993 = %#v", n)
	}
	if n := parseOK(t, "9223372036854775807").(*ast.NumberLit); n.Int != 9223372036854775807 {
		t.Fatalf("9223372036854775807 = %#v", n)
	}
	_, err := Parse("1 + 9223372036854775808")
	var se *SyntaxError
	if !errors.As(err, &se) || se.Col != 5 || !strings.Contains(se.Msg, "FOAR0002") {
		t.Fatalf("err = %v, want FOAR0002 at column 5", err)
	}
}

// TestParseDepthLimit: nesting up to MaxDepth levels parses; one more
// is a positioned syntax error, not a stack overflow, and so is a
// nesting far deeper than the goroutine stack could hold.
func TestParseDepthLimit(t *testing.T) {
	nest := func(open, close string, n int) string {
		return strings.Repeat(open, n) + "1" + strings.Repeat(close, n)
	}
	// The outermost expression is the first level.
	for _, c := range [][2]string{{"(", ")"}, {"(1+", ")"}, {"count(", ")"}, {"<e>{", "}</e>"}} {
		levels := MaxDepth - 1
		if c[0] == "<e>{" {
			levels = (MaxDepth - 1) / 2 // an element and its enclosed expression
		}
		parseOK(t, nest(c[0], c[1], levels))
		_, err := Parse(nest(c[0], c[1], levels+1))
		var se *SyntaxError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "nests deeper than") {
			t.Fatalf("%s×%d: err = %v, want a depth error", c[0], levels+1, err)
		}
	}
	_, err := Parse(nest("(", ")", MaxDepth))
	var se *SyntaxError
	if !errors.As(err, &se) || se.Pos != MaxDepth {
		t.Fatalf("err = %v, want a depth error at the innermost literal, offset %d", err, MaxDepth)
	}
	if _, err := Parse(nest("(", ")", 2000000)); err == nil {
		t.Fatal("2 000 000 levels parsed")
	}
}

func TestParseComments(t *testing.T) {
	e := parseOK(t, "(: outer (: nested :) still :) 7")
	if e.(*ast.NumberLit).Val != 7 {
		t.Fatal("comment not skipped")
	}
}

func TestParseDirectConstructor(t *testing.T) {
	e := parseOK(t, `<result id="{$i}" kind="x">{$t} and <b>bold</b> text</result>`)
	c, ok := e.(*ast.ElementCtor)
	if !ok {
		t.Fatalf("parsed as %T", e)
	}
	if c.Name != "result" || len(c.Attrs) != 2 {
		t.Fatalf("ctor shape: %#v", c)
	}
	if c.Attrs[0].Name != "id" || c.Attrs[0].Parts[0].Expr == nil {
		t.Fatalf("attr id: %#v", c.Attrs[0])
	}
	if c.Attrs[1].Parts[0].Lit != "x" {
		t.Fatalf("attr kind: %#v", c.Attrs[1])
	}
	// Content: {$t}, " and ", <b>, " text"
	if len(c.Content) != 4 {
		t.Fatalf("content items = %d: %#v", len(c.Content), c.Content)
	}
	if c.Content[0].Expr == nil || c.Content[2].Child == nil {
		t.Fatalf("content wrong: %#v", c.Content)
	}
	if c.Content[2].Child.Name != "b" {
		t.Fatalf("nested child: %#v", c.Content[2].Child)
	}
}

func TestParseEmptyElementConstructor(t *testing.T) {
	e := parseOK(t, `<br/>`)
	c := e.(*ast.ElementCtor)
	if c.Name != "br" || len(c.Content) != 0 {
		t.Fatalf("br = %#v", c)
	}
}

func TestParseFig1Query(t *testing.T) {
	// The paper's Fig. 1(a) query.
	src := `<results> {
	  for $b in doc("bib.xml")/bib/book
	  let $t := $b/title
	  let $a := $b/author
	  return <result> {$t} {$a} </result>
	} </results>`
	e := parseOK(t, src)
	c, ok := e.(*ast.ElementCtor)
	if !ok || c.Name != "results" {
		t.Fatalf("parsed as %#v", e)
	}
	if len(c.Content) != 1 || c.Content[0].Expr == nil {
		t.Fatalf("results content: %#v", c.Content)
	}
	f, ok := c.Content[0].Expr.(*ast.FLWOR)
	if !ok || len(f.Clauses) != 3 {
		t.Fatalf("inner FLWOR: %#v", c.Content[0].Expr)
	}
	inner, ok := f.Return.(*ast.ElementCtor)
	if !ok || inner.Name != "result" || len(inner.Content) != 2 {
		t.Fatalf("inner ctor: %#v", f.Return)
	}
}

func TestParseConstructorEscapes(t *testing.T) {
	e := parseOK(t, `<a>x {{literal}} &amp; &#65;&#x42;</a>`)
	c := e.(*ast.ElementCtor)
	if len(c.Content) != 1 {
		t.Fatalf("content = %#v", c.Content)
	}
	if got := c.Content[0].Lit; got != "x {literal} & AB" {
		t.Fatalf("lit = %q", got)
	}
}

func TestParseCDATAAndComments(t *testing.T) {
	e := parseOK(t, `<a><!-- skip --><![CDATA[<raw>]]></a>`)
	c := e.(*ast.ElementCtor)
	if len(c.Content) != 1 || c.Content[0].Lit != "<raw>" {
		t.Fatalf("content = %#v", c.Content)
	}
}

func TestParseComputedConstructors(t *testing.T) {
	e := parseOK(t, `element result { $x }`)
	c, ok := e.(*ast.ComputedCtor)
	if !ok || c.Kind != "element" || c.Name != "result" {
		t.Fatalf("parsed as %#v", e)
	}
	e2 := parseOK(t, `attribute id { 42 }`)
	if e2.(*ast.ComputedCtor).Kind != "attribute" {
		t.Fatal("attribute ctor wrong")
	}
	e3 := parseOK(t, `text { "hi" }`)
	if e3.(*ast.ComputedCtor).Kind != "text" {
		t.Fatal("text ctor wrong")
	}
	e4 := parseOK(t, `element empty {}`)
	if e4.(*ast.ComputedCtor).Content != nil {
		t.Fatal("empty ctor content not nil")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"for $x in",
		"for x in /a return $x",
		"let $x = 3 return $x", // = instead of :=
		"/a[",
		"1 +",
		`"unterminated`,
		"(: unterminated",
		"<a>{1}<b></a>",
		"<a x=1/>",
		"some $x in /a",
		"if (1) then 2",
		"$",
		"/a]",
		"element { 1 }",
		"count(1,)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		} else if _, ok := err.(*SyntaxError); !ok {
			t.Errorf("Parse(%q) error is %T, want *SyntaxError", src, err)
		}
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse("for $x in\n  /a return")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error = %T", err)
	}
	if se.Line < 1 || !strings.Contains(se.Error(), "line") {
		t.Fatalf("error = %v", se)
	}
}

func TestParseKeywordsAsNames(t *testing.T) {
	// Keywords usable as element names in paths.
	for _, src := range []string{"/return", "/for/let", "/where", "a/order/by", "/some/every"} {
		parseOK(t, src)
	}
}

func TestStringRendersParseable(t *testing.T) {
	// AST printing round-trips through the parser (idempotent rendering).
	srcs := []string{
		"/bib/book[price < 50]/title",
		"for $b in /bib/book return $b/title",
		`if ($x) then 1 else 2`,
		`some $x in /a satisfies $x = 1`,
		"count(/a/b) + 1",
		"(1, 2, 3)",
	}
	for _, src := range srcs {
		e1 := parseOK(t, src)
		e2 := parseOK(t, e1.String())
		if e1.String() != e2.String() {
			t.Errorf("rendering not idempotent: %q -> %q -> %q", src, e1.String(), e2.String())
		}
	}
}

func BenchmarkParseFLWOR(b *testing.B) {
	src := `for $b in doc("bib.xml")/bib/book
	        let $t := $b/title
	        where $b/price > 50 and $b/@year >= 1990
	        order by $t
	        return <result>{$t}{$b/author}</result>`
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func TestParseIntersectExcept(t *testing.T) {
	e := parseOK(t, "/a/b intersect /a/c")
	b, ok := e.(*ast.Binary)
	if !ok || b.Op != ast.OpIntersect {
		t.Fatalf("parsed as %#v", e)
	}
	e2 := parseOK(t, "/a/b except /a/c")
	if e2.(*ast.Binary).Op != ast.OpExcept {
		t.Fatal("except not parsed")
	}
	// Precedence: intersect binds tighter than union.
	e3 := parseOK(t, "/a | /b intersect /c")
	top := e3.(*ast.Binary)
	if top.Op != ast.OpUnion {
		t.Fatalf("top op = %v", top.Op)
	}
	if r, ok := top.R.(*ast.Binary); !ok || r.Op != ast.OpIntersect {
		t.Fatalf("right = %#v", top.R)
	}
	// "intersect" as element name still works in step position.
	parseOK(t, "/intersect/except")
}
