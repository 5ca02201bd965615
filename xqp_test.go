package xqp

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"xqp/internal/parser"
	"xqp/internal/rewrite"
)

const bibXML = `<bib>
  <book year="1994">
    <title>TCP/IP Illustrated</title>
    <author><last>Stevens</last><first>W.</first></author>
    <publisher>Addison-Wesley</publisher>
    <price>65.95</price>
  </book>
  <book year="1992">
    <title>Advanced Programming in the Unix environment</title>
    <author><last>Stevens</last><first>W.</first></author>
    <publisher>Addison-Wesley</publisher>
    <price>65.95</price>
  </book>
  <book year="2000">
    <title>Data on the Web</title>
    <author><last>Abiteboul</last><first>Serge</first></author>
    <author><last>Buneman</last><first>Peter</first></author>
    <author><last>Suciu</last><first>Dan</first></author>
    <publisher>Morgan Kaufmann Publishers</publisher>
    <price>39.95</price>
  </book>
  <book year="1999">
    <title>The Economics of Technology and Content for Digital TV</title>
    <editor><last>Gerbarg</last><first>Darcy</first><affiliation>CITI</affiliation></editor>
    <publisher>Kluwer Academic Publishers</publisher>
    <price>129.95</price>
  </book>
</bib>`

func mustDB(t testing.TB) *Database {
	t.Helper()
	db, err := OpenString(bibXML)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func q(t testing.TB, db *Database, src string) *Result {
	t.Helper()
	res, err := db.Query(src)
	if err != nil {
		t.Fatalf("query %q: %v", src, err)
	}
	return res
}

func TestPathQueries(t *testing.T) {
	db := mustDB(t)
	cases := []struct {
		src  string
		want int
	}{
		{"/bib/book", 4},
		{"/bib/book/title", 4},
		{"//author", 5},
		{"//author/last", 5},
		{"/bib/book[price < 50]", 1},
		{"/bib/book[@year = 2000]", 1},
		{"/bib/book[author]", 3},
		{"/bib/book[editor]", 1},
		{"//book[author/last = \"Stevens\"]", 2},
		{"/bib/book/@year", 4},
		{"/bib/book[1]", 1},
		{"/bib/book[last()]", 1},
		{"/bib/book[position() <= 2]", 2},
		{"//title/text()", 4},
		{"/bib/book/author[1]/last", 3},
		{"//book[not(author)]", 1},
		{"/", 1},
	}
	for _, c := range cases {
		res := q(t, db, c.src)
		if res.Len() != c.want {
			t.Errorf("%s: %d results, want %d\n%v", c.src, res.Len(), c.want, res.Strings())
		}
	}
}

func TestPathResultValues(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `/bib/book[price < 50]/title`)
	if got := res.Strings(); len(got) != 1 || got[0] != "Data on the Web" {
		t.Fatalf("cheap title = %v", got)
	}
	res = q(t, db, `/bib/book[1]/@year`)
	if got := res.Strings(); len(got) != 1 || got[0] != "1994" {
		t.Fatalf("first year = %v", got)
	}
	if xml := res.XML(); xml != `year="1994"` {
		t.Fatalf("attr XML = %q", xml)
	}
}

func TestFig1Query(t *testing.T) {
	// The paper's Fig. 1(a) query, verbatim modulo the doc name.
	db := mustDB(t)
	src := `<results> {
	  for $b in doc("bib.xml")/bib/book
	  let $t := $b/title
	  let $a := $b/author
	  return <result> {$t} {$a} </result>
	} </results>`
	res := q(t, db, src)
	if res.Len() != 1 {
		t.Fatalf("results = %d", res.Len())
	}
	xml := res.XML()
	if !strings.HasPrefix(xml, "<results>") || !strings.HasSuffix(xml, "</results>") {
		t.Fatalf("bad envelope: %s", xml)
	}
	if got := strings.Count(xml, "<result>"); got != 4 {
		t.Fatalf("result elements = %d, want 4", got)
	}
	if got := strings.Count(xml, "<author>"); got != 5 {
		t.Fatalf("copied authors = %d, want 5", got)
	}
	if !strings.Contains(xml, "<title>Data on the Web</title>") {
		t.Fatalf("missing title copy: %s", xml)
	}
}

func TestFLWORWhereOrder(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `for $b in /bib/book
	                 where $b/price > 60
	                 order by $b/title
	                 return $b/title/text()`)
	got := res.Strings()
	want := []string{
		"Advanced Programming in the Unix environment",
		"TCP/IP Illustrated",
		"The Economics of Technology and Content for Digital TV",
	}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order wrong: %v", got)
		}
	}
	// Descending with a function key.
	res = q(t, db, `for $b in /bib/book order by string($b/@year) descending return data($b/@year)`)
	if got := res.Strings(); got[0] != "2000" || got[3] != "1992" {
		t.Fatalf("descending order = %v", got)
	}
}

func TestOrderByYearDescending(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `for $b in /bib/book order by number($b/@year) descending return string($b/@year)`)
	got := res.Strings()
	want := []string{"2000", "1999", "1994", "1992"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("descending years = %v", got)
		}
	}
}

func TestLetAndAggregates(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `let $p := /bib/book/price return count($p)`)
	if res.Strings()[0] != "4" {
		t.Fatalf("count = %v", res.Strings())
	}
	res = q(t, db, `sum(/bib/book/price)`)
	if res.Strings()[0] != "301.8" {
		t.Fatalf("sum = %v", res.Strings())
	}
	res = q(t, db, `avg((1, 2, 3, 4))`)
	if res.Strings()[0] != "2.5" {
		t.Fatalf("avg = %v", res.Strings())
	}
	res = q(t, db, `max(/bib/book/price)`)
	if res.Strings()[0] != "129.95" {
		t.Fatalf("max = %v", res.Strings())
	}
	res = q(t, db, `min((5, 2, 9))`)
	if res.Strings()[0] != "2" {
		t.Fatalf("min = %v", res.Strings())
	}
}

func TestPositionalVariables(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `for $b at $i in /bib/book where $i mod 2 = 0 return $i`)
	if got := res.Strings(); len(got) != 2 || got[0] != "2" || got[1] != "4" {
		t.Fatalf("positional = %v", got)
	}
}

func TestQuantifiers(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `some $b in /bib/book satisfies $b/price < 50`)
	if res.Strings()[0] != "true" {
		t.Fatal("some failed")
	}
	res = q(t, db, `every $b in /bib/book satisfies $b/price < 50`)
	if res.Strings()[0] != "false" {
		t.Fatal("every failed")
	}
	res = q(t, db, `every $b in /bib/book satisfies $b/publisher`)
	if res.Strings()[0] != "true" {
		t.Fatal("every existence failed")
	}
}

func TestConditionalsAndArithmetic(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `if (count(/bib/book) > 3) then "many" else "few"`)
	if res.Strings()[0] != "many" {
		t.Fatal("if failed")
	}
	res = q(t, db, `2 + 3 * 4`)
	if res.Strings()[0] != "14" {
		t.Fatal("precedence failed")
	}
	res = q(t, db, `(1 to 5)[. mod 2 = 1]`)
	if got := res.Strings(); len(got) != 3 || got[2] != "5" {
		t.Fatalf("range filter = %v", got)
	}
	res = q(t, db, `-(3 + 4)`)
	if res.Strings()[0] != "-7" {
		t.Fatal("negation failed")
	}
}

func TestStringFunctions(t *testing.T) {
	db := mustDB(t)
	cases := [][2]string{
		{`concat("a", "b", 1)`, "ab1"},
		{`contains("hello", "ell")`, "true"},
		{`starts-with("hello", "he")`, "true"},
		{`substring("hello", 2, 3)`, "ell"},
		{`string-length("héllo")`, "5"},
		{`normalize-space("  a   b ")`, "a b"},
		{`upper-case("abc")`, "ABC"},
		{`string-join(("a","b","c"), "-")`, "a-b-c"},
		{`substring-before("a=b", "=")`, "a"},
		{`substring-after("a=b", "=")`, "b"},
		{`string(/bib/book[1]/title)`, "TCP/IP Illustrated"},
		{`name(/bib/book[1])`, "book"},
	}
	for _, c := range cases {
		res := q(t, db, c[0])
		if got := res.Strings()[0]; got != c[1] {
			t.Errorf("%s = %q, want %q", c[0], got, c[1])
		}
	}
}

func TestDistinctValuesAndUnion(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `distinct-values(/bib/book/author/last)`)
	if res.Len() != 4 {
		t.Fatalf("distinct lasts = %v", res.Strings())
	}
	res = q(t, db, `count(/bib/book/author | /bib/book/editor)`)
	if res.Strings()[0] != "6" {
		t.Fatalf("union count = %v", res.Strings())
	}
}

func TestNestedFLWOR(t *testing.T) {
	db := mustDB(t)
	// Authors per book, flattened with markers.
	res := q(t, db, `for $b in /bib/book[author]
	                 return <entry n="{count($b/author)}">{$b/title/text()}</entry>`)
	if res.Len() != 3 {
		t.Fatalf("entries = %d", res.Len())
	}
	xml := res.XML()
	if !strings.Contains(xml, `<entry n="3">Data on the Web</entry>`) {
		t.Fatalf("xml = %s", xml)
	}
}

func TestComputedConstructors(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `element wrapper { /bib/book[1]/title }`)
	if got := res.XML(); got != "<wrapper><title>TCP/IP Illustrated</title></wrapper>" {
		t.Fatalf("element ctor = %s", got)
	}
	res = q(t, db, `text { "hi" }`)
	if got := res.XML(); got != "hi" {
		t.Fatalf("text ctor = %s", got)
	}
}

func TestStrategiesAgreeEndToEnd(t *testing.T) {
	db := mustDB(t)
	queries := []string{
		"/bib/book/title",
		"//book[author/last = \"Stevens\"]/title",
		"/bib/book[price < 50]/title",
		"//author/last",
		"for $b in /bib/book where $b/price > 60 return $b/title",
	}
	for _, src := range queries {
		base := q(t, db, src)
		for _, strat := range []Strategy{NoK, TwigStack, PathStack, Naive, Hybrid} {
			res, err := db.QueryWith(src, Options{Strategy: strat})
			if err != nil {
				t.Fatalf("%s [%v]: %v", src, strat, err)
			}
			if strings.Join(res.Strings(), "|") != strings.Join(base.Strings(), "|") {
				t.Errorf("%s: strategy %v disagrees: %v vs %v", src, strat, res.Strings(), base.Strings())
			}
		}
		// Rewrites off must agree too.
		res, err := db.QueryWith(src, Options{DisableRewrites: true})
		if err != nil {
			t.Fatalf("%s [no rewrites]: %v", src, err)
		}
		if strings.Join(res.Strings(), "|") != strings.Join(base.Strings(), "|") {
			t.Errorf("%s: unoptimized plan disagrees: %v vs %v", src, res.Strings(), base.Strings())
		}
	}
}

func TestRewriteStats(t *testing.T) {
	qq, err := Compile(`for $b in /bib/book where $b/price < 50 return $b/title`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if qq.RewriteStats.PathsFused == 0 {
		t.Error("no paths fused")
	}
	if qq.RewriteStats.PredsPushed == 0 {
		t.Error("no predicates pushed")
	}
	plan := qq.Explain()
	if !strings.Contains(plan, "τ") {
		t.Errorf("plan has no τ operator:\n%s", plan)
	}
	if strings.Contains(plan, " where") {
		t.Errorf("where clause not eliminated:\n%s", plan)
	}
}

func TestExplain(t *testing.T) {
	db := mustDB(t)
	plan, err := db.Explain("/bib/book/title")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "τ") || !strings.Contains(plan, "doc") {
		t.Fatalf("plan = %s", plan)
	}
}

func TestMultiDocument(t *testing.T) {
	db := mustDB(t)
	if err := db.AddDocumentString("other.xml", `<x><y>z</y></x>`); err != nil {
		t.Fatal(err)
	}
	res := q(t, db, `doc("other.xml")/x/y`)
	if res.XML() != "<y>z</y>" {
		t.Fatalf("other doc = %s", res.XML())
	}
}

// TestDocTargetsRunNoK: the cost hooks are bound to the primary
// document only. Under auto a doc() target runs NoK with no estimate and
// feeds no calibrator, while the primary document's dispatch is priced
// and, under Calibrate, recorded.
func TestDocTargetsRunNoK(t *testing.T) {
	db := mustDB(t)
	if err := db.AddDocumentString("other.xml", `<x><y><z/></y><y><z/></y></x>`); err != nil {
		t.Fatal(err)
	}
	records := func(src string) []*TraceStrategyRecord {
		res, err := db.QueryWith(src, Options{Trace: true, Calibrate: true})
		if err != nil {
			t.Fatal(err)
		}
		var recs []*TraceStrategyRecord
		res.Trace.Visit(func(s *TraceSpan) { recs = append(recs, s.Strategies...) })
		if len(recs) != 1 {
			t.Fatalf("%s: %d τ dispatches, want 1", src, len(recs))
		}
		return recs
	}
	if r := records(`count(doc("other.xml")//y//z)`)[0]; r.Executed != NoK || r.Estimate != nil {
		t.Errorf("doc() target: executed %v with estimate %v, want NoK unestimated", r.Executed, r.Estimate)
	}
	if observed, _ := db.CalibrationStats(); observed != 0 {
		t.Errorf("doc() target fed the calibrator %d records", observed)
	}
	if r := records(`count(//book//last)`)[0]; r.Estimate == nil {
		t.Error("primary document dispatch carries no estimate")
	}
	if observed, _ := db.CalibrationStats(); observed != 1 {
		t.Errorf("calibrator observed %d records, want 1", observed)
	}
}

func TestErrors(t *testing.T) {
	db := mustDB(t)
	for _, src := range []string{
		"$undefined",
		"for $x in",
		"unknownfn(1)",
		"1 idiv 0",
	} {
		if _, err := db.Query(src); err == nil {
			t.Errorf("query %q succeeded, want error", src)
		}
	}
}

func TestOpenFileAndErrors(t *testing.T) {
	if _, err := OpenString("not xml <<"); err == nil {
		t.Error("OpenString of junk succeeded")
	}
	if _, err := OpenFile("/nonexistent/file.xml"); err == nil {
		t.Error("OpenFile of missing path succeeded")
	}
}

// Property: for random simple paths, optimized and unoptimized plans and
// all strategies agree.
func TestEndToEndStrategyProperty(t *testing.T) {
	db := mustDB(t)
	steps := []string{"bib", "book", "author", "last", "title", "*"}
	f := func(idx []uint8) bool {
		if len(idx) == 0 {
			return true
		}
		if len(idx) > 4 {
			idx = idx[:4]
		}
		src := ""
		for i, v := range idx {
			sep := "/"
			if v%3 == 0 {
				sep = "//"
			}
			if i == 0 {
				sep = "/"
				if v%3 == 0 {
					sep = "//"
				}
			}
			src += sep + steps[int(v)%len(steps)]
		}
		base, err := db.Query(src)
		if err != nil {
			return false
		}
		for _, o := range []Options{
			{Strategy: TwigStack},
			{Strategy: Naive},
			{Strategy: Hybrid},
			{CostBased: true},
			{DisableRewrites: true},
			{Rewrites: &rewrite.Options{}},
		} {
			res, err := db.QueryWith(src, o)
			if err != nil {
				return false
			}
			if strings.Join(res.Strings(), "|") != strings.Join(base.Strings(), "|") {
				t.Logf("query %s options %+v disagree", src, o)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQueryCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Compile(`for $b in /bib/book where $b/price < 50 return <r>{$b/title}</r>`, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryEndToEnd(b *testing.B) {
	db := mustDB(b)
	qq, err := Compile(`for $b in /bib/book where $b/price < 50 return $b/title`, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Run(qq); err != nil {
			b.Fatal(err)
		}
	}
}

func TestIntersectExcept(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `count(/bib/book intersect /bib/book[price < 100])`)
	if res.Strings()[0] != "3" {
		t.Fatalf("intersect = %v", res.Strings())
	}
	res = q(t, db, `count(/bib/book except /bib/book[author])`)
	if res.Strings()[0] != "1" {
		t.Fatalf("except = %v", res.Strings())
	}
	// Mixed with union; intersect binds tighter.
	res = q(t, db, `count(/bib/book[editor] | /bib/book intersect /bib/book[price < 50])`)
	if res.Strings()[0] != "2" {
		t.Fatalf("mixed = %v", res.Strings())
	}
	res = q(t, db, `count(//author except //nothing)`)
	if res.Strings()[0] != "5" {
		t.Fatalf("except empty = %v", res.Strings())
	}
}

func TestRegexAndSequenceFunctions(t *testing.T) {
	db := mustDB(t)
	cases := [][2]string{
		{`matches("TCP/IP", "^T.P")`, "true"},
		{`matches("abc", "[0-9]+")`, "false"},
		{`replace("a-b-c", "-", "+")`, "a+b+c"},
		{`string-join(tokenize("a,b,,c", ","), "|")`, "a|b||c"},
		{`string-join(index-of((10, 20, 10), 10), ",")`, "1,3"},
		{`string-join(insert-before(("a","c"), 2, "b"), "")`, "abc"},
		{`string-join(remove(("a","b","c"), 2), "")`, "ac"},
		{`deep-equal((1, 2), (1, 2))`, "true"},
		{`deep-equal((1, 2), (1, 3))`, "false"},
		{`deep-equal(/bib/book[1]/author, /bib/book[2]/author[1])`, "true"},
		{`deep-equal(/bib/book[1]/title, /bib/book[3]/title)`, "false"},
		{`count(tokenize("one two  three", "\s+"))`, "3"},
	}
	for _, c := range cases {
		res := q(t, db, c[0])
		if got := res.Strings()[0]; got != c[1] {
			t.Errorf("%s = %q, want %q", c[0], got, c[1])
		}
	}
	if _, err := db.Query(`matches("x", "[")`); err == nil {
		t.Error("invalid regexp accepted")
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `for $b in /bib/book
	                 order by $b/publisher, number($b/@year) descending
	                 return concat($b/publisher, "/", $b/@year)`)
	got := res.Strings()
	want := []string{
		"Addison-Wesley/1994",
		"Addison-Wesley/1992",
		"Kluwer Academic Publishers/1999",
		"Morgan Kaufmann Publishers/2000",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("multi-key order = %v", got)
		}
	}
}

func TestOrderByEmptyKeys(t *testing.T) {
	db := mustDB(t)
	// Books without authors sort last by default (empty greatest), first
	// with "empty least".
	res := q(t, db, `for $b in /bib/book order by $b/author[1]/last return exists($b/author)`)
	got := res.Strings()
	if got[len(got)-1] != "false" {
		t.Fatalf("empty-greatest order = %v", got)
	}
	res = q(t, db, `for $b in /bib/book order by $b/author[1]/last empty least return exists($b/author)`)
	if res.Strings()[0] != "false" {
		t.Fatalf("empty-least order = %v", res.Strings())
	}
}

func TestQuantifierOverEmpty(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `every $x in /bib/nothing satisfies $x = 1`)
	if res.Strings()[0] != "true" {
		t.Fatal("every over empty should be true")
	}
	res = q(t, db, `some $x in /bib/nothing satisfies $x = 1`)
	if res.Strings()[0] != "false" {
		t.Fatal("some over empty should be false")
	}
}

func TestPrettyXML(t *testing.T) {
	db := mustDB(t)
	res := q(t, db, `/bib/book[1]/author`)
	got := res.PrettyXML()
	if !strings.Contains(got, "\n  <last>Stevens</last>") {
		t.Fatalf("PrettyXML = %q", got)
	}
	res = q(t, db, `(1, 2)`)
	if res.PrettyXML() != "1\n2" {
		t.Fatalf("atomic pretty = %q", res.PrettyXML())
	}
	res = q(t, db, `/bib/book[1]/@year`)
	if res.PrettyXML() != `year="1994"` {
		t.Fatalf("attr pretty = %q", res.PrettyXML())
	}
}

func TestAnalyzeAPI(t *testing.T) {
	// Store-less entry point: structural diagnostics only.
	diags, err := Analyze(`for $b in /bib/book let $u := 1 return $b/@year/x`)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, d := range diags {
		found[d.Code] = true
	}
	if !found["XQA001"] || !found["XQA004"] {
		t.Fatalf("diagnostics = %v", diags)
	}

	// Database-bound entry point adds synopsis checks.
	db, err := OpenString(bibXML)
	if err != nil {
		t.Fatal(err)
	}
	diags, err = db.Analyze(`/bib/nosuch`)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Code != "XQA002" {
		t.Fatalf("diagnostics = %v", diags)
	}
}

func TestCompilePrunesProvablyEmptyPath(t *testing.T) {
	db, err := OpenString(bibXML)
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.Compile(`(/bib/book/title, /bib/nosuch)`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if q.Pruned != 1 {
		t.Fatalf("pruned = %d\n%s", q.Pruned, q.Explain())
	}
	if !strings.Contains(q.Explain(), "const ()") {
		t.Fatalf("explain does not show the pruned constant:\n%s", q.Explain())
	}
	res, err := db.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 { // four titles, nothing from the pruned branch
		t.Fatalf("result = %v", res.Strings())
	}

	// Ablation: same query with the analyzer disabled keeps the path.
	q2, err := db.Compile(`(/bib/book/title, /bib/nosuch)`, Options{DisableAnalyzer: true})
	if err != nil {
		t.Fatal(err)
	}
	if q2.Pruned != 0 || len(q2.Diagnostics) != 0 {
		t.Fatal("analyzer ran while disabled")
	}
}

func TestQueryResultsUnchangedByAnalyzer(t *testing.T) {
	db, err := OpenString(bibXML)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`for $b in /bib/book return $b/title`,
		`for $b in /bib/book where $b/price < 60 return $b/title`,
		`(/bib/book/title, /bib/nosuch, //last)`,
		`count(/bib/nothing//x)`,
	}
	for _, src := range queries {
		on, err := db.QueryWith(src, Options{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		off, err := db.QueryWith(src, Options{DisableAnalyzer: true})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if on.XML() != off.XML() {
			t.Errorf("%s: analyzer changed the result: %q vs %q", src, on.XML(), off.XML())
		}
	}
}

func TestExplainAnnotated(t *testing.T) {
	db, err := OpenString(bibXML)
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.Compile(`for $b in /bib/book return $b/title`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := q.ExplainAnnotated()
	if !strings.Contains(out, "[node many]") {
		t.Fatalf("missing annotations:\n%s", out)
	}
}

// TestLargePatternsRunNaive: a path over 64 steps fits none of NoK's
// bitmask matchers, so the default strategy and a pinned NoK or hybrid
// run it on the naive matcher and answer exactly as naive does.
func TestLargePatternsRunNaive(t *testing.T) {
	db, err := OpenString("<a>" + strings.Repeat("<b>", 70) + strings.Repeat("</b>", 70) + "</a>")
	if err != nil {
		t.Fatal(err)
	}
	steps := strings.TrimSuffix(strings.Repeat("b/", 66), "/")
	for _, src := range []string{"/a/" + steps, "//" + steps} {
		want, err := db.QueryWith(src, Options{Strategy: Naive})
		if err != nil {
			t.Fatalf("%s [naive]: %v", src, err)
		}
		if len(want.Seq) == 0 {
			t.Fatalf("%s: naive found no matches", src)
		}
		for _, opts := range []Options{{}, {Strategy: NoK}, {Strategy: NoK, Parallelism: 4}, {Strategy: Hybrid}} {
			got, err := db.QueryWith(src, opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", src, opts, err)
			}
			if got.XML() != want.XML() {
				t.Fatalf("%s %+v: %d items, naive %d", src, opts, len(got.Seq), len(want.Seq))
			}
		}
	}
}

// TestNestingDepthLimit: a query nested parser.MaxDepth levels deep
// compiles and runs through the facade; one level more is a syntax
// error.
func TestNestingDepthLimit(t *testing.T) {
	db := mustDB(t)
	nest := func(n int) string { return strings.Repeat("(1+", n) + "1" + strings.Repeat(")", n) }
	// The outermost expression is the first level.
	res := q(t, db, nest(parser.MaxDepth-1))
	if got := strings.Join(res.Strings(), " "); got != strconv.Itoa(parser.MaxDepth) {
		t.Fatalf("at the limit = %s, want %d", got, parser.MaxDepth)
	}
	if _, err := Compile(nest(parser.MaxDepth), Options{}); err == nil || !strings.Contains(err.Error(), "nests deeper than") {
		t.Fatalf("one level over: err = %v", err)
	}
}

// TestIntegerArithmeticConformance: xs:integer literals, + - * idiv
// mod over them and sum avg min max over integer sequences follow XQuery
// Functions and Operators: literals are exact, and a literal or result
// outside the 64-bit range raises FOAR0002 instead of wrapping or
// rounding. The expected values are worked out by hand.
func TestIntegerArithmeticConformance(t *testing.T) {
	db := mustDB(t)
	const overflow = "FOAR0002"
	for _, c := range []struct{ src, want string }{
		{"9007199254740993", "9007199254740993"},
		{"12345678901234567890", overflow},
		{"99999999999999999999 = 99999999999999999998", overflow},
		{"9223372036854775807 * 2", overflow},
		{"-9223372036854775808 idiv -1", overflow},
		{"(-9223372036854775807 - 1) idiv -1", overflow},
		{"9223372036854775807 + 1", overflow},
		{"-9223372036854775807 - 2", overflow},
		{"-(-9223372036854775807 - 1)", overflow},
		{"3037000500 * 3037000500", overflow},
		{"-3037000500 * 3037000500", overflow},
		{"3037000499 * 3037000499", "9223372030926249001"},
		{"-1 * (-9223372036854775807 - 1)", overflow},
		{"9223372036854775807", "9223372036854775807"},
		{"-9223372036854775807 - 1", "-9223372036854775808"},
		{"(-9223372036854775807 - 1) mod -1", "0"},
		{"9007199254740993 - 9007199254740992", "1"},
		{"9007199254740993 = 9007199254740992", "false"},
		{"7 idiv -2", "-3"},
		{"-7 mod 2", "-1"},
		{"sum((9223372036854775807, 1))", overflow},
		{"sum((-9223372036854775807, -1, -1))", overflow},
		{"avg((9223372036854775807, 1))", overflow},
		{"sum((9223372036854775807, -1, 1))", "9223372036854775807"},
		{"sum((9007199254740993, 0))", "9007199254740993"},
		{"max((9007199254740993, 9007199254740992))", "9007199254740993"},
		{"min((9007199254740995, 9007199254740993))", "9007199254740993"},
		{"avg((9007199254740993, -9007199254740992))", "0.5"},
		{"sum(())", "0"},
	} {
		res, err := db.Query(c.src)
		if c.want == overflow {
			if err == nil || !strings.Contains(err.Error(), overflow) {
				t.Errorf("%s: got %v (err %v), want %s", c.src, res, err, overflow)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		if got := strings.Join(res.Strings(), " "); got != c.want {
			t.Errorf("%s = %s, want %s", c.src, got, c.want)
		}
	}
}

// TestFunctionCallConformance: a call of an unknown function, or of a
// builtin with a number of arguments outside its XQuery 1.0 signature, is
// the static error XPST0017 at the call's line and column, raised at
// compile time also where the call would never run: in a dead branch, in
// an empty loop, behind a false conjunct of a step predicate. Calls at
// each arity bound keep their answers.
func TestFunctionCallConformance(t *testing.T) {
	db := mustDB(t)
	const (
		static = "XPST0017"
		// A step predicate is translated at compile time too.
		untranslatable = "core: doc() requires a string literal argument"
	)
	for _, c := range []struct{ src, want string }{
		{`true(1)`, "XPST0017 at line 1, column 1"},
		{`false(1, 2)`, "XPST0017 at line 1, column 1"},
		{`string-length("a", "b")`, "XPST0017 at line 1, column 1"},
		{`string(1, 2)`, "XPST0017 at line 1, column 1"},
		{`position(5)`, "XPST0017 at line 1, column 1"},
		{`name(/r, 3)`, "XPST0017 at line 1, column 1"},
		{`count(1, 2)`, "XPST0017 at line 1, column 1"},
		{`doc("a", "b")`, "XPST0017 at line 1, column 1"},
		{`if (false()) then foo(1) else 1`, "XPST0017 at line 1, column 19"},
		{`for $x in () return foo($x)`, "XPST0017 at line 1, column 21"},
		{`//a[false() and foo()]`, "XPST0017 at line 1, column 17"},
		{`//a[foo()]`, "XPST0017 at line 1, column 5"},
		{"1 +\n  fn:count()", "XPST0017 at line 2, column 3"},
		{`for $u in ("a") return //book[doc($u)]`, untranslatable},
		{`true()`, "true"},
		{`false()`, "false"},
		{`not(())`, "true"},
		{`count((1, 2))`, "2"},
		{`count(//title[string() = "Data on the Web"])`, "1"},
		{`string(12)`, "12"},
		{`(1 to 5)[number() = 3]`, "3"},
		{`number("2.5")`, "2.5"},
		{`count(//last[string-length() = 7])`, "4"},
		{`string-length("abc")`, "3"},
		{`count(//title[normalize-space() = "Data on the Web"])`, "1"},
		{`normalize-space(" a  b ")`, "a b"},
		{`count(//*[name() = "price"])`, "4"},
		{`name(/bib)`, "bib"},
		{`count(//*[local-name() = "book"])`, "4"},
		{`local-name(/bib/book[1]/title)`, "title"},
		{`count(//book[root()/bib])`, "4"},
		{`name(root(/bib/book[1])/*)`, "bib"},
		{`(1 to 5)[position() = last()]`, "5"},
		{`concat()`, ""},
		{`concat("x")`, "x"},
		{`concat("a", "b", "c")`, "abc"},
		{`substring("abcde", 2)`, "bcde"},
		{`substring("abcde", 2, 2)`, "bc"},
		{`subsequence((1, 2, 3), 2)`, "2 3"},
		{`subsequence((1, 2, 3), 2, 1)`, "2"},
		{`replace("abc", "b", "x")`, "axc"},
		{`insert-before((1, 3), 2, 2)`, "1 2 3"},
		{`count(doc()/bib/book)`, "4"},
	} {
		_, cerr := Compile(c.src, Options{})
		res, err := db.Query(c.src)
		if strings.HasPrefix(c.want, static) || c.want == untranslatable {
			if cerr == nil || !strings.Contains(cerr.Error(), c.want) {
				t.Errorf("Compile(%q): err %v, want %s", c.src, cerr, c.want)
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("Query(%q): got %v (err %v), want %s", c.src, res, err, c.want)
			}
			continue
		}
		if cerr != nil {
			t.Errorf("Compile(%q): %v", c.src, cerr)
		}
		if err != nil {
			t.Errorf("Query(%q): %v", c.src, err)
			continue
		}
		if got := strings.Join(res.Strings(), " "); got != c.want {
			t.Errorf("%s = %q, want %q", c.src, got, c.want)
		}
	}
}
