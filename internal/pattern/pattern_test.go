package pattern_test

// The graphs under test come from the pattern builder (package core),
// which reads translated paths; this package holds only the sort.

import (
	"strings"
	"testing"

	"xqp/internal/ast"
	"xqp/internal/core"
	. "xqp/internal/pattern"
	"xqp/internal/value"
)

func graphOf(t *testing.T, src string) *Graph {
	t.Helper()
	g, err := core.PatternOf(src)
	if err != nil {
		t.Fatalf("PatternOf(%q): %v", src, err)
	}
	return g
}

func TestSimplePath(t *testing.T) {
	g := graphOf(t, "/bib/book/title")
	if g.VertexCount() != 4 {
		t.Fatalf("vertices = %d, want 4 (root+3)", g.VertexCount())
	}
	if !g.Rooted || !g.IsPath() {
		t.Fatal("should be rooted simple path")
	}
	if g.Vertices[g.Output].Test.Name != "title" || !g.Vertices[g.Output].Output {
		t.Fatalf("output vertex wrong: %+v", g.Vertices[g.Output])
	}
	for v := 1; v < 4; v++ {
		p, rel := g.Parent(VertexID(v))
		if p != VertexID(v-1) || rel != RelChild {
			t.Fatalf("parent of %d = %d/%v", v, p, rel)
		}
	}
}

func TestDescendantEdges(t *testing.T) {
	g := graphOf(t, "//book//price")
	if g.VertexCount() != 3 {
		t.Fatalf("vertices = %d", g.VertexCount())
	}
	if _, rel := g.Parent(1); rel != RelDescendant {
		t.Fatal("first edge should be descendant")
	}
	if _, rel := g.Parent(2); rel != RelDescendant {
		t.Fatal("second edge should be descendant")
	}
	g2 := graphOf(t, "/a/descendant::b")
	if _, rel := g2.Parent(2); rel != RelDescendant {
		t.Fatal("explicit descendant axis should give descendant edge")
	}
}

func TestPaperExamplePattern(t *testing.T) {
	// The paper's example: /a[b][c] — four vertices, three child edges,
	// a marked as output.
	g := graphOf(t, "/a[b][c]")
	if g.VertexCount() != 4 {
		t.Fatalf("vertices = %d, want 4", g.VertexCount())
	}
	if g.IsPath() {
		t.Fatal("branching pattern reported as path")
	}
	if g.Output != 1 || !g.Vertices[1].Output {
		t.Fatalf("output vertex = %d", g.Output)
	}
	if len(g.Children[1]) != 2 {
		t.Fatalf("a has %d pattern children", len(g.Children[1]))
	}
	s := g.String()
	if !strings.Contains(s, "output") {
		t.Errorf("String() missing output marker:\n%s", s)
	}
}

func TestAttributeVertex(t *testing.T) {
	g := graphOf(t, "/book/@year")
	out := g.Vertices[g.Output]
	if !out.Attribute || out.Label() != "@year" {
		t.Fatalf("output = %+v", out)
	}
}

func TestValuePredicates(t *testing.T) {
	g := graphOf(t, `/bib/book[price < 60]/title`)
	// Find the price vertex.
	var price *Vertex
	for i := range g.Vertices {
		if g.Vertices[i].Test.Name == "price" {
			price = &g.Vertices[i]
		}
	}
	if price == nil || len(price.Preds) != 1 {
		t.Fatalf("price vertex preds wrong: %+v", price)
	}
	if price.Preds[0].Op != value.CmpLt || price.Preds[0].Lit != value.Int(60) {
		t.Fatalf("pred = %+v", price.Preds[0])
	}
	if !price.Preds[0].Matches("39.95") || price.Preds[0].Matches("65.95") {
		t.Fatal("pred matching wrong")
	}
}

func TestFlippedComparison(t *testing.T) {
	g := graphOf(t, `/a[10 > b]`)
	var bv *Vertex
	for i := range g.Vertices {
		if g.Vertices[i].Test.Name == "b" {
			bv = &g.Vertices[i]
		}
	}
	if bv == nil || len(bv.Preds) != 1 || bv.Preds[0].Op != value.CmpLt {
		t.Fatalf("flipped pred = %+v", bv)
	}
}

func TestContextValuePred(t *testing.T) {
	g := graphOf(t, `/a/b[. = "x"]`)
	out := g.Vertices[g.Output]
	if len(out.Preds) != 1 || out.Preds[0].Lit != value.Str("x") {
		t.Fatalf("context pred = %+v", out.Preds)
	}
}

func TestAndPredicate(t *testing.T) {
	g := graphOf(t, `/a[b = 1 and c = 2]`)
	count := 0
	for _, v := range g.Vertices {
		count += len(v.Preds)
	}
	if count != 2 || g.VertexCount() != 4 {
		t.Fatalf("vertices=%d preds=%d", g.VertexCount(), count)
	}
}

func TestNestedPredicatePath(t *testing.T) {
	g := graphOf(t, `/bib/book[author/last = "Stevens"]/title`)
	var last *Vertex
	for i := range g.Vertices {
		if g.Vertices[i].Test.Name == "last" {
			last = &g.Vertices[i]
		}
	}
	if last == nil || len(last.Preds) != 1 {
		t.Fatalf("nested pred not expanded: %+v", last)
	}
}

func TestNotExpressible(t *testing.T) {
	cases := []string{
		"/a/b[1]",                 // positional
		"/a[count(b) > 2]",        // function
		"/a/parent::x",            // reverse axis
		"/a[b or c]",              // disjunction
		"$v/a",                    // base expression
		"/a/following-sibling::b", // sibling axis
		// descendant-or-self::node() with no later vertex to take the edge
		"/a/descendant-or-self::node()",
		"/a[b/descendant-or-self::node() = 1]",
		"/a[b//self::node() = 1]",
		"/a/descendant-or-self::node()/self::node()[@x]",
	}
	for _, src := range cases {
		if _, err := core.PatternOf(src); err == nil {
			t.Errorf("PatternOf(%q) succeeded, want NotExpressibleError", src)
		} else if _, ok := err.(*core.NotExpressibleError); !ok {
			t.Errorf("PatternOf(%q) error = %T", src, err)
		}
	}
}

func TestRelativePattern(t *testing.T) {
	g := graphOf(t, "b/c")
	if g.Rooted {
		t.Fatal("relative pattern marked rooted")
	}
}

func TestTextVertex(t *testing.T) {
	g := graphOf(t, "/a/text()")
	if g.Vertices[g.Output].Test.Kind != ast.TestText {
		t.Fatal("text() vertex wrong")
	}
}

func TestPartitionNoDescendants(t *testing.T) {
	g := graphOf(t, "/a/b[c]/d")
	p := g.Partition()
	if p.FragmentCount() != 1 || p.JoinCount() != 0 {
		t.Fatalf("fragments=%d joins=%d, want 1/0", p.FragmentCount(), p.JoinCount())
	}
	if len(p.Fragments[0].Vertices) != g.VertexCount() {
		t.Fatal("single fragment should cover all vertices")
	}
}

func TestPartitionSplitsOnDescendant(t *testing.T) {
	g := graphOf(t, "/a/b//c/d//e")
	p := g.Partition()
	if p.FragmentCount() != 3 {
		t.Fatalf("fragments = %d, want 3\n%s", p.FragmentCount(), p)
	}
	if p.JoinCount() != 2 {
		t.Fatalf("joins = %d, want 2", p.JoinCount())
	}
	// Fragment 0 holds root,a,b; fragment of c/d; fragment of e.
	if p.FragmentOf[0] != 0 {
		t.Fatal("root not in fragment 0")
	}
	// Links must connect properly.
	if len(p.Links[0]) != 1 {
		t.Fatalf("links out of fragment 0 = %d", len(p.Links[0]))
	}
	l := p.Links[0][0]
	if p.Graph.Vertices[p.Fragments[l.ToFragment].Root].Test.Name != "c" {
		t.Fatal("first link target should be fragment rooted at c")
	}
	if !strings.Contains(p.String(), "fragment") {
		t.Fatal("partition String() malformed")
	}
}

func TestPartitionBranchingDescendants(t *testing.T) {
	// /a[.//b]/c : a has a descendant-linked predicate fragment and a
	// child c in the main fragment.
	g := graphOf(t, "/a[.//b]/c")
	p := g.Partition()
	if p.FragmentCount() != 2 || p.JoinCount() != 1 {
		t.Fatalf("fragments=%d joins=%d\n%s", p.FragmentCount(), p.JoinCount(), p)
	}
	// Main fragment must contain root, a, c.
	if len(p.Fragments[0].Vertices) != 3 {
		t.Fatalf("main fragment size = %d, want 3", len(p.Fragments[0].Vertices))
	}
}

func TestPartitionFragmentOfConsistent(t *testing.T) {
	g := graphOf(t, "//x/y[z]//w")
	p := g.Partition()
	for fi, f := range p.Fragments {
		for _, v := range f.Vertices {
			if p.FragmentOf[v] != fi {
				t.Fatalf("vertex %d: FragmentOf=%d, listed in %d", v, p.FragmentOf[v], fi)
			}
		}
	}
}

func TestWildcardVertex(t *testing.T) {
	g := graphOf(t, "/site/*/item")
	if g.Vertices[2].Test.Name != "*" {
		t.Fatalf("wildcard vertex = %+v", g.Vertices[2])
	}
}

func TestGraft(t *testing.T) {
	base := graphOf(t, "/bib/book")
	sub := graphOf(t, "author/last")
	leaf := base.Graft(base.Output, sub)
	if leaf < 0 {
		t.Fatal("graft returned no leaf")
	}
	if base.VertexCount() != 5 { // root, bib, book, author, last
		t.Fatalf("vertices after graft = %d", base.VertexCount())
	}
	if base.Vertices[leaf].Test.Name != "last" {
		t.Fatalf("graft leaf = %v", base.Vertices[leaf])
	}
	if base.Vertices[leaf].Output {
		t.Fatal("grafted output flag not cleared")
	}
	// The grafted subtree hangs under book.
	p, rel := base.Parent(leaf)
	if base.Vertices[p].Test.Name != "author" || rel != RelChild {
		t.Fatalf("graft structure wrong: parent=%v rel=%v", base.Vertices[p], rel)
	}
}

func TestGraftAnchorPreds(t *testing.T) {
	base := graphOf(t, "/a/b")
	// A sub-pattern whose output is its own anchor, carrying a value
	// predicate (built directly: the builder rejects step-less paths).
	sub := NewGraph(false)
	sub.Vertices[0].Preds = append(sub.Vertices[0].Preds, ValuePred{Op: value.CmpEq, Lit: value.Str("x")})
	leaf := base.Graft(base.Output, sub)
	if leaf != -1 {
		t.Fatalf("anchor-output graft leaf = %d, want -1", leaf)
	}
	if len(base.Vertices[base.Output].Preds) != 1 {
		t.Fatal("anchor predicate not moved onto graft point")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := graphOf(t, `/a/b[c = 1]`)
	c := g.Clone()
	c.AddVertex(c.Output, RelChild, Vertex{Test: ast.NodeTest{Kind: ast.TestName, Name: "extra"}})
	c.Vertices[c.Output].Preds = append(c.Vertices[c.Output].Preds, ValuePred{Op: value.CmpEq, Lit: value.Int(9)})
	if g.VertexCount() == c.VertexCount() {
		t.Fatal("clone shares vertex slice")
	}
	if len(g.Vertices[g.Output].Preds) == len(c.Vertices[c.Output].Preds) {
		t.Fatal("clone shares predicate slices")
	}
}

func TestMatchesVertexKinds(t *testing.T) {
	st := mustStore(t, `<a k="v">text<!--c--><?pi d?></a>`)
	a := st.DocumentElement()
	elemV := &Vertex{Test: ast.NodeTest{Kind: ast.TestName, Name: "a"}}
	if !MatchesVertex(st, a, elemV) {
		t.Error("element vertex failed")
	}
	wildV := &Vertex{Test: ast.NodeTest{Kind: ast.TestName, Name: "*"}}
	if !MatchesVertex(st, a, wildV) {
		t.Error("wildcard failed")
	}
	attrV := &Vertex{Attribute: true, Test: ast.NodeTest{Kind: ast.TestName, Name: "k"}}
	kids := st.FirstChild(a)
	if !MatchesVertex(st, kids, attrV) {
		t.Error("attribute vertex failed")
	}
	if MatchesVertex(st, a, attrV) {
		t.Error("attribute vertex matched element")
	}
	textV := &Vertex{Test: ast.NodeTest{Kind: ast.TestText}}
	nodeV := &Vertex{Test: ast.NodeTest{Kind: ast.TestNode}}
	commentV := &Vertex{Test: ast.NodeTest{Kind: ast.TestComment}}
	piV := &Vertex{Test: ast.NodeTest{Kind: ast.TestPI, Name: "pi"}}
	found := map[string]bool{}
	for c := st.FirstChild(a); c != -1; c = st.NextSibling(c) {
		if MatchesVertex(st, c, textV) {
			found["text"] = true
		}
		if MatchesVertex(st, c, commentV) {
			found["comment"] = true
		}
		if MatchesVertex(st, c, piV) {
			found["pi"] = true
		}
		if !MatchesVertex(st, c, nodeV) {
			t.Error("node() rejected a node")
		}
	}
	for _, k := range []string{"text", "comment", "pi"} {
		if !found[k] {
			t.Errorf("kind test %s never matched", k)
		}
	}
}

func TestValuePredString(t *testing.T) {
	p := ValuePred{Op: value.CmpLt, Lit: value.Int(60)}
	if p.String() != ". < 60" {
		t.Fatalf("pred string = %q", p.String())
	}
}

func TestVertexLabel(t *testing.T) {
	v := Vertex{Attribute: true, Test: ast.NodeTest{Kind: ast.TestName, Name: "id"}}
	if v.Label() != "@id" {
		t.Fatalf("label = %q", v.Label())
	}
}
