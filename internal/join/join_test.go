package join

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"xqp/internal/ast"
	"xqp/internal/core"
	"xqp/internal/naive"
	"xqp/internal/pattern"
	"xqp/internal/storage"
)

const bibXML = `<bib>
  <book year="1994"><title>T1</title><author><last>Stevens</last></author><price>65.95</price></book>
  <book year="2000"><title>T2</title><author><last>Abiteboul</last></author><author><last>Buneman</last></author><price>39.95</price></book>
  <article><title>T3</title><author><last>Stevens</last></author></article>
</bib>`

func graphOf(t testing.TB, src string) *pattern.Graph {
	t.Helper()
	g, err := core.PatternOf(src)
	if err != nil {
		t.Fatalf("pattern %q: %v", src, err)
	}
	return g
}

func refsEqual(a, b []storage.NodeRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestVertexStream(t *testing.T) {
	st := storage.MustLoad(bibXML)
	g := graphOf(t, "/bib/book")
	s := VertexStream(st, g.Vertices[2])
	if len(s) != 2 {
		t.Fatalf("book stream = %d, want 2", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i-1].Start >= s[i].Start {
			t.Fatal("stream not in document order")
		}
	}
	// With value predicate.
	g2 := graphOf(t, `/bib/book[price < 50]`)
	var priceV pattern.Vertex
	for _, v := range g2.Vertices {
		if v.Test.Name == "price" {
			priceV = v
		}
	}
	s2 := VertexStream(st, priceV)
	if len(s2) != 1 {
		t.Fatalf("filtered price stream = %d, want 1", len(s2))
	}
	// Wildcard element stream covers every element.
	s3 := VertexStream(st, pattern.Vertex{Test: ast.NodeTest{Kind: ast.TestName, Name: "*"}})
	want := 0
	for i := 0; i < st.NodeCount(); i++ {
		if st.Kind(storage.NodeRef(i)) == 1 { // KindElement
			want++
		}
	}
	if len(s3) != want {
		t.Fatalf("wildcard stream = %d, want %d", len(s3), want)
	}
	// Attribute stream.
	s4 := VertexStream(st, pattern.Vertex{Attribute: true, Test: ast.NodeTest{Kind: ast.TestName, Name: "year"}})
	if len(s4) != 2 {
		t.Fatalf("@year stream = %d, want 2", len(s4))
	}
}

func TestStackTreeBasic(t *testing.T) {
	st := storage.MustLoad(bibXML)
	books := VertexStream(st, pattern.Vertex{Test: ast.NodeTest{Kind: ast.TestName, Name: "book"}})
	lasts := VertexStream(st, pattern.Vertex{Test: ast.NodeTest{Kind: ast.TestName, Name: "last"}})
	pairs := StackTree(books, lasts, pattern.RelDescendant)
	if len(pairs) != 3 {
		t.Fatalf("book//last pairs = %d, want 3", len(pairs))
	}
	for _, p := range pairs {
		if !p.Anc.Contains(p.Desc) {
			t.Fatal("non-containing pair emitted")
		}
	}
	// Parent-child filters correctly: book/last has no matches.
	if got := StackTree(books, lasts, pattern.RelChild); len(got) != 0 {
		t.Fatalf("book/last pairs = %d, want 0", len(got))
	}
	authors := VertexStream(st, pattern.Vertex{Test: ast.NodeTest{Kind: ast.TestName, Name: "author"}})
	if got := StackTree(authors, lasts, pattern.RelChild); len(got) != 4 {
		t.Fatalf("author/last pairs = %d, want 4", len(got))
	}
}

func TestStackTreeProjections(t *testing.T) {
	st := storage.MustLoad(bibXML)
	books := VertexStream(st, pattern.Vertex{Test: ast.NodeTest{Kind: ast.TestName, Name: "book"}})
	lasts := VertexStream(st, pattern.Vertex{Test: ast.NodeTest{Kind: ast.TestName, Name: "last"}})
	descs := StackTreeDescendants(books, lasts, pattern.RelDescendant)
	if len(descs) != 3 {
		t.Fatalf("distinct descendants = %d, want 3", len(descs))
	}
	ancs := StackTreeAncestors(books, lasts, pattern.RelDescendant)
	if len(ancs) != 2 {
		t.Fatalf("distinct ancestors = %d, want 2", len(ancs))
	}
	for i := 1; i < len(ancs); i++ {
		if ancs[i-1].Start >= ancs[i].Start {
			t.Fatal("ancestors not in document order")
		}
	}
}

func TestPathJoinChain(t *testing.T) {
	st := storage.MustLoad(bibXML)
	g := graphOf(t, "/bib/book/author/last")
	streams := []Stream{RootStream(st)}
	rels := []pattern.Rel{}
	for v := pattern.VertexID(1); int(v) < g.VertexCount(); v++ {
		_, rel := g.Parent(v)
		rels = append(rels, rel)
		streams = append(streams, VertexStream(st, g.Vertices[v]))
	}
	out := PathJoin(streams, rels)
	if len(out) != 3 {
		t.Fatalf("path join result = %d, want 3", len(out))
	}
	want := naive.MatchOutput(st, g, []storage.NodeRef{st.Root()})
	if !refsEqual(out.Refs(), want) {
		t.Fatalf("PathJoin = %v, naive = %v", out.Refs(), want)
	}
}

func TestPathStackMatchesNaive(t *testing.T) {
	st := storage.MustLoad(bibXML)
	for _, q := range []string{
		"/bib/book",
		"/bib/book/title",
		"//last",
		"//book//last",
		"/bib//title",
		"/bib/book/price",
		"//author/last",
		"/bib/article/title",
		"//nothing",
	} {
		g := graphOf(t, q)
		if !g.IsPath() {
			continue
		}
		got := PathStack(st, g).Refs()
		want := naive.MatchOutput(st, g, []storage.NodeRef{st.Root()})
		if !refsEqual(got, want) {
			t.Errorf("%s: PathStack = %v, naive = %v", q, got, want)
		}
	}
}

func TestTwigStackMatchesNaive(t *testing.T) {
	st := storage.MustLoad(bibXML)
	for _, q := range []string{
		"/bib/book",
		"/bib/book[author]/title",
		"/bib/book[price]/author/last",
		"//book[title][price]",
		`/bib/book[price < 50]/title`,
		"/bib/*[title]",
		"//book[author/last]",
		"/bib/book[@year]",
		"//article[author]",
		"/bib/book[nothing]/title",
	} {
		g := graphOf(t, q)
		got := TwigStack(st, g).Refs()
		want := naive.MatchOutput(st, g, []storage.NodeRef{st.Root()})
		if !refsEqual(got, want) {
			t.Errorf("%s: TwigStack = %v, naive = %v", q, got, want)
		}
	}
}

func TestTwigCount(t *testing.T) {
	st := storage.MustLoad(bibXML)
	g := graphOf(t, "//book[title]/author")
	// book1 has 1 author, book2 has 2: 3 full twig matches.
	if got := TwigCount(st, g); got != 3 {
		t.Fatalf("TwigCount = %d, want 3", got)
	}
	// The last leaf's shared vertices (root, a, b) are not the first
	// columns of the merged table (a's c comes before b): the join must
	// key on b too. One a·c pair times b1's 1·1 and b2's 1·2 choices.
	st = storage.MustLoad(`<a><c/><b><a/><c/></b><b><a/><c/><c/></b></a>`)
	if got := TwigCount(st, graphOf(t, "//a[c]/b[a][c]")); got != 3 {
		t.Fatalf("nested TwigCount = %d, want 3", got)
	}
}

// randomXML builds a random recursive document string.
func randomXML(r *rand.Rand, n int) string {
	names := []string{"a", "b", "c"}
	var build func(depth, budget int) (string, int)
	build = func(depth, budget int) (string, int) {
		name := names[r.Intn(len(names))]
		s := "<" + name + ">"
		used := 1
		for used < budget && depth < 7 && r.Intn(3) != 0 {
			sub, u := build(depth+1, budget-used)
			s += sub
			used += u
		}
		return s + "</" + name + ">", used
	}
	s, _ := build(0, n)
	return s
}

var twigQueries = []string{
	"/a", "//b", "/a/b", "/a//c", "//a/b", "//a//b//c",
	"/a[b]/c", "//a[b][c]", "//b[a]", "//a[b/c]", "/a/*/c",
	"//*[b]", "//a[.//c]/b", "/a/a/a",
	// Nested branching, with the output above, below and beside the
	// branch points: the shapes the merge's join tree must handle.
	"//a[c]/b[a][c]", "//a[b[c][a]][c]", "//a[c]/b[a][c]/a",
	"//a[b/c][c/b]//a", "//*[a][b][c]", "//a[.//b[c]]/c[a]",
}

// Property: TwigStack, PathStack and naive navigation agree on random
// documents — the differential test of the three strategies the paper
// compares.
func TestStrategiesAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st, err := storage.LoadString(randomXML(r, 60))
		if err != nil {
			return false
		}
		for _, q := range twigQueries {
			g, err := core.PatternOf(q)
			if err != nil {
				return false
			}
			want := naive.MatchOutput(st, g, []storage.NodeRef{st.Root()})
			if got := TwigStack(st, g).Refs(); !refsEqual(got, want) {
				t.Logf("seed %d query %s: TwigStack %v != naive %v", seed, q, got, want)
				return false
			}
			if g.IsPath() {
				if got := PathStack(st, g).Refs(); !refsEqual(got, want) {
					t.Logf("seed %d query %s: PathStack %v != naive %v", seed, q, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// embeddings counts the pattern's full matches below vertex v bound
// to e by brute force over the vertex streams.
func embeddings(st *storage.Store, g *pattern.Graph, v pattern.VertexID, e Elem) int {
	n := 1
	for _, edge := range g.Children[v] {
		k := 0
		for _, d := range VertexStream(st, g.Vertices[edge.To]) {
			if e.Contains(d) && (edge.Rel != pattern.RelChild || e.Level+1 == d.Level) {
				k += embeddings(st, g, edge.To, d)
			}
		}
		n *= k
	}
	return n
}

// Property: TwigCount joins the whole path solutions into exactly the
// pattern's full matches, counted by brute force.
func TestTwigCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st, err := storage.LoadString(randomXML(r, 40))
		if err != nil {
			return false
		}
		for _, q := range twigQueries {
			g := graphOf(t, q)
			want := embeddings(st, g, 0, RootStream(st)[0])
			if got := TwigCount(st, g); got != want {
				t.Logf("seed %d query %s: TwigCount %d, brute force %d", seed, q, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCursorBasics(t *testing.T) {
	c := NewCursor(Stream{{Start: 1, End: 2}, {Start: 3, End: 8}})
	if c.EOF() || c.NextStart() != 1 || c.NextEnd() != 2 {
		t.Fatal("cursor head wrong")
	}
	c.Advance()
	c.Advance()
	if !c.EOF() || c.NextStart() != int32(1<<31-1) {
		t.Fatal("cursor EOF wrong")
	}
}

func BenchmarkTwigStack(b *testing.B) {
	var sb []byte
	sb = append(sb, "<bib>"...)
	for i := 0; i < 500; i++ {
		sb = append(sb, fmt.Sprintf(`<book year="%d"><title>t%d</title><author><last>L%d</last></author><price>%d</price></book>`, 1990+i%20, i, i%50, 20+i%80)...)
	}
	sb = append(sb, "</bib>"...)
	st := storage.MustLoad(string(sb))
	g := graphOf(b, "//book[title][price]/author/last")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TwigStack(st, g)
	}
}
