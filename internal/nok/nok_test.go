package nok

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xqp/internal/ast"
	"xqp/internal/core"
	"xqp/internal/join"
	"xqp/internal/naive"
	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/xmark"
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

func TestMatchOutputBasics(t *testing.T) {
	st := storage.MustLoad(bibXML)
	root := []storage.NodeRef{st.Root()}
	cases := []struct {
		q    string
		want int
	}{
		{"/bib/book", 2},
		{"/bib/book/title", 2},
		{"//title", 3},
		{"//book//last", 3},
		{"/bib/book[price < 50]/title", 1},
		{"/bib/book[@year]", 2},
		{"//book[author/last]", 2},
		{"/bib/*[title]", 3},
		{"//nothing", 0},
		{"/bib/book[author][price]/title", 2},
	}
	for _, c := range cases {
		g := graphOf(t, c.q)
		got, err := MatchOutput(st, g, root)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if len(got) != c.want {
			t.Errorf("%s: %d matches, want %d", c.q, len(got), c.want)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Errorf("%s: results not in document order", c.q)
			}
		}
	}
}

func TestMatchAllBindings(t *testing.T) {
	st := storage.MustLoad(bibXML)
	g := graphOf(t, "/bib/book[price]/title")
	b, err := Match(st, g, []storage.NodeRef{st.Root()})
	if err != nil {
		t.Fatal(err)
	}
	// Vertex ids: 0=anchor 1=bib 2=book 3=price(pred) ... title is output.
	if len(b[0]) != 1 || len(b[1]) != 1 {
		t.Fatalf("anchor/bib bindings: %v / %v", b[0], b[1])
	}
	if len(b[2]) != 2 {
		t.Fatalf("book bindings = %v", b[2])
	}
	if len(b[g.Output]) != 2 {
		t.Fatalf("title bindings = %v", b[g.Output])
	}
}

func TestRelativeContexts(t *testing.T) {
	st := storage.MustLoad(bibXML)
	books := st.ElementRefs("book")
	g := graphOf(t, "author/last")
	got, err := MatchOutput(st, g, books[1:2])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("relative match under book2 = %d, want 2", len(got))
	}
	// From both books.
	got, err = MatchOutput(st, g, books)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("relative match under both books = %d, want 3", len(got))
	}
}

func TestAnchorDownwardConstraint(t *testing.T) {
	st := storage.MustLoad(bibXML)
	books := st.ElementRefs("book")
	// Relative pattern with constraint at anchor: title[. = "T2"]
	g := graphOf(t, `title[. = "T2"]`)
	got, err := MatchOutput(st, g, books)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("matches = %d, want 1", len(got))
	}
}

func TestMatchNestedStructure(t *testing.T) {
	// Matches of //a nest by ancestorship in the nested list.
	st := storage.MustLoad(`<a><x><a><a/></a></x><a/></a>`)
	g := graphOf(t, "//a")
	nl, err := MatchNested(st, g, []storage.NodeRef{st.Root()})
	if err != nil {
		t.Fatal(err)
	}
	if nl.Size() != 4 {
		t.Fatalf("nested size = %d, want 4", nl.Size())
	}
	if nl.Depth() != 3 {
		t.Fatalf("nested depth = %d, want 3", nl.Depth())
	}
	if len(nl.Roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(nl.Roots))
	}
}

func TestNestRefsSiblings(t *testing.T) {
	st := storage.MustLoad(`<r><a/><a/><a/></r>`)
	nl := NestRefs(st, st.ElementRefs("a"))
	if len(nl.Roots) != 3 || nl.Depth() != 1 {
		t.Fatalf("sibling nesting wrong: roots=%d depth=%d", len(nl.Roots), nl.Depth())
	}
}

func TestTooLarge(t *testing.T) {
	g := pattern.NewGraph(true)
	cur := pattern.VertexID(0)
	for i := 0; i < 70; i++ {
		cur = g.AddVertex(cur, pattern.RelChild, pattern.Vertex{Test: ast.NodeTest{Kind: ast.TestName, Name: "a"}})
	}
	g.Output = cur
	st := storage.MustLoad(`<a/>`)
	if _, err := Match(st, g, []storage.NodeRef{st.Root()}); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

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

var nokQueries = []string{
	"/a", "//b", "/a/b", "/a//c", "//a/b", "//a//b//c",
	"/a[b]/c", "//a[b][c]", "//b[a]", "//a[b/c]", "/a/*/c",
	"//*[b]", "//a[.//c]/b", "/a/a/a", "//a[b][.//c]//b",
}

// Property: the NoK matcher agrees with naive navigation and with
// TwigStack on random documents — the paper's central correctness claim
// that all three strategies compute the same pattern matches.
func TestNoKAgreesWithBaselinesProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st, err := storage.LoadString(randomXML(r, 60))
		if err != nil {
			return false
		}
		root := []storage.NodeRef{st.Root()}
		for _, q := range nokQueries {
			g, err := core.PatternOf(q)
			if err != nil {
				return false
			}
			want := naive.MatchOutput(st, g, root)
			got, err := MatchOutput(st, g, root)
			if err != nil {
				return false
			}
			if !refsEqual(got, want) {
				t.Logf("seed %d query %s: NoK %v != naive %v", seed, q, got, want)
				return false
			}
			if ts := join.TwigStack(st, g).Refs(); !refsEqual(ts, want) {
				t.Logf("seed %d query %s: TwigStack %v != naive %v", seed, q, ts, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: relative patterns from random context sets agree with naive.
func TestRelativeContextsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st, err := storage.LoadString(randomXML(r, 50))
		if err != nil {
			return false
		}
		// Random context set: each element with probability 1/2.
		var ctx []storage.NodeRef
		for _, n := range st.ElementRefs("a") {
			if r.Intn(2) == 0 {
				ctx = append(ctx, n)
			}
		}
		for _, q := range []string{"b", "b/c", "b//c", ".//b"} {
			g, err := core.PatternOf(q)
			if err != nil {
				return false
			}
			want := naive.MatchOutput(st, g, ctx)
			got, err := MatchOutput(st, g, ctx)
			if err != nil {
				return false
			}
			if !refsEqual(got, want) {
				t.Logf("seed %d query %s ctx %v: NoK %v != naive %v", seed, q, ctx, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNoKMatch(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	st := storage.MustLoad(randomXML(r, 5000))
	g := graphOf(b, "//a[b]/c")
	root := []storage.NodeRef{st.Root()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MatchOutput(st, g, root); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTopDownNestedContextRollback is a regression test: with nested
// contexts the top-down path records every context's bindings into one
// shared accumulator, and a later failing context used to roll back the
// earlier contexts' recordings when their subtrees overlapped (every
// ancestor section of a matching chain is also a context here). The
// rollback floor pins each context's recordings once its pass ends.
func TestTopDownNestedContextRollback(t *testing.T) {
	st := storage.FromDoc(xmark.Deep(2, 3))
	sections := nodesNamed(st, "section")
	if len(sections) < 4 {
		t.Fatalf("want nested sections, got %d", len(sections))
	}
	for _, q := range []string{"section/title", "section[title]", "*/title"} {
		g := graphOf(t, q)
		want := naive.MatchOutput(st, g, sections)
		got, err := MatchOutput(st, g, sections)
		if err != nil {
			t.Fatal(err)
		}
		if !refsEqual(got, want) {
			t.Fatalf("%s over nested contexts: NoK %v != naive %v", q, got, want)
		}
	}
}
