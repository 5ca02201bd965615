package stream

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"xqp/internal/core"
	"xqp/internal/naive"
	"xqp/internal/pattern"
	"xqp/internal/storage"
)

func graphOf(t testing.TB, src string) *pattern.Graph {
	t.Helper()
	g, err := core.PatternOf(src)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

const bibXML = `<bib>
  <book year="1994"><title>T1</title><author><last>Stevens</last></author><price>65.95</price></book>
  <book year="2000"><title>T2</title><author><last>Abiteboul</last></author><author><last>Buneman</last></author><price>39.95</price></book>
</bib>`

func TestStreamCounts(t *testing.T) {
	cases := []struct {
		q    string
		want int
	}{
		{"/bib/book", 2},
		{"/bib/book/title", 2},
		{"//title", 2},
		{"//author/last", 3},
		{"/bib//last", 3},
		{"/bib/book/@year", 2},
		{"//nothing", 0},
		{"/bib/*", 2},
	}
	for _, c := range cases {
		got, err := Count(strings.NewReader(bibXML), graphOf(t, c.q))
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		if got != c.want {
			t.Errorf("%s: count %d, want %d", c.q, got, c.want)
		}
	}
}

func TestStreamValuePredicateOnOutput(t *testing.T) {
	g := graphOf(t, `/bib/book/price[. < 50]`)
	var vals []string
	got, err := Eval(strings.NewReader(bibXML), g, func(m Match) {
		vals = append(vals, m.Value)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 || len(vals) != 1 || vals[0] != "39.95" {
		t.Fatalf("count=%d vals=%v", got, vals)
	}
}

func TestStreamMatchPaths(t *testing.T) {
	g := graphOf(t, "//last")
	var paths [][]string
	if _, err := Eval(strings.NewReader(bibXML), g, func(m Match) {
		paths = append(paths, m.Path)
	}); err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("paths = %v", paths)
	}
	want := "bib/book/author/last"
	if strings.Join(paths[0], "/") != want {
		t.Fatalf("path = %v, want %s", paths[0], want)
	}
}

func TestStreamAttributeValue(t *testing.T) {
	g := graphOf(t, "/bib/book/@year")
	var vals []string
	if _, err := Eval(strings.NewReader(bibXML), g, func(m Match) {
		vals = append(vals, m.Value)
	}); err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0] != "1994" || vals[1] != "2000" {
		t.Fatalf("vals = %v", vals)
	}
}

func TestStreamUnsupported(t *testing.T) {
	for _, q := range []string{
		"/bib/book[author]/title",    // branching
		"/bib/book[. = \"x\"]/title", // inner value predicate
		"//title/text()",             // kind test step
	} {
		if _, err := Count(strings.NewReader(bibXML), graphOf(t, q)); err == nil {
			t.Errorf("%s: streamed, want ErrUnsupported", q)
		}
	}
	// Relative patterns cannot anchor on a stream.
	if _, err := Count(strings.NewReader(bibXML), graphOf(t, "book/title")); err == nil {
		t.Error("relative pattern streamed")
	}
}

func TestStreamBadXML(t *testing.T) {
	g := graphOf(t, "/a/b")
	if _, err := Count(strings.NewReader("<a><b>"), g); err == nil {
		t.Error("truncated document streamed without error")
	}
	if _, err := Count(strings.NewReader("<a></b>"), g); err == nil {
		t.Error("mismatched document streamed without error")
	}
}

func TestStreamNestedRecursive(t *testing.T) {
	xml := `<r><a><x><a><a/></a></x></a></r>`
	g := graphOf(t, "//a")
	got, err := Count(strings.NewReader(xml), g)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("recursive //a = %d, want 3", got)
	}
	// Descendant below descendant.
	g2 := graphOf(t, "//a//a")
	got2, err := Count(strings.NewReader(xml), g2)
	if err != nil {
		t.Fatal(err)
	}
	if got2 != 2 {
		t.Fatalf("//a//a = %d, want 2", got2)
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

// Property: streaming counts equal stored-evaluation counts for the
// streamable fragment, on random documents.
func TestStreamAgreesWithStoredProperty(t *testing.T) {
	queries := []string{"/a", "//b", "/a/b", "/a//c", "//a/b", "//a//b//c", "/a/*/c", "/a/a/a"}
	graphs := make([]*pattern.Graph, len(queries))
	for i, q := range queries {
		graphs[i] = graphOf(t, q)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xml := randomXML(r, 60)
		st, err := storage.LoadString(xml)
		if err != nil {
			return false
		}
		for i, g := range graphs {
			want := len(naive.MatchOutput(st, g, []storage.NodeRef{st.Root()}))
			got, err := Count(strings.NewReader(xml), g)
			if err != nil {
				return false
			}
			if got != want {
				t.Logf("seed %d query %s: stream %d != stored %d", seed, queries[i], got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStreamCount(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	xml := randomXML(r, 20000)
	g := graphOf(b, "//a/b")
	b.SetBytes(int64(len(xml)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Count(strings.NewReader(xml), g); err != nil {
			b.Fatal(err)
		}
	}
}
