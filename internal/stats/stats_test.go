package stats

import (
	"math"
	"sync"
	"testing"

	"xqp/internal/ast"
	"xqp/internal/core"
	"xqp/internal/naive"
	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/xmark"
)

func graphOf(t testing.TB, src string) *pattern.Graph {
	t.Helper()
	g, err := core.PatternOf(src)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildCounts(t *testing.T) {
	st := storage.MustLoad(`<a><b><c/><c/></b><b/><d>x</d></a>`)
	s := Build(st)
	if s.NodeCount() != int64(st.NodeCount()-1) {
		t.Fatalf("NodeCount = %d, want %d", s.NodeCount(), st.NodeCount()-1)
	}
	if got := s.TagCountName(st, "b"); got != 2 {
		t.Fatalf("count(b) = %d", got)
	}
	if got := s.TagCountName(st, "c"); got != 2 {
		t.Fatalf("count(c) = %d", got)
	}
	if got := s.TagCountName(st, "zzz"); got != 0 {
		t.Fatalf("count(zzz) = %d", got)
	}
	if s.MaxDepth() != 3 {
		t.Fatalf("MaxDepth = %d", s.MaxDepth())
	}
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

func TestPathCount(t *testing.T) {
	st := storage.MustLoad(`<a><b><c/><c/></b><b><c/></b><x><c/></x></a>`)
	s := Build(st)
	if got := s.PathCount(st, []string{"a", "b", "c"}); got != 3 {
		t.Fatalf("a/b/c = %d, want 3", got)
	}
	if got := s.PathCount(st, []string{"a", "x", "c"}); got != 1 {
		t.Fatalf("a/x/c = %d, want 1", got)
	}
	if got := s.PathCount(st, []string{"a", "nope"}); got != 0 {
		t.Fatalf("a/nope = %d", got)
	}
}

// Estimates on unique-label-path documents must be exact.
func TestEstimateExactOnSimpleDocs(t *testing.T) {
	st := xmark.StoreBib(3)
	s := Build(st)
	cases := []string{
		"/bib/book",
		"/bib/book/title",
		"/bib/book/author/last",
		"//price",
		"/bib/book/editor",
	}
	for _, q := range cases {
		g := graphOf(t, q)
		got := s.EstimatePattern(st, g)
		want := float64(len(naive.MatchOutput(st, g, []storage.NodeRef{st.Root()})))
		if math.Abs(got-want) > 0.5 {
			t.Errorf("%s: estimate %.1f, actual %.0f", q, got, want)
		}
	}
}

// Estimates with branching and predicates stay within an order of
// magnitude on the auction corpus (they are estimates, not counts).
func TestEstimateSanityOnAuction(t *testing.T) {
	st := xmark.StoreAuction(2)
	s := Build(st)
	cases := []string{
		"//item/description",
		"//open_auction[bidder]",
		"//person[phone]",
		"//listitem/text",
	}
	for _, q := range cases {
		g := graphOf(t, q)
		got := s.EstimatePattern(st, g)
		actual := float64(len(naive.MatchOutput(st, g, []storage.NodeRef{st.Root()})))
		if actual == 0 {
			continue
		}
		ratio := got / actual
		if ratio < 0.1 || ratio > 10 {
			t.Errorf("%s: estimate %.1f vs actual %.0f (ratio %.2f)", q, got, actual, ratio)
		}
	}
}

func TestEstimateZeroForMissingTags(t *testing.T) {
	st := xmark.StoreBib(1)
	s := Build(st)
	g := graphOf(t, "/bib/nonexistent")
	if got := s.EstimatePattern(st, g); got != 0 {
		t.Fatalf("estimate for missing tag = %f", got)
	}
}

func TestEstimateVertexMatches(t *testing.T) {
	st := xmark.StoreBib(1)
	s := Build(st)
	g := graphOf(t, "/bib/book[price < 50]")
	var priceV *pattern.Vertex
	for i := range g.Vertices {
		if g.Vertices[i].Test.Name == "price" {
			priceV = &g.Vertices[i]
		}
	}
	est := s.EstimateVertexMatches(st, priceV)
	// 10 prices × default selectivity.
	if est <= 0 || est >= 10 {
		t.Fatalf("predicate vertex estimate = %f", est)
	}
	// Wildcard estimates all elements.
	wild := pattern.Vertex{Test: ast.NodeTest{Kind: ast.TestName, Name: "*"}}
	if got := s.EstimateVertexMatches(st, &wild); got != float64(s.ElementCount()) {
		t.Fatalf("wildcard estimate = %f", got)
	}
}

func TestMatchable(t *testing.T) {
	st := storage.MustLoad(`<a><b at="1"><c/></b><b/><d>x</d></a>`)
	s := Build(st)
	cases := []struct {
		path string
		want bool
	}{
		{"/a/b/c", true},
		{"/a/b", true},
		{"//c", true},
		{"/a/b/@at", true},
		{"/a//c", true},
		{"/a/c", false},       // c exists only under b
		{"/a/b/zzz", false},   // unknown tag
		{"//zzz", false},      // unknown tag anywhere
		{"/a/d/@at", false},   // @at exists only on b
		{"/b/c", false},       // b is not a child of the root (a is)
		{"/a/b[c]", true},     // branching pattern, satisfiable
		{"/a/d[c]", false},    // d has no c child
		{"//b[c][@at]", true}, // both branches satisfiable at the first b
		{"/a/*/c", true},      // wildcard
	}
	for _, tc := range cases {
		g := graphOf(t, tc.path)
		if got := s.Matchable(st, g); got != tc.want {
			t.Errorf("Matchable(%s) = %v, want %v", tc.path, got, tc.want)
		}
	}
}

func TestMatchableRelative(t *testing.T) {
	st := storage.MustLoad(`<a><b><c/></b></a>`)
	s := Build(st)
	rel := graphOf(t, "b/c") // relative: anchored anywhere
	if !s.Matchable(st, rel) {
		t.Error("relative b/c should match somewhere (anchored at a)")
	}
	relNo := graphOf(t, "c/b")
	if s.Matchable(st, relNo) {
		t.Error("relative c/b matches nowhere")
	}
}

// TestConcurrentWalks: one synopsis serves walks from several goroutines
// at once, each with a pooled walker, and every answer equals the serial
// one.
func TestConcurrentWalks(t *testing.T) {
	st := xmark.StoreAuction(1)
	s := Build(st)
	var graphs []*pattern.Graph
	for _, q := range []string{"//item/name", "/site//person[phone]/name", "//listitem//text", "//zzz", "a//b"} {
		graphs = append(graphs, graphOf(t, q))
	}
	type answer struct {
		est float64
		ok  bool
	}
	want := make([]answer, len(graphs))
	for i, g := range graphs {
		want[i] = answer{s.EstimatePattern(st, g), s.Matchable(st, g)}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				for i, g := range graphs {
					if got := (answer{s.EstimatePattern(st, g), s.Matchable(st, g)}); got != want[i] {
						t.Errorf("%s: %v, serially %v", g, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
