package naive

import (
	"testing"

	"xqp/internal/core"
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

func TestMatchOutputBasic(t *testing.T) {
	st := storage.MustLoad(`<a><b><c/></b><b/><x><b><c/></b></x></a>`)
	root := []storage.NodeRef{st.Root()}
	cases := []struct {
		q    string
		want int
	}{
		{"/a/b", 2},
		{"//b", 3},
		{"//b[c]", 2},
		{"/a/b/c", 1},
		{"//x//c", 1},
		{"/a/*", 3},
		{"//missing", 0},
	}
	for _, c := range cases {
		got := MatchOutput(st, graphOf(t, c.q), root)
		if len(got) != c.want {
			t.Errorf("%s: %d matches, want %d", c.q, len(got), c.want)
		}
	}
}

func TestContextRestriction(t *testing.T) {
	st := storage.MustLoad(`<a><b><c/></b><b><c/></b></a>`)
	bs := st.ElementRefs("b")
	got := MatchOutput(st, graphOf(t, "c"), bs[:1])
	if len(got) != 1 {
		t.Fatalf("restricted match = %d, want 1", len(got))
	}
	// No contexts: nothing matches.
	if got := MatchOutput(st, graphOf(t, "c"), nil); len(got) != 0 {
		t.Fatalf("empty contexts matched %d", len(got))
	}
}

func TestDocumentOrderOutput(t *testing.T) {
	st := storage.MustLoad(`<a><b/><c><b/></c><b/></a>`)
	got := MatchOutput(st, graphOf(t, "//b"), []storage.NodeRef{st.Root()})
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatal("not in document order")
		}
	}
}

func TestValuePredicates(t *testing.T) {
	st := storage.MustLoad(`<a><p>5</p><p>15</p></a>`)
	got := MatchOutput(st, graphOf(t, "/a/p[. > 10]"), []storage.NodeRef{st.Root()})
	if len(got) != 1 {
		t.Fatalf("value pred matches = %d", len(got))
	}
}

func TestMatchOutputWithin(t *testing.T) {
	st := storage.MustLoad(`<a><b><c/></b><b/><x><b><c year="1"/></b></x></a>`)
	root := []storage.NodeRef{st.Root()}
	for _, q := range []string{`//b`, `//b/c`, `/a/b`, `//x//c`, `//c[@year = 1]`} {
		g := graphOf(t, q)
		full := MatchOutput(st, g, root)
		// Restricting to the full node range must reproduce the scan.
		all := make([]storage.NodeRef, st.NodeCount())
		for i := range all {
			all[i] = storage.NodeRef(i)
		}
		got, err := MatchOutputWithin(st, g, root, all)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(full) {
			t.Fatalf("%s: within(all) = %v, full scan = %v", q, got, full)
		}
		for i := range got {
			if got[i] != full[i] {
				t.Fatalf("%s: within(all) = %v, full scan = %v", q, got, full)
			}
		}
		// Restricting to a single match keeps exactly it; out-of-range
		// candidates are ignored.
		if len(full) > 0 {
			one, err := MatchOutputWithin(st, g, root, []storage.NodeRef{full[0], storage.NodeRef(st.NodeCount() + 7)})
			if err != nil {
				t.Fatal(err)
			}
			if len(one) != 1 || one[0] != full[0] {
				t.Fatalf("%s: within(first) = %v, want [%d]", q, one, full[0])
			}
		}
	}
}
