package stats

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/vocab"
	"xqp/internal/xmark"
	"xqp/internal/xmldoc"
)

// editAndCheck applies one edit, derives the synopsis with Edit and
// checks it against Build, and that the old synopsis was not modified.
func editAndCheck(t *testing.T, label string, st *storage.Store, syn *Synopsis, edit func() (*storage.Store, storage.UpdateStats, error)) (*storage.Store, *Synopsis) {
	t.Helper()
	next, us, err := edit()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got := syn.Edit(st, next, us)
	if err := diffSynopses(got, Build(next)); err != nil {
		t.Fatalf("%s: Edit and Build differ: %v", label, err)
	}
	if err := diffSynopses(syn, Build(st)); err != nil {
		t.Fatalf("%s: Edit modified the receiver: %v", label, err)
	}
	return next, got
}

// diffSynopses compares two synopses row by row and then field by
// field, and describes the first difference.
func diffSynopses(got, want *Synopsis) error {
	for r := 0; r < max(len(got.sym), len(want.sym)); r++ {
		if r >= len(got.sym) || r >= len(want.sym) {
			return fmt.Errorf("%d rows, want %d", len(got.sym), len(want.sym))
		}
		g := [4]int64{int64(got.sym[r]), int64(got.class[r]), int64(got.end[r]), got.count[r]}
		w := [4]int64{int64(want.sym[r]), int64(want.class[r]), int64(want.end[r]), want.count[r]}
		if g != w {
			return fmt.Errorf("row %d: (sym, class, end, count) = %v, want %v", r, g, w)
		}
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%v, want %v; tag counts %v, want %v", got, want, got.tagCount, want.tagCount)
	}
	return nil
}

func TestEditMatchesBuild(t *testing.T) {
	frags := []string{
		`<bidder><date>01/02/2004</date><increase>3.00</increase></bidder>`,
		`<book year="2004"><title>T</title><author><last>L</last></author></book>`,
		`<new%d a="1"><deeper><deepest>t</deepest></deeper><!--c--><?pi d?></new%d>`,
		`<section><section><section><title>x</title></section></section></section>`,
	}
	stores := map[string]*storage.Store{
		"bib": xmark.StoreBib(1), "auction": xmark.StoreAuction(1),
		"deep": xmark.StoreDeep(4, 12), "wide": xmark.StoreWide(100),
	}
	for _, family := range []string{"bib", "auction", "deep", "wide"} {
		st := stores[family]
		syn := Build(st)
		rng := rand.New(rand.NewSource(int64(len(family))))
		for step := 0; step < 40; step++ {
			label := fmt.Sprintf("%s step %d", family, step)
			if rng.Intn(2) == 0 && st.NodeCount() > 2 {
				target := storage.NodeRef(1 + rng.Intn(st.NodeCount()-1))
				st, syn = editAndCheck(t, label, st, syn, func() (*storage.Store, storage.UpdateStats, error) {
					return st.DeleteSubtree(target)
				})
				continue
			}
			var parents []storage.NodeRef
			for n := storage.NodeRef(0); int(n) < st.NodeCount(); n++ {
				if k := st.Kind(n); k == xmldoc.KindElement || k == xmldoc.KindDocument {
					parents = append(parents, n)
				}
			}
			parent := parents[rng.Intn(len(parents))]
			src := strings.ReplaceAll(frags[rng.Intn(len(frags))], "%d", fmt.Sprint(step))
			frag := xmldoc.MustParse(src)
			st, syn = editAndCheck(t, label, st, syn, func() (*storage.Store, storage.UpdateStats, error) {
				return st.InsertChild(parent, frag)
			})
		}
	}
}

// TestEditShrinksDepthAndPrunes deletes the only deep branch: maxDepth
// must shrink and the deleted tags must leave the counts.
func TestEditShrinksDepthAndPrunes(t *testing.T) {
	st := storage.MustLoad(`<a><b><c><d/></c></b><e/></a>`)
	syn := Build(st)
	if syn.MaxDepth() != 4 {
		t.Fatalf("MaxDepth = %d, want 4", syn.MaxDepth())
	}
	b := st.ElementRefs("b")[0]
	st2, syn2 := editAndCheck(t, "delete b", st, syn, func() (*storage.Store, storage.UpdateStats, error) {
		return st.DeleteSubtree(b)
	})
	if syn2.MaxDepth() != 2 {
		t.Fatalf("MaxDepth after delete = %d, want 2", syn2.MaxDepth())
	}
	for _, name := range []string{"b", "c", "d"} {
		if sym := st2.Vocab.Lookup(name); sym == vocab.None || syn2.TagCount(sym) != 0 {
			t.Fatalf("tag %q: symbol %d, count %d after delete", name, sym, syn2.TagCount(sym))
		}
		if slices.Contains(syn2.sym, st2.Vocab.Lookup(name)) {
			t.Fatalf("label path of tag %q not pruned", name)
		}
	}
	if syn2.PathCount(st2, []string{"a", "b"}) != 0 || syn2.PathCount(st2, []string{"a", "e"}) != 1 {
		t.Fatal("label paths wrong after delete")
	}
}

// FuzzSynopsisEdit applies a byte-driven run of inserts and deletes to a
// small document: after every edit, Edit must equal Build, and the two
// must give the same estimates for a fixed set of patterns.
func FuzzSynopsisEdit(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 3, 2, 1})
	f.Add([]byte{0, 1, 0, 2, 1, 5, 3, 0, 4})
	f.Add([]byte{1, 3, 4, 1, 3, 4, 0, 7, 0, 7, 0, 7})
	frags := []string{
		`<a x="1"><b/></a>`,
		`<c>t</c>`,
		`<d><a><c/></a><!--n--></d>`,
		`<e y="2"><?p q?><b><d/></b></e>`,
		`<b><b><b/></b></b>`,
	}
	var graphs []*pattern.Graph
	for _, src := range []string{
		`/r/a/b`, `//a`, `//b[c]`, `//*`, `//@x`, `/r//c`, `a//c`, `//d/a/c`,
		`//e[@y]/b`, `//b//b`, `/r/*/c`, `//a[b][@x]`,
	} {
		graphs = append(graphs, graphOf(f, src))
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		st := storage.MustLoad(`<r><a x="1"><b/><c>t</c></a><b><c/></b></r>`)
		syn := Build(st)
		for i := 0; i+1 < len(ops) && i < 64; i += 2 {
			var next *storage.Store
			var us storage.UpdateStats
			var err error
			if ops[i]%2 == 0 && st.NodeCount() > 2 {
				next, us, err = st.DeleteSubtree(storage.NodeRef(1 + int(ops[i+1])%(st.NodeCount()-1)))
			} else {
				var parents []storage.NodeRef
				for n := storage.NodeRef(0); int(n) < st.NodeCount(); n++ {
					if k := st.Kind(n); k == xmldoc.KindElement || k == xmldoc.KindDocument {
						parents = append(parents, n)
					}
				}
				frag := xmldoc.MustParse(frags[int(ops[i]/2)%len(frags)])
				next, us, err = st.InsertChild(parents[int(ops[i+1])%len(parents)], frag)
			}
			if err != nil {
				continue // e.g. a second element under the document node
			}
			got, want := syn.Edit(st, next, us), Build(next)
			if err := diffSynopses(got, want); err != nil {
				t.Fatalf("op %d: Edit and Build differ: %v", i/2, err)
			}
			for _, g := range graphs {
				if e, b := got.EstimatePattern(next, g), want.EstimatePattern(next, g); math.Float64bits(e) != math.Float64bits(b) {
					t.Fatalf("op %d: EstimatePattern(%s) = %v after Edit, %v after Build", i/2, g, e, b)
				}
				if e, b := got.Matchable(next, g), want.Matchable(next, g); e != b {
					t.Fatalf("op %d: Matchable(%s) = %v after Edit, %v after Build", i/2, g, e, b)
				}
			}
			st, syn = next, got
		}
	})
}
