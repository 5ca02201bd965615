package stats

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

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
	if want := Build(next); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Edit = %v, Build = %v", label, got, want)
	}
	if !reflect.DeepEqual(syn, Build(st)) {
		t.Fatalf("%s: Edit modified the receiver", label)
	}
	return next, got
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
		if _, ok := syn2.tagCount[st2.Vocab.Lookup(name)]; ok {
			t.Fatalf("tag %q not pruned", name)
		}
	}
	if syn2.PathCount(st2, []string{"a", "b"}) != 0 || syn2.PathCount(st2, []string{"a", "e"}) != 1 {
		t.Fatal("label paths wrong after delete")
	}
}
