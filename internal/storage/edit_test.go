package storage_test

import (
	"fmt"
	"math/rand"
	"testing"

	"xqp/internal/difftest"
	"xqp/internal/storage"
	"xqp/internal/xmark"
	"xqp/internal/xmldoc"
)

// sameStore compares two stores node by node: kind, tag name, content,
// parenthesis positions, parent and serialization.
func sameStore(t *testing.T, label string, got, want *storage.Store) {
	t.Helper()
	if got.NodeCount() != want.NodeCount() || got.Seq.Len() != want.Seq.Len() {
		t.Fatalf("%s: %d nodes / %d parentheses, want %d / %d", label, got.NodeCount(), got.Seq.Len(), want.NodeCount(), want.Seq.Len())
	}
	for n := storage.NodeRef(0); int(n) < got.NodeCount(); n++ {
		switch {
		case got.Kind(n) != want.Kind(n):
			t.Fatalf("%s: node %d kind %v, want %v", label, n, got.Kind(n), want.Kind(n))
		case got.Vocab.Name(got.Tag(n)) != want.Vocab.Name(want.Tag(n)) || got.Name(n) != want.Name(n):
			t.Fatalf("%s: node %d tag %q, want %q", label, n, got.Vocab.Name(got.Tag(n)), want.Vocab.Name(want.Tag(n)))
		case got.Content(n) != want.Content(n):
			t.Fatalf("%s: node %d content %q, want %q", label, n, got.Content(n), want.Content(n))
		case got.Open(n) != want.Open(n) || got.Close(n) != want.Close(n):
			t.Fatalf("%s: node %d span [%d,%d], want [%d,%d]", label, n, got.Open(n), got.Close(n), want.Open(n), want.Close(n))
		case got.Parent(n) != want.Parent(n):
			t.Fatalf("%s: node %d parent %d, want %d", label, n, got.Parent(n), want.Parent(n))
		case got.XMLString(n) != want.XMLString(n):
			t.Fatalf("%s: node %d XML %q, want %q", label, n, got.XMLString(n), want.XMLString(n))
		}
	}
}

// editFragments are insertable fragments: names the families already
// have, names they lack (so the vocabulary must be copied on extend),
// comments, PIs, trailing attributes, bare text and several top-level
// nodes at once. Each call returns a fresh document; fresh names are
// numbered by k so later deletes can remove the last node carrying one.
var editFragments = []func(k int) *xmldoc.Document{
	func(int) *xmldoc.Document {
		return xmldoc.MustParse(`<bidder><date>01/02/2004</date><increase>3.00</increase></bidder>`)
	},
	func(k int) *xmldoc.Document {
		return xmldoc.MustParse(fmt.Sprintf(`<fresh%d k%d="v&amp;">t<!--c--><?pi%d d?><title>x</title></fresh%d>`, k, k, k, k))
	},
	func(int) *xmldoc.Document { b := xmldoc.NewBuilder(); b.Text("x&y"); return b.Build() },
	func(k int) *xmldoc.Document {
		b := xmldoc.NewBuilder()
		b.Attr(fmt.Sprintf("late%d", k), `"`)
		return b.Build()
	},
	func(k int) *xmldoc.Document {
		b := xmldoc.NewBuilder()
		b.OpenElement("a")
		b.CloseElement()
		b.Text("between")
		b.Comment("c")
		b.PI(fmt.Sprintf("p%d", k), "data")
		b.OpenElement(fmt.Sprintf("top%d", k))
		b.Text("t")
		b.CloseElement()
		return b.Build()
	},
}

// editStep applies one random edit to st with both the spliced update
// and the rebuild reference, checks the receiver was not modified and
// returns the two results.
func editStep(t *testing.T, label string, rng *rand.Rand, st *storage.Store, k int) (got, want *storage.Store) {
	t.Helper()
	before, vocabLen := st.XMLString(0), st.Vocab.Len()
	var err error
	if rng.Intn(2) == 0 && st.NodeCount() > 2 {
		target := storage.NodeRef(1 + rng.Intn(st.NodeCount()-1))
		got, _, err = st.DeleteSubtree(target)
		want = st.ReferenceDelete(target)
	} else {
		var parents []storage.NodeRef
		for n := storage.NodeRef(0); int(n) < st.NodeCount(); n++ {
			if k := st.Kind(n); k == xmldoc.KindElement || k == xmldoc.KindDocument {
				parents = append(parents, n)
			}
		}
		parent := parents[rng.Intn(len(parents))]
		frag := editFragments[rng.Intn(len(editFragments))](k)
		got, _, err = st.InsertChild(parent, frag)
		want = st.ReferenceInsert(parent, frag)
	}
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if st.XMLString(0) != before || st.Vocab.Len() != vocabLen {
		t.Fatalf("%s: the edit modified its receiver", label)
	}
	return got, want
}

// TestStoreEditMatchesRebuild runs random insert/delete sequences over
// every difftest family and compares the spliced store with the rebuild
// reference after each step.
func TestStoreEditMatchesRebuild(t *testing.T) {
	for fi, family := range difftest.Families {
		for scale := 1; scale <= 2; scale++ {
			rng := rand.New(rand.NewSource(int64(10*fi + scale)))
			st := difftest.Store(family, scale)
			for step := 0; step < 8; step++ {
				label := fmt.Sprintf("%s-%d step %d", family, scale, step)
				got, want := editStep(t, label, rng, st, step)
				sameStore(t, label, got, want)
				st = got
			}
		}
	}
}

// TestStoreEditDeletesLastNamedNode inserts a fragment that brings new
// names and deletes it again: the names stay interned, the old store's
// vocabulary is never extended, and the result equals the original.
func TestStoreEditDeletesLastNamedNode(t *testing.T) {
	st := difftest.Store("bib", 1)
	frag := editFragments[1](7)
	ins, us, err := st.InsertChild(st.DocumentElement(), frag)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Vocab == st.Vocab || st.Vocab.Lookup("fresh7") != -1 {
		t.Fatal("a new name was interned into the published vocabulary")
	}
	del, _, err := ins.DeleteSubtree(us.EditPoint)
	if err != nil {
		t.Fatal(err)
	}
	if del.Vocab != ins.Vocab || del.Vocab.Lookup("fresh7") == -1 {
		t.Fatal("delete did not share the vocabulary")
	}
	if len(del.ElementRefs("fresh7")) != 0 {
		t.Fatal("deleted name still has nodes")
	}
	sameStore(t, "insert+delete", del, st)
	again, _, err := st.InsertChild(st.DocumentElement(), xmldoc.MustParse(`<book year="1"><title>T</title></book>`))
	if err != nil {
		t.Fatal(err)
	}
	if again.Vocab != st.Vocab {
		t.Fatal("an insert of known names cloned the vocabulary")
	}
}

// TestStoreEditAllocsIndependentOfSize: one insert plus one delete
// allocates the same on Auction(1) and Auction(16).
func TestStoreEditAllocsIndependentOfSize(t *testing.T) {
	frag := editFragments[0](0)
	allocs := func(scale int) float64 {
		st := xmark.StoreAuction(scale)
		auction := st.ElementRefs("open_auction")[0]
		return testing.AllocsPerRun(20, func() {
			next, us, err := st.InsertChild(auction, frag)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := next.DeleteSubtree(us.EditPoint); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a1, a16 := allocs(1), allocs(16); a1 != a16 {
		t.Fatalf("insert+delete allocates %v times on Auction(1), %v on Auction(16)", a1, a16)
	}
}

// FuzzStoreEdit loads an arbitrary document and applies the edits the
// op bytes select, comparing each spliced result with the rebuild
// reference.
func FuzzStoreEdit(f *testing.F) {
	f.Add(`<a><b/>t</a>`, []byte{0, 1, 1, 2})
	f.Add(`<a x="1">t<b>u</b>v<!--c--><?p q?></a>`, []byte{1, 3, 0, 0, 1, 5})
	f.Add(`<r><s><t/></s></r>`, []byte{3, 2, 1, 1, 2, 4})
	f.Fuzz(func(t *testing.T, doc string, ops []byte) {
		if len(doc) > 4096 || len(ops) > 64 {
			return
		}
		st, err := storage.LoadString(doc)
		if err != nil {
			return
		}
		for i := 0; i+1 < len(ops); i += 2 {
			rng := rand.New(rand.NewSource(int64(ops[i])<<8 | int64(ops[i+1])))
			label := fmt.Sprintf("op %d", i/2)
			got, want := editStep(t, label, rng, st, i)
			sameStore(t, label, got, want)
			st = got
		}
	})
}
