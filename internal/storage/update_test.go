package storage

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xqp/internal/xmldoc"
)

func TestDeleteSubtree(t *testing.T) {
	s := MustLoad(bibXML)
	books := s.ElementRefs("book")
	before := s.NodeCount()
	size := s.SubtreeSize(books[0])
	out, stats, err := s.DeleteSubtree(books[0])
	if err != nil {
		t.Fatal(err)
	}
	if out.NodeCount() != before-size {
		t.Fatalf("nodes after delete = %d, want %d", out.NodeCount(), before-size)
	}
	if stats.NodesDeleted != size {
		t.Fatalf("NodesDeleted = %d, want %d", stats.NodesDeleted, size)
	}
	if len(out.ElementRefs("book")) != 1 {
		t.Fatal("book not deleted")
	}
	// Remaining book is the second one.
	if out.StringValue(out.ElementRefs("title")[0]) != "Data on the Web" {
		t.Fatal("wrong book deleted")
	}
	if stats.SuccinctDirtyBytes <= 0 || stats.IntervalDirtyBytes <= stats.SuccinctDirtyBytes {
		t.Fatalf("locality stats wrong: %+v", stats)
	}
	// Original store untouched (copy-on-write).
	if s.NodeCount() != before {
		t.Fatal("original store mutated")
	}
}

func TestDeleteErrors(t *testing.T) {
	s := MustLoad(`<a><b/></a>`)
	if _, _, err := s.DeleteSubtree(0); err == nil {
		t.Error("deleting root succeeded")
	}
	if _, _, err := s.DeleteSubtree(NodeRef(s.NodeCount())); err == nil {
		t.Error("deleting out-of-range succeeded")
	}
}

func TestInsertChild(t *testing.T) {
	s := MustLoad(bibXML)
	frag := xmldoc.MustParse(`<book year="2004"><title>T3</title><price>10.00</price></book>`)
	root := s.DocumentElement()
	out, stats, err := s.InsertChild(root, frag)
	if err != nil {
		t.Fatal(err)
	}
	books := out.ElementRefs("book")
	if len(books) != 3 {
		t.Fatalf("books after insert = %d", len(books))
	}
	// Inserted as last child.
	titles := out.ElementRefs("title")
	if out.StringValue(titles[len(titles)-1]) != "T3" {
		t.Fatal("not inserted at the end")
	}
	if stats.NodesInserted != len(frag.Nodes)-1 {
		t.Fatalf("NodesInserted = %d", stats.NodesInserted)
	}
	// Structural invariants hold on the new store.
	for n := NodeRef(0); int(n) < out.NodeCount(); n++ {
		_ = out.SubtreeSize(n)
	}
}

func TestInsertErrors(t *testing.T) {
	s := MustLoad(`<a>txt</a>`)
	frag := xmldoc.MustParse(`<x/>`)
	textRef := NodeRef(2) // root(0)/a(1)/text(2)
	if s.Kind(textRef) != xmldoc.KindText {
		t.Fatal("test setup wrong")
	}
	if _, _, err := s.InsertChild(textRef, frag); err == nil {
		t.Error("inserting under text succeeded")
	}
	if _, _, err := s.InsertChild(NodeRef(99), frag); err == nil {
		t.Error("inserting under missing node succeeded")
	}
}

func TestUpdateLocalityScaling(t *testing.T) {
	// The succinct dirty region depends only on the edited subtree; the
	// interval dirty region grows with the document (the E11 claim).
	frag := xmldoc.MustParse(`<book><title>new</title></book>`)
	var prevInterval int
	for _, scale := range []int{1, 4} {
		s := FromDoc(bigBib(scale))
		root := s.DocumentElement()
		first := s.FirstChild(root)
		_, stats, err := s.InsertChild(first, frag)
		if err != nil {
			t.Fatal(err)
		}
		if stats.IntervalDirtyBytes <= prevInterval {
			t.Fatalf("interval dirty bytes did not grow with scale: %+v", stats)
		}
		prevInterval = stats.IntervalDirtyBytes
		if stats.SuccinctDirtyBytes > 200 {
			t.Fatalf("succinct dirty bytes not local: %+v", stats)
		}
	}
}

func bigBib(scale int) *xmldoc.Document {
	b := xmldoc.NewBuilder()
	b.OpenElement("bib")
	for i := 0; i < 20*scale; i++ {
		b.OpenElement("book")
		b.OpenElement("title")
		b.Text("t")
		b.CloseElement()
		b.CloseElement()
	}
	b.CloseElement()
	return b.Build()
}

// Property: delete ∘ insert round-trips (inserting a fragment as the last
// child and deleting it restores the original tree).
func TestInsertDeleteRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDoc(r, 40)
		s := FromDoc(d)
		frag := xmldoc.MustParse(`<inserted><x/>text</inserted>`)
		target := s.DocumentElement()
		s2, _, err := s.InsertChild(target, frag)
		if err != nil {
			return false
		}
		// The inserted subtree root is the last child of the target's
		// counterpart in s2 (same ref: insertion is after its subtree...
		// find it by name instead).
		ins := s2.ElementRefs("inserted")
		if len(ins) != 1 {
			return false
		}
		s3, _, err := s2.DeleteSubtree(ins[0])
		if err != nil {
			return false
		}
		d1, d3 := s.ToDoc(), s3.ToDoc()
		return xmldoc.DeepEqual(d1, d1.Root(), d3, d3.Root())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateStatsEditLocation(t *testing.T) {
	s := MustLoad(bibXML)
	books := s.ElementRefs("book")

	// Insert: new nodes occupy [EditPoint, EditPoint+NodesInserted) in
	// the new store; refs before EditPoint are stable, refs at or after
	// it shift up by NodesInserted.
	frag := xmldoc.MustParse(`<note>see also</note>`)
	out, stats, err := s.InsertChild(books[0], frag)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Parent != books[0] {
		t.Fatalf("insert Parent = %d, want %d", stats.Parent, books[0])
	}
	wantEdit := books[0] + NodeRef(s.SubtreeSize(books[0]))
	if stats.EditPoint != wantEdit {
		t.Fatalf("insert EditPoint = %d, want %d", stats.EditPoint, wantEdit)
	}
	for d := stats.EditPoint; d < stats.EditPoint+NodeRef(stats.NodesInserted); d++ {
		if name := out.Name(d); name != "note" && out.Kind(d) != xmldoc.KindText {
			t.Fatalf("node %d in inserted interval is %s/%v, want inserted content", d, name, out.Kind(d))
		}
	}
	for r := NodeRef(0); r < stats.EditPoint; r++ {
		if s.Kind(r) != out.Kind(r) || s.Name(r) != out.Name(r) {
			t.Fatalf("ref %d before EditPoint not stable", r)
		}
	}
	for r := stats.EditPoint; int(r) < s.NodeCount(); r++ {
		shifted := r + NodeRef(stats.NodesInserted)
		if s.Kind(r) != out.Kind(shifted) || s.Name(r) != out.Name(shifted) {
			t.Fatalf("ref %d after EditPoint did not shift by %d", r, stats.NodesInserted)
		}
	}

	// Delete: the deleted interval is [EditPoint, EditPoint+NodesDeleted)
	// in the old store; later refs shift down.
	out2, dstats, err := s.DeleteSubtree(books[1])
	if err != nil {
		t.Fatal(err)
	}
	if dstats.Parent != s.Parent(books[1]) {
		t.Fatalf("delete Parent = %d, want %d", dstats.Parent, s.Parent(books[1]))
	}
	if dstats.EditPoint != books[1] {
		t.Fatalf("delete EditPoint = %d, want %d", dstats.EditPoint, books[1])
	}
	for r := dstats.EditPoint + NodeRef(dstats.NodesDeleted); int(r) < s.NodeCount(); r++ {
		shifted := r - NodeRef(dstats.NodesDeleted)
		if s.Kind(r) != out2.Kind(shifted) || s.Name(r) != out2.Name(shifted) {
			t.Fatalf("ref %d after deleted interval did not shift by -%d", r, dstats.NodesDeleted)
		}
	}
}

// TestEditKeepsPageSize: an edited store keeps the receiver's accounting
// page size instead of falling back to DefaultPageSize.
func TestEditKeepsPageSize(t *testing.T) {
	s := MustLoad(bibXML)
	s.SetPageSize(64)
	ins, _, err := s.InsertChild(s.DocumentElement(), xmldoc.MustParse(`<book><title>T</title></book>`))
	if err != nil {
		t.Fatal(err)
	}
	del, _, err := ins.DeleteSubtree(ins.ElementRefs("book")[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{ins, del} {
		a := NewAccountant()
		st.SetAccountant(a)
		st.Scan(st.Root(), func(NodeRef, int) bool { return true })
		// 64-byte pages hold 16 parentheses, so a scan of the whole
		// document spans several pages; 4096-byte pages would hold it in one.
		if a.Pages() < 2 {
			t.Fatalf("scan touched %d page(s): page size %d was not kept", a.Pages(), st.pageSize)
		}
	}
}

// ReferenceDelete and ReferenceInsert compute an edit the slow way, by
// copying the whole store through a fresh Builder. They are the reference
// the spliced DeleteSubtree and InsertChild are tested against.
func (s *Store) ReferenceDelete(target NodeRef) *Store {
	return s.rebuild(func(_ *Builder, n NodeRef) bool { return n != target }, nil)
}

func (s *Store) ReferenceInsert(parent NodeRef, frag *xmldoc.Document) *Store {
	return s.rebuild(nil, map[NodeRef]*xmldoc.Document{parent: frag})
}

// rebuild copies the store through a Builder, skipping nodes rejected by
// keep (nil keeps everything) and appending fragment children under the
// keys of insertUnder (nil inserts nothing).
func (s *Store) rebuild(keep func(*Builder, NodeRef) bool, insertUnder map[NodeRef]*xmldoc.Document) *Store {
	b := NewBuilder(nil)
	var emit func(n NodeRef)
	emit = func(n NodeRef) {
		if keep != nil && !keep(b, n) {
			return
		}
		switch s.Kind(n) {
		case xmldoc.KindDocument:
			for c := s.FirstChild(n); c != NilRef; c = s.NextSibling(c) {
				emit(c)
			}
			if frag, ok := insertUnder[n]; ok {
				copyFragment(b, frag)
			}
		case xmldoc.KindElement:
			b.StartElement(s.Name(n))
			for c := s.FirstChild(n); c != NilRef; c = s.NextSibling(c) {
				emit(c)
			}
			if frag, ok := insertUnder[n]; ok {
				copyFragment(b, frag)
			}
			b.EndElement()
		case xmldoc.KindAttribute:
			b.Attr(s.Name(n), s.Content(n))
		case xmldoc.KindText:
			b.Text(s.Content(n))
		case xmldoc.KindComment:
			b.Comment(s.Content(n))
		case xmldoc.KindPI:
			b.PI(s.Name(n), s.Content(n))
		}
	}
	emit(0)
	out := b.Build()
	out.URI = s.URI
	return out
}

// copyFragment appends the fragment's top-level nodes into the builder.
func copyFragment(b *Builder, frag *xmldoc.Document) {
	var emit func(n xmldoc.NodeID)
	emit = func(n xmldoc.NodeID) {
		switch frag.Kind(n) {
		case xmldoc.KindDocument:
			for c := frag.Nodes[n].FirstChild; c != xmldoc.Nil; c = frag.Nodes[c].NextSibling {
				emit(c)
			}
		case xmldoc.KindElement:
			b.StartElement(frag.Name(n))
			for c := frag.Nodes[n].FirstChild; c != xmldoc.Nil; c = frag.Nodes[c].NextSibling {
				emit(c)
			}
			b.EndElement()
		case xmldoc.KindAttribute:
			b.Attr(frag.Name(n), frag.Value(n))
		case xmldoc.KindText:
			b.Text(frag.Value(n))
		case xmldoc.KindComment:
			b.Comment(frag.Value(n))
		case xmldoc.KindPI:
			b.PI(frag.Name(n), frag.Value(n))
		}
	}
	emit(frag.Root())
}
