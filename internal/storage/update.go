package storage

import (
	"fmt"

	"xqp/internal/bitvec"
	"xqp/internal/bp"
	"xqp/internal/vocab"
	"xqp/internal/xmldoc"
)

// UpdateStats quantifies the locality of an update: how much of each
// encoding actually changes. The paper's Section 4.2 claims the pre-order
// balanced-parentheses clustering makes updates local ("each update only
// affects a local sub-string"); by contrast, interval encodings renumber
// every node following the edit point.
type UpdateStats struct {
	// NodesInserted / NodesDeleted count affected nodes.
	NodesInserted int
	NodesDeleted  int
	// Parent is the node under which the edit happened: the insertion
	// parent for InsertChild, the deleted subtree's parent for
	// DeleteSubtree. Its ref is identical in the old and new stores
	// (it precedes the edit point in pre-order).
	Parent NodeRef
	// EditPoint is the first node ref whose identity changed: in the new
	// store, inserted nodes occupy [EditPoint, EditPoint+NodesInserted);
	// in the old store, deleted nodes occupied
	// [EditPoint, EditPoint+NodesDeleted). Refs at or after EditPoint
	// shift by NodesInserted-NodesDeleted between the two stores; refs
	// before it are stable. Incremental re-evaluation (internal/cq)
	// consumes this interval as the dirty region.
	EditPoint NodeRef
	// SuccinctDirtyBytes is the contiguous region of the succinct
	// encoding that changes: 2 bits per node in the structure stream
	// plus one tag id and kind byte per node, plus changed content.
	SuccinctDirtyBytes int
	// IntervalDirtyBytes is what an interval-encoded relation must
	// rewrite: the edited tuples plus the renumbered (start, end) of
	// every node at or after the edit point.
	IntervalDirtyBytes int
}

// The updates below are copy-on-write: they return a new Store and never
// modify the receiver. The new store is spliced together from the
// receiver's arrays, prefix + fragment + suffix, instead of being re-walked
// node by node. The tags, kinds, cref, content and openPos arrays are block
// copies; the suffix's cref and openPos shift by a constant; content
// strings are shared; and the parenthesis vector is copied a word at a
// time. Only an inserted fragment is encoded node by node, so per-node work
// is proportional to the edit. Generations share one vocabulary, copied on
// extend: it is cloned only when a fragment brings a name it lacks, so a
// table published with a store is never mutated. Deleted names stay
// interned. A disk-resident implementation would rewrite only the dirty
// region; UpdateStats reports that region's size so experiments can
// compare locality across schemes.

// DeleteSubtree removes the subtree rooted at target and returns the new
// store. The document root cannot be deleted.
func (s *Store) DeleteSubtree(target NodeRef) (*Store, UpdateStats, error) {
	if target <= 0 || int(target) >= s.NodeCount() {
		return nil, UpdateStats{}, fmt.Errorf("storage: DeleteSubtree(%d): no such node", target)
	}
	size := s.SubtreeSize(target)
	var contentBytes int
	for d := target; d < target+NodeRef(size); d++ {
		if c := s.cref[d]; c >= 0 {
			contentBytes += len(s.content[c])
		}
	}
	stats := UpdateStats{
		NodesDeleted:       size,
		Parent:             s.Parent(target),
		EditPoint:          target,
		SuccinctDirtyBytes: dirtySuccinct(size, contentBytes),
		IntervalDirtyBytes: dirtyInterval(s, target, size),
	}
	out := s.splice(target, int(s.openPos[target]), size, &fragment{vt: s.Vocab})
	return out, stats, nil
}

// InsertChild inserts the document element(s) of frag as the last
// children of parent, returning the new store.
func (s *Store) InsertChild(parent NodeRef, frag *xmldoc.Document) (*Store, UpdateStats, error) {
	if parent < 0 || int(parent) >= s.NodeCount() {
		return nil, UpdateStats{}, fmt.Errorf("storage: InsertChild(%d): no such node", parent)
	}
	if k := s.Kind(parent); k != xmldoc.KindElement && k != xmldoc.KindDocument {
		return nil, UpdateStats{}, fmt.Errorf("storage: InsertChild: %v node cannot have children", k)
	}
	f := &fragment{vt: s.Vocab}
	f.encode(frag, frag.Root())
	contentBytes := 0
	for _, c := range f.content {
		contentBytes += len(c)
	}
	// Everything after the parent's close parenthesis keeps its position;
	// interval encodings renumber from the insertion point on.
	size := s.SubtreeSize(parent)
	editPoint := parent + NodeRef(size)
	stats := UpdateStats{
		NodesInserted:      len(f.tags),
		Parent:             parent,
		EditPoint:          editPoint,
		SuccinctDirtyBytes: dirtySuccinct(len(f.tags), contentBytes),
		IntervalDirtyBytes: dirtyInterval(s, editPoint, len(f.tags)),
	}
	// The fragment's parentheses go just before the parent's close
	// parenthesis, which a subtree of size nodes puts 2*size-1 after its open.
	out := s.splice(editPoint, int(s.openPos[parent])+2*size-1, 0, f)
	return out, stats, nil
}

// dirtySuccinct is the size of the contiguous changed region of the
// succinct encoding: 2 structure bits + ~5 bytes of tag/kind/cref per
// node, plus the content bytes.
func dirtySuccinct(nodes, contentBytes int) int {
	return nodes*2/8 + nodes*9 + contentBytes
}

// dirtyInterval is what an interval-encoded relation rewrites: 16 bytes
// per edited node plus 8 bytes (start, end) for every node whose numbers
// shift — all nodes from the edit point to the end of the document.
func dirtyInterval(s *Store, editPoint NodeRef, editedNodes int) int {
	following := s.NodeCount() - int(editPoint)
	if following < 0 {
		following = 0
	}
	return editedNodes*16 + following*8
}

// fragment is an inserted fragment encoded in the store's layout. Its
// content indexes and parenthesis positions are relative to the fragment;
// splice rebases them.
type fragment struct {
	// vt is the store's vocabulary until the fragment brings a name it
	// lacks, then a private clone (cloned) that the new store publishes.
	vt      *vocab.Table
	cloned  bool
	tags    []vocab.Symbol
	kinds   []Kind
	cref    []int32
	content []string
	open    []int32 // per node: its open parenthesis, counted from the fragment's first
	bits    []bool
}

// intern resolves name in the shared vocabulary, cloning it on the first
// name it lacks.
func (f *fragment) intern(name string) vocab.Symbol {
	if sym := f.vt.Lookup(name); sym != vocab.None {
		return sym
	}
	if !f.cloned {
		f.vt = f.vt.Clone()
		f.cloned = true
	}
	return f.vt.Intern(name)
}

// openNode appends a node's open parenthesis; leaves with content (every
// kind but elements) get a content entry.
func (f *fragment) openNode(name string, k Kind, content string) {
	cidx := int32(-1)
	if k != xmldoc.KindElement {
		cidx = int32(len(f.content))
		f.content = append(f.content, content)
	}
	f.open = append(f.open, int32(len(f.bits)))
	f.bits = append(f.bits, true)
	f.tags = append(f.tags, f.intern(name))
	f.kinds = append(f.kinds, k)
	f.cref = append(f.cref, cidx)
}

func (f *fragment) closeNode() { f.bits = append(f.bits, false) }

// encode appends n's subtree (for the document node: its children) in
// pre-order, naming nodes as Builder does.
func (f *fragment) encode(d *xmldoc.Document, n xmldoc.NodeID) {
	switch d.Kind(n) {
	case xmldoc.KindDocument:
		for c := d.Nodes[n].FirstChild; c != xmldoc.Nil; c = d.Nodes[c].NextSibling {
			f.encode(d, c)
		}
		return
	case xmldoc.KindElement:
		f.openNode(d.Name(n), xmldoc.KindElement, "")
		for c := d.Nodes[n].FirstChild; c != xmldoc.Nil; c = d.Nodes[c].NextSibling {
			f.encode(d, c)
		}
	case xmldoc.KindAttribute:
		f.openNode("@"+d.Name(n), xmldoc.KindAttribute, d.Value(n))
	case xmldoc.KindText:
		f.openNode("#text", xmldoc.KindText, d.Value(n))
	case xmldoc.KindComment:
		f.openNode("#comment", xmldoc.KindComment, d.Value(n))
	case xmldoc.KindPI:
		f.openNode("?"+d.Name(n), xmldoc.KindPI, d.Value(n))
	default:
		return
	}
	f.closeNode()
}

// splice returns the store with nodes [at, at+del) removed and f inserted
// at ref at, whose parentheses start at position pos. Exactly one of del
// and f is non-empty. Content is packed in pre-order, one entry per
// content-carrying node, and the result keeps that layout.
func (s *Store) splice(at NodeRef, pos, del int, f *fragment) *Store {
	cut := at + NodeRef(del) // first node of the suffix
	ins := len(f.tags)
	n := len(s.tags) - del + ins
	c0 := s.contentIndex(at)
	cdel := int32(0)
	for _, c := range s.cref[at:cut] {
		if c >= 0 {
			cdel++
		}
	}
	cshift := int32(len(f.content)) - cdel
	pshift := int32(2 * (ins - del))

	tags := make([]vocab.Symbol, 0, n)
	tags = append(append(append(tags, s.tags[:at]...), f.tags...), s.tags[cut:]...)
	kinds := make([]Kind, 0, n)
	kinds = append(append(append(kinds, s.kinds[:at]...), f.kinds...), s.kinds[cut:]...)

	cref := make([]int32, n)
	copy(cref, s.cref[:at])
	for i, c := range f.cref {
		if c >= 0 {
			c += c0
		}
		cref[int(at)+i] = c
	}
	for i, c := range s.cref[cut:] {
		if c >= 0 {
			c += cshift
		}
		cref[int(at)+ins+i] = c
	}
	content := s.content
	if cshift != 0 || cdel != 0 {
		content = make([]string, 0, len(s.content)+int(cshift))
		content = append(append(append(content, s.content[:c0]...), f.content...), s.content[c0+cdel:]...)
	}

	openPos := make([]int32, n)
	copy(openPos, s.openPos[:at])
	for i, p := range f.open {
		openPos[int(at)+i] = p + int32(pos)
	}
	for i, p := range s.openPos[cut:] {
		openPos[int(at)+ins+i] = p + pshift
	}

	bits := bitvec.NewBuilder(2 * n)
	words := s.Seq.Words()
	bits.AppendRange(words, 0, pos)
	for _, b := range f.bits {
		bits.Append(b)
	}
	tail := pos + 2*del
	bits.AppendRange(words, tail, s.Seq.Len()-tail)

	return &Store{
		Vocab:    f.vt,
		Seq:      bp.New(bits.Build()),
		URI:      s.URI,
		Ord:      nextOrd.Add(1),
		tags:     tags,
		kinds:    kinds,
		content:  content,
		cref:     cref,
		openPos:  openPos,
		pageSize: s.pageSize,
	}
}

// contentIndex returns how many content entries belong to nodes before
// ref at. Content is packed in pre-order, so that is the cref of the first
// content-carrying node at or after at, or one past the cref of the last
// one before it. Both directions are searched in step, so the cost is the
// distance to the nearest content-carrying node.
func (s *Store) contentIndex(at NodeRef) int32 {
	for lo, hi := int(at)-1, int(at); lo >= 0 || hi < len(s.cref); lo, hi = lo-1, hi+1 {
		if hi < len(s.cref) && s.cref[hi] >= 0 {
			return s.cref[hi]
		}
		if lo >= 0 && s.cref[lo] >= 0 {
			return s.cref[lo] + 1
		}
	}
	return 0
}
