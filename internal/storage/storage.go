// Package storage implements the succinct physical XML storage scheme of
// the paper's Section 4 (Zhang, Kacholia, Özsu, ICDE 2004).
//
// Structure and content are stored separately:
//
//   - the tree structure is linearized in pre-order as balanced parentheses
//     (package bp), one open/close pair per node, so that the arrival order
//     of a streamed document coincides with the storage order;
//   - one tag symbol (package vocab) is attached to each opening
//     parenthesis, in a dense array indexed by pre-order number;
//   - element content (text, attribute values, comments, PIs) lives in a
//     separate content store, referenced from the structure by pre-order
//     number.
//
// Node handles are pre-order numbers (NodeRef, 0-based; 0 is the synthetic
// document root), so a subtree is always the contiguous ref range
// [n, n+SubtreeSize(n)). The open/close parenthesis positions double as the
// node's interval encoding (start, end), and depth equals parenthesis
// excess, which is what the join-based operators consume.
//
// # Serialization
//
// Results leave the store through AppendXML (and XMLString, its string
// form): one forward scan over the subtree's parenthesis interval that
// reads tags, kinds and content by pre-order number and writes XML
// directly, with no DOM copy and no per-node FindClose or rank.
// AppendXMLJSON is the same scan writing that XML already escaped as the
// body of a JSON string, for servers that answer in JSON. ToDoc and
// SubtreeDoc, which rebuild an xmldoc tree, are kept as the reference the
// serializer is tested against and as the input of indented printing.
//
// An optional Accountant counts distinct storage pages touched during
// navigation, modeling the I/O cost that the paper's experiments measure
// (experiment E9).
//
// # Concurrency
//
// A Store is immutable after Build/LoadReader returns: every accessor is
// a pure read (the lazily-built tag index is guarded by a sync.Once, and
// the Accountant serializes its counters internally), so any number of
// goroutines may query one Store concurrently without locking. The
// update operations (DeleteSubtree, InsertChild) are copy-on-write —
// they return a NEW Store and never modify the receiver. They splice
// rather than rebuild: the new store is the receiver's prefix, the
// edited fragment and its suffix, with content strings shared and the
// parenthesis vector copied a word at a time, so per-node work follows
// the edit. Generations share one vocabulary, copied on extend: a
// fragment that brings a new name clones the table, so a table published
// with a store is never mutated, and names whose last node is deleted
// stay interned. Swapping the new store into a shared catalog requires
// exclusive access;
// internal/engine serializes that swap behind a per-document RWMutex and
// bumps the document's generation so cached plans cannot outlive the
// store they were compiled against. The only mutating methods are
// SetAccountant and SetPageSize, which must be called before the store
// is shared.
package storage

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"xqp/internal/bitvec"
	"xqp/internal/bp"
	"xqp/internal/vocab"
	"xqp/internal/xmldoc"
)

// nextOrd issues Store.Ord values.
var nextOrd atomic.Int64

// NodeRef identifies a node by 0-based pre-order number.
type NodeRef int32

// NilRef is the absent node.
const NilRef NodeRef = -1

// Kind mirrors xmldoc.Kind for stored nodes.
type Kind = xmldoc.Kind

// DefaultPageSize is the default page size in bytes for I/O accounting.
const DefaultPageSize = 4096

// Store is an immutable succinct document store.
type Store struct {
	Vocab *vocab.Table
	Seq   *bp.Sequence
	URI   string
	// Ord is a process-wide creation ordinal used to give nodes from
	// different documents a stable, deterministic global order.
	Ord int64

	tags    []vocab.Symbol // per pre-order number
	kinds   []Kind         // per pre-order number
	content []string       // content values, densely packed
	cref    []int32        // per pre-order number: index into content or -1

	// openPos caches Select1 for pre-order -> parenthesis position.
	openPos []int32

	pageSize int
	acct     *Accountant

	tagIndexOnce sync.Once
	tagIndex     *TagIndex // guarded by tagIndexOnce
}

// Accountant tracks distinct pages touched; attach with Store.SetAccountant.
// It is safe for concurrent use: one accountant may observe queries from
// many goroutines (the engine's per-document page metrics rely on this).
type Accountant struct {
	mu    sync.Mutex
	pages map[int32]struct{} // guarded by mu
	// touches counts every page access including repeats.
	touches int64 // guarded by mu
}

// NewAccountant returns an empty accountant.
func NewAccountant() *Accountant {
	return &Accountant{pages: make(map[int32]struct{})}
}

// Reset clears all counters.
func (a *Accountant) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pages = make(map[int32]struct{})
	a.touches = 0
}

// Pages reports the number of distinct pages touched since the last Reset.
func (a *Accountant) Pages() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pages)
}

// TouchCount reports every page access including repeats.
func (a *Accountant) TouchCount() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.touches
}

func (a *Accountant) touch(page int32) {
	a.mu.Lock()
	a.touches++
	a.pages[page] = struct{}{}
	a.mu.Unlock()
}

// SetAccountant installs (or removes, with nil) an I/O accountant.
func (s *Store) SetAccountant(a *Accountant) { s.acct = a }

// SetPageSize overrides the accounting page size in bytes.
func (s *Store) SetPageSize(bytes int) {
	if bytes <= 0 {
		bytes = DefaultPageSize
	}
	s.pageSize = bytes
}

// touchStructure records an access to the parenthesis at position pos.
// Structure pages hold pageSize*8 parentheses (one bit each) plus a tag
// symbol each; we charge by the denser tag array (4 bytes per node).
func (s *Store) touchStructure(pos int) {
	if s.acct == nil {
		return
	}
	perPage := s.pageSize / 4
	s.acct.touch(int32(pos / perPage))
}

// touchContent records an access to content item idx. Content pages are
// charged in a separate page-id space.
func (s *Store) touchContent(idx int32) {
	if s.acct == nil || idx < 0 {
		return
	}
	const contentBase = 1 << 28
	perPage := int32(s.pageSize / 64) // content entries are string-sized
	if perPage == 0 {
		perPage = 1
	}
	s.acct.touch(contentBase + idx/perPage)
}

// --- Construction ---

// Builder assembles a Store from document events; it is both the DOM
// loader's and the streaming loader's back end.
type Builder struct {
	vocabT  *vocab.Table
	bits    *bitvec.Builder
	tags    []vocab.Symbol
	kinds   []Kind
	content []string
	cref    []int32
	depth   int
}

// NewBuilder returns a Builder with the synthetic document root opened.
// If vt is nil a fresh vocabulary is created.
func NewBuilder(vt *vocab.Table) *Builder {
	if vt == nil {
		vt = vocab.New()
	}
	b := &Builder{vocabT: vt, bits: bitvec.NewBuilder(1 << 12)}
	b.open(vocab.Root, xmldoc.KindDocument, -1)
	return b
}

func (b *Builder) open(sym vocab.Symbol, k Kind, cidx int32) {
	b.bits.Append(true)
	b.tags = append(b.tags, sym)
	b.kinds = append(b.kinds, k)
	b.cref = append(b.cref, cidx)
	b.depth++
}

func (b *Builder) close() {
	b.bits.Append(false)
	b.depth--
}

// StartElement opens an element named name.
func (b *Builder) StartElement(name string) {
	b.open(b.vocabT.Intern(name), xmldoc.KindElement, -1)
}

// EndElement closes the innermost open element.
func (b *Builder) EndElement() {
	if b.depth <= 1 {
		panic("storage: EndElement with no open element")
	}
	b.close()
}

// Attr appends an attribute node (stored with an "@"-prefixed symbol).
func (b *Builder) Attr(name, value string) {
	idx := int32(len(b.content))
	b.content = append(b.content, value)
	b.open(b.vocabT.Intern("@"+name), xmldoc.KindAttribute, idx)
	b.close()
}

// Text appends a text node.
func (b *Builder) Text(s string) {
	idx := int32(len(b.content))
	b.content = append(b.content, s)
	b.open(b.vocabT.Intern("#text"), xmldoc.KindText, idx)
	b.close()
}

// Comment appends a comment node.
func (b *Builder) Comment(s string) {
	idx := int32(len(b.content))
	b.content = append(b.content, s)
	b.open(b.vocabT.Intern("#comment"), xmldoc.KindComment, idx)
	b.close()
}

// PI appends a processing-instruction node.
func (b *Builder) PI(target, data string) {
	idx := int32(len(b.content))
	b.content = append(b.content, data)
	b.open(b.vocabT.Intern("?"+target), xmldoc.KindPI, idx)
	b.close()
}

// Build freezes the builder into a Store, closing any open elements.
func (b *Builder) Build() *Store {
	for b.depth > 1 {
		b.close()
	}
	b.close() // document root
	s := &Store{
		Vocab:    b.vocabT,
		Seq:      bp.New(b.bits.Build()),
		Ord:      nextOrd.Add(1),
		tags:     b.tags,
		kinds:    b.kinds,
		content:  b.content,
		cref:     b.cref,
		pageSize: DefaultPageSize,
	}
	s.openPos = make([]int32, len(b.tags))
	for i := range s.openPos {
		s.openPos[i] = int32(s.Seq.PreorderSelect(i + 1))
	}
	return s
}

// FromDoc loads an xmldoc tree into a fresh Store.
func FromDoc(d *xmldoc.Document) *Store {
	b := NewBuilder(nil)
	var load func(n xmldoc.NodeID)
	load = func(n xmldoc.NodeID) {
		switch d.Kind(n) {
		case xmldoc.KindElement:
			b.StartElement(d.Name(n))
			for c := d.Nodes[n].FirstChild; c != xmldoc.Nil; c = d.Nodes[c].NextSibling {
				load(c)
			}
			b.EndElement()
		case xmldoc.KindAttribute:
			b.Attr(d.Name(n), d.Value(n))
		case xmldoc.KindText:
			b.Text(d.Value(n))
		case xmldoc.KindComment:
			b.Comment(d.Value(n))
		case xmldoc.KindPI:
			b.PI(d.Name(n), d.Value(n))
		case xmldoc.KindDocument:
			for c := d.Nodes[n].FirstChild; c != xmldoc.Nil; c = d.Nodes[c].NextSibling {
				load(c)
			}
		}
	}
	load(d.Root())
	s := b.Build()
	s.URI = d.URI
	return s
}

// LoadReader parses XML from r directly into a Store without building a DOM
// first: the pre-order storage layout coincides with the streaming arrival
// order, so loading is a single pass (experiment E8).
func LoadReader(r io.Reader) (*Store, error) {
	dec := xml.NewDecoder(r)
	b := NewBuilder(nil)
	depth := 0
	lastWasText := false
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("storage: load: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			b.StartElement(t.Name.Local)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				b.Attr(a.Name.Local, a.Value)
			}
			depth++
			lastWasText = false
		case xml.EndElement:
			b.EndElement()
			depth--
			lastWasText = false
		case xml.CharData:
			if depth > 0 {
				txt := string(t)
				if strings.TrimSpace(txt) == "" {
					continue
				}
				if lastWasText {
					// Merge adjacent text (entity-split CharData).
					b.content[len(b.content)-1] += txt
				} else {
					b.Text(txt)
					lastWasText = true
				}
			}
		case xml.Comment:
			if depth > 0 {
				b.Comment(string(t))
				lastWasText = false
			}
		case xml.ProcInst:
			if depth > 0 {
				b.PI(t.Target, string(t.Inst))
				lastWasText = false
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("storage: load: %d unclosed elements", depth)
	}
	s := b.Build()
	if s.DocumentElement() == NilRef {
		return nil, fmt.Errorf("storage: load: no document element")
	}
	return s, nil
}

// LoadString parses an XML string into a Store.
func LoadString(s string) (*Store, error) {
	return LoadReader(strings.NewReader(s))
}

// MustLoad parses s and panics on error; for tests and examples.
func MustLoad(s string) *Store {
	st, err := LoadString(s)
	if err != nil {
		panic(err)
	}
	return st
}

// --- Accessors ---

// NodeCount reports the number of stored nodes, including the document root.
func (s *Store) NodeCount() int { return len(s.tags) }

// Root returns the synthetic document root.
func (s *Store) Root() NodeRef { return 0 }

// DocumentElement returns the top-level element, or NilRef.
func (s *Store) DocumentElement() NodeRef {
	for c := s.FirstChild(0); c != NilRef; c = s.NextSibling(c) {
		if s.kinds[c] == xmldoc.KindElement {
			return c
		}
	}
	return NilRef
}

// Kind returns the node kind.
func (s *Store) Kind(n NodeRef) Kind { return s.kinds[n] }

// Tag returns the node's tag symbol (elements: name; attributes: "@name";
// text: "#text"; etc.).
func (s *Store) Tag(n NodeRef) vocab.Symbol { return s.tags[n] }

// Name returns the node's name as queries see it ("year" for @year, "" for
// text/comments).
func (s *Store) Name(n NodeRef) string {
	switch s.kinds[n] {
	case xmldoc.KindElement:
		return s.Vocab.Name(s.tags[n])
	case xmldoc.KindAttribute:
		return s.Vocab.Name(s.tags[n])[1:]
	case xmldoc.KindPI:
		return s.Vocab.Name(s.tags[n])[1:]
	}
	return ""
}

// Content returns the node's own content ("" for elements).
func (s *Store) Content(n NodeRef) string {
	idx := s.cref[n]
	if idx < 0 {
		return ""
	}
	s.touchContent(idx)
	return s.content[idx]
}

// Open returns the node's opening parenthesis position (interval start).
func (s *Store) Open(n NodeRef) int {
	s.touchStructure(int(s.openPos[n]))
	return int(s.openPos[n])
}

// Close returns the node's closing parenthesis position (interval end).
func (s *Store) Close(n NodeRef) int {
	c := s.Seq.FindClose(s.Open(n))
	s.touchStructure(c)
	return c
}

// Span returns (start, end) parenthesis positions: the interval encoding.
func (s *Store) Span(n NodeRef) (int, int) {
	o := s.Open(n)
	return o, s.Close(n)
}

// Depth returns the node's depth (document root = 0).
func (s *Store) Depth(n NodeRef) int { return s.Seq.Depth(s.Open(n)) }

// refAt converts an open parenthesis position to a NodeRef.
func (s *Store) refAt(pos int) NodeRef {
	if pos < 0 {
		return NilRef
	}
	s.touchStructure(pos)
	return NodeRef(s.Seq.PreorderRank(pos) - 1)
}

// Parent returns the node's parent, or NilRef for the root.
func (s *Store) Parent(n NodeRef) NodeRef {
	return s.refAt(s.Seq.Parent(s.Open(n)))
}

// FirstChild returns the node's first child of any kind, or NilRef.
func (s *Store) FirstChild(n NodeRef) NodeRef {
	return s.refAt(s.Seq.FirstChild(s.Open(n)))
}

// NextSibling returns the node's next sibling of any kind, or NilRef.
func (s *Store) NextSibling(n NodeRef) NodeRef {
	return s.refAt(s.Seq.NextSibling(s.Open(n)))
}

// PrevSibling returns the node's previous sibling of any kind, or NilRef.
func (s *Store) PrevSibling(n NodeRef) NodeRef {
	return s.refAt(s.Seq.PrevSibling(s.Open(n)))
}

// LastChild returns the node's last child of any kind, or NilRef.
func (s *Store) LastChild(n NodeRef) NodeRef {
	return s.refAt(s.Seq.LastChild(s.Open(n)))
}

// SubtreeSize returns the number of nodes in n's subtree, including n.
// Descendant refs are exactly the contiguous range (n, n+SubtreeSize(n)).
func (s *Store) SubtreeSize(n NodeRef) int {
	return s.Seq.SubtreeSize(s.Open(n))
}

// IsLeaf reports whether n has no children.
func (s *Store) IsLeaf(n NodeRef) bool { return s.Seq.IsLeaf(s.Open(n)) }

// IsAncestor reports whether a is a proper ancestor of d.
func (s *Store) IsAncestor(a, d NodeRef) bool {
	return a < d && d < a+NodeRef(s.SubtreeSize(a))
}

// IsParent reports whether p is the parent of c.
func (s *Store) IsParent(p, c NodeRef) bool {
	return s.IsAncestor(p, c) && s.Depth(p)+1 == s.Depth(c)
}

// Attribute returns n's attribute named name, or NilRef.
func (s *Store) Attribute(n NodeRef, name string) NodeRef {
	sym := s.Vocab.Lookup("@" + name)
	if sym == vocab.None {
		return NilRef
	}
	for c := s.FirstChild(n); c != NilRef; c = s.NextSibling(c) {
		if s.kinds[c] != xmldoc.KindAttribute {
			break // attributes precede other children
		}
		if s.tags[c] == sym {
			return c
		}
	}
	return NilRef
}

// StringValue returns the XPath string-value of n: its own content for
// leaves with content, otherwise the concatenated text of its descendants.
// Thanks to pre-order refs this is a single contiguous scan.
func (s *Store) StringValue(n NodeRef) string {
	if idx := s.cref[n]; idx >= 0 {
		s.touchContent(idx)
		return s.content[idx]
	}
	end := n + NodeRef(s.SubtreeSize(n))
	var b strings.Builder
	for d := n + 1; d < end; d++ {
		if s.kinds[d] == xmldoc.KindText {
			s.touchContent(s.cref[d])
			b.WriteString(s.content[s.cref[d]])
		}
	}
	return b.String()
}

// Scan calls f for every node in n's subtree (including n) in pre-order,
// with the node's depth relative to n. Returning false prunes that subtree.
// This is the access pattern of the NoK matcher: one pass, contiguous pages.
func (s *Store) Scan(n NodeRef, f func(NodeRef, int) bool) {
	end := n + NodeRef(s.SubtreeSize(n))
	base := s.Depth(n)
	skipUntil := NodeRef(-1)
	for c := n; c < end; c++ {
		if c < skipUntil {
			continue
		}
		s.touchStructure(int(s.openPos[c]))
		if !f(c, s.Seq.Depth(int(s.openPos[c]))-base) {
			skipUntil = c + NodeRef(s.SubtreeSize(c))
		}
	}
}

// ToDoc materializes the store back into an xmldoc tree (for differential
// testing and indented printing).
func (s *Store) ToDoc() *xmldoc.Document {
	b := xmldoc.NewBuilder()
	var emit func(n NodeRef)
	emit = func(n NodeRef) {
		switch s.kinds[n] {
		case xmldoc.KindDocument:
			for c := s.FirstChild(n); c != NilRef; c = s.NextSibling(c) {
				emit(c)
			}
		case xmldoc.KindElement:
			b.OpenElement(s.Name(n))
			for c := s.FirstChild(n); c != NilRef; c = s.NextSibling(c) {
				emit(c)
			}
			b.CloseElement()
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
	d := b.Build()
	d.URI = s.URI
	return d
}

// SubtreeDoc materializes the subtree rooted at n as a standalone
// xmldoc tree: the reference AppendXML is tested against, and the input
// of indented printing. Serialization does not go through it.
func (s *Store) SubtreeDoc(n NodeRef) *xmldoc.Document {
	if n == 0 {
		return s.ToDoc()
	}
	b := xmldoc.NewBuilder()
	c := &subtreeCopier{s: s, b: b}
	c.copy(n)
	return b.Build()
}

// XMLString serializes the subtree at n; see AppendXML.
func (s *Store) XMLString(n NodeRef) string {
	return string(s.AppendXML(nil, n))
}

type subtreeCopier struct {
	s *Store
	b *xmldoc.Builder
}

func (c *subtreeCopier) copy(n NodeRef) {
	switch c.s.kinds[n] {
	case xmldoc.KindElement:
		c.b.OpenElement(c.s.Name(n))
		for k := c.s.FirstChild(n); k != NilRef; k = c.s.NextSibling(k) {
			c.copy(k)
		}
		c.b.CloseElement()
	case xmldoc.KindAttribute:
		c.b.Attr(c.s.Name(n), c.s.Content(n))
	case xmldoc.KindText:
		c.b.Text(c.s.Content(n))
	case xmldoc.KindComment:
		c.b.Comment(c.s.Content(n))
	case xmldoc.KindPI:
		c.b.PI(c.s.Name(n), c.s.Content(n))
	case xmldoc.KindDocument:
		for k := c.s.FirstChild(n); k != NilRef; k = c.s.NextSibling(k) {
			c.copy(k)
		}
	}
}

// TagRefs returns all nodes with tag symbol sym, in document order, via
// the cached tag index. This is the index scan that feeds the join-based
// operators; the returned slice is shared and must not be mutated.
func (s *Store) TagRefs(sym vocab.Symbol) []NodeRef {
	if sym == vocab.None {
		return nil
	}
	return s.Index().Refs(sym)
}

// ElementRefs returns all element nodes named name, in document order.
func (s *Store) ElementRefs(name string) []NodeRef {
	sym := s.Vocab.Lookup(name)
	if sym == vocab.None {
		return nil
	}
	return s.TagRefs(sym)
}

// SizeBytes reports the store's footprint split into structure, tags and
// content (experiment E1).
func (s *Store) SizeBytes() (structure, tags, content int) {
	structure = s.Seq.SizeBytes() + 4*len(s.openPos)
	tags = 4*len(s.tags) + len(s.kinds) + 4*len(s.cref) + s.Vocab.SizeBytes()
	for _, c := range s.content {
		content += len(c) + 16
	}
	return structure, tags, content
}

// String summarizes the store for debugging.
func (s *Store) String() string {
	st, tg, ct := s.SizeBytes()
	return fmt.Sprintf("Store{nodes=%d, vocab=%d, structure=%dB, tags=%dB, content=%dB}",
		s.NodeCount(), s.Vocab.Len(), st, tg, ct)
}
