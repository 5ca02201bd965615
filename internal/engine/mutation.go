package engine

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"xqp/internal/stats"
	"xqp/internal/storage"
	"xqp/internal/xmldoc"
)

// MutationOp selects the kind of a Mutation.
type MutationOp uint8

// Mutation kinds.
const (
	// MutationInsert appends the fragment(s) in XML as the last children
	// of the node at Path.
	MutationInsert MutationOp = iota
	// MutationDelete removes the subtree rooted at the node at Path.
	MutationDelete
)

func (o MutationOp) String() string {
	if o == MutationInsert {
		return "insert"
	}
	return "delete"
}

// MarshalJSON encodes the op by name ("insert" / "delete"), the wire
// form the xqd /apply endpoint accepts.
func (o MutationOp) MarshalJSON() ([]byte, error) {
	return []byte(`"` + o.String() + `"`), nil
}

// UnmarshalJSON decodes "insert" or "delete".
func (o *MutationOp) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"insert"`:
		*o = MutationInsert
	case `"delete"`:
		*o = MutationDelete
	default:
		return fmt.Errorf("unknown mutation op %s", b)
	}
	return nil
}

// Mutation is one declarative edit of a document tree, addressed by a
// simple path instead of a node ref: refs shift on every commit, paths
// stay meaningful across generations (they are resolved against the
// store the mutation actually applies to).
type Mutation struct {
	// Op selects insert or delete.
	Op MutationOp `json:"op"`
	// Path locates the target node: "/" or "" is the document element;
	// otherwise "/name/name[2]/name" — child element steps with an
	// optional 1-based index among same-name siblings (first match when
	// omitted).
	Path string `json:"path"`
	// XML holds the fragment(s) to insert (a sequence of well-formed
	// elements, text, comments, or PIs); ignored for deletes.
	XML string `json:"xml,omitempty"`
}

// MutationRecord is one applied mutation inside a commit: what changed
// (UpdateStats locates the dirty node interval) and the store state the
// change produced. Incremental re-evaluation steps through the records
// in order, remapping its retained matches through each edit point.
type MutationRecord struct {
	// Op is the applied mutation's kind.
	Op MutationOp
	// Stats quantifies and locates the edit (see storage.UpdateStats).
	Stats storage.UpdateStats
	// After is the store immediately after this mutation (the last
	// record's After is the committed store).
	After *storage.Store
}

// CommitEvent describes one catalog change, delivered to the commit
// notifier in generation order per document (emission happens under the
// document's write lock).
type CommitEvent struct {
	// Doc is the document name; Gen the generation just produced (the
	// final generation when Closed).
	Doc string
	Gen uint64
	// Prev is the snapshot the commit replaced (nil on first
	// registration); Store and Syn are the new snapshot (nil when
	// Closed).
	Prev  *storage.Store
	Store *storage.Store
	Syn   *stats.Synopsis
	// Closed reports the document was removed from the catalog.
	Closed bool
	// Tracked reports that Records fully derives Store from Prev, so a
	// consumer may update retained state incrementally; untracked
	// commits (Register replacing a document, opaque Update closures)
	// require re-evaluation from scratch.
	Tracked bool
	// Records are the applied mutations, in order (tracked commits only).
	Records []MutationRecord
}

// ApplyResult summarizes one Apply/Append commit.
type ApplyResult struct {
	// Generation is the document generation the commit produced.
	Generation uint64 `json:"generation"`
	// Applied counts the mutations in the commit.
	Applied int `json:"applied"`
	// NodesInserted / NodesDeleted aggregate the per-mutation counts.
	NodesInserted int `json:"nodes_inserted"`
	NodesDeleted  int `json:"nodes_deleted"`
	// SuccinctDirtyBytes / IntervalDirtyBytes aggregate the encoding
	// dirty-region sizes reported by storage.UpdateStats.
	SuccinctDirtyBytes int `json:"succinct_dirty_bytes"`
	IntervalDirtyBytes int `json:"interval_dirty_bytes"`
}

// SetCommitNotifier installs fn to be called after every commit
// (register, update, apply, close). Calls are made while the document's
// write lock is held, so they are totally ordered per document and must
// return quickly; fn must not call back into the Engine (enqueue and
// return). A later call replaces the notifier.
func (e *Engine) SetCommitNotifier(fn func(CommitEvent)) {
	e.notify.Store(&fn)
}

func (e *Engine) emit(ev CommitEvent) {
	if fn := e.notify.Load(); fn != nil && *fn != nil {
		(*fn)(ev)
	}
}

// Snapshot returns the named document's current immutable
// (store, synopsis, generation) snapshot.
func (e *Engine) Snapshot(name string) (*storage.Store, *stats.Synopsis, uint64, error) {
	d, err := e.lookup(name)
	if err != nil {
		return nil, nil, 0, err
	}
	st, syn, gen := d.snapshot()
	return st, syn, gen, nil
}

// Apply applies the mutations to the named document as one atomic
// commit: either every mutation applies and the generation bumps once,
// or none do. Paths resolve against the store each mutation sees (so a
// later mutation can address content an earlier one inserted). In-flight
// queries keep executing against the previous immutable snapshot.
//
// Fragments are parsed before the write lock is taken, so XML parsing
// never lengthens the window in which new readers wait; under the lock
// each mutation splices the store and edits the synopsis, work that
// scales with the edit rather than the document.
func (e *Engine) Apply(name string, muts []Mutation) (*ApplyResult, error) {
	if len(muts) == 0 {
		return nil, fmt.Errorf("engine: apply %q: empty mutation batch", name)
	}
	frags := make([]*xmldoc.Document, len(muts))
	for i, m := range muts {
		switch m.Op {
		case MutationInsert:
			frag, err := parseFragments(m.XML)
			if err != nil {
				return nil, fmt.Errorf("engine: apply %q mutation %d: %w", name, i, err)
			}
			frags[i] = frag
		case MutationDelete: // no fragment
		default:
			return nil, fmt.Errorf("engine: apply %q mutation %d: unknown op %d", name, i, m.Op)
		}
	}
	d, err := e.lookup(name)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	prev := d.st
	st, syn := d.st, d.syn
	recs := make([]MutationRecord, 0, len(muts))
	res := &ApplyResult{Applied: len(muts)}
	for i, m := range muts {
		target, err := resolvePath(st, m.Path)
		if err != nil {
			return nil, fmt.Errorf("engine: apply %q mutation %d: %w", name, i, err)
		}
		var (
			next *storage.Store
			us   storage.UpdateStats
		)
		if m.Op == MutationInsert {
			next, us, err = st.InsertChild(target, frags[i])
		} else {
			next, us, err = st.DeleteSubtree(target)
		}
		if err != nil {
			return nil, fmt.Errorf("engine: apply %q mutation %d: %w", name, i, err)
		}
		syn = syn.Edit(st, next, us)
		recs = append(recs, MutationRecord{Op: m.Op, Stats: us, After: next})
		res.NodesInserted += us.NodesInserted
		res.NodesDeleted += us.NodesDeleted
		res.SuccinctDirtyBytes += us.SuccinctDirtyBytes
		res.IntervalDirtyBytes += us.IntervalDirtyBytes
		st = next
	}
	if d.acct != nil {
		st.SetAccountant(d.acct) // shared accountant: PagesTouched never drops backward
	}
	d.st = st
	d.syn = syn
	d.gen++
	res.Generation = d.gen
	e.met.updates.Add(1)
	e.met.updNodesInserted.Add(int64(res.NodesInserted))
	e.met.updNodesDeleted.Add(int64(res.NodesDeleted))
	e.met.updSuccinctDirty.Add(int64(res.SuccinctDirtyBytes))
	e.met.updIntervalDirty.Add(int64(res.IntervalDirtyBytes))
	e.emit(CommitEvent{
		Doc: name, Gen: d.gen, Prev: prev, Store: st, Syn: d.syn,
		Tracked: true, Records: recs,
	})
	return res, nil
}

// Append is the streaming-ingest entry point: it parses r as a sequence
// of XML fragments and commits them as the last children of the document
// element, batched into a single generation. It is how a feed (auction
// bids, log records, sensor events) grows a document without re-sending
// it.
func (e *Engine) Append(name string, r io.Reader) (*ApplyResult, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("engine: append %q: %w", name, err)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("engine: append %q: empty fragment stream", name)
	}
	return e.Apply(name, []Mutation{{Op: MutationInsert, Path: "/", XML: string(data)}})
}

// parseFragments parses a sequence of XML fragments into a document
// whose document node holds each fragment as a top-level subtree (the
// shape storage.Store.InsertChild consumes).
func parseFragments(xml string) (*xmldoc.Document, error) {
	wrapped, err := xmldoc.ParseString("<fragment-batch>" + xml + "</fragment-batch>")
	if err != nil {
		return nil, fmt.Errorf("parsing fragments: %w", err)
	}
	wrapper := wrapped.DocumentElement()
	b := xmldoc.NewBuilder()
	n := 0
	for c := wrapped.FirstChild(wrapper); c != xmldoc.Nil; c = wrapped.NextSibling(c) {
		b.CopySubtree(wrapped, c)
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("parsing fragments: no content")
	}
	return b.Build(), nil
}

// resolvePath resolves a simple absolute path against a store: "" or "/"
// is the document element, each further step "name" or "name[k]" selects
// the k-th (1-based, default first) child element named name.
func resolvePath(st *storage.Store, path string) (storage.NodeRef, error) {
	n := st.DocumentElement()
	if n == storage.NilRef {
		return 0, fmt.Errorf("resolve %q: document has no element", path)
	}
	trimmed := strings.Trim(path, "/")
	if trimmed == "" {
		return n, nil
	}
	for _, seg := range strings.Split(trimmed, "/") {
		name, idx, err := splitSegment(seg)
		if err != nil {
			return 0, fmt.Errorf("resolve %q: %w", path, err)
		}
		found := storage.NilRef
		for c := st.FirstChild(n); c != storage.NilRef; c = st.NextSibling(c) {
			if st.Kind(c) != xmldoc.KindElement || st.Name(c) != name {
				continue
			}
			idx--
			if idx == 0 {
				found = c
				break
			}
		}
		if found == storage.NilRef {
			return 0, fmt.Errorf("resolve %q: no child %q under %q", path, seg, st.Name(n))
		}
		n = found
	}
	return n, nil
}

// splitSegment parses one path step "name" or "name[k]" (k ≥ 1).
func splitSegment(seg string) (name string, idx int, err error) {
	name, idx = seg, 1
	if i := strings.IndexByte(seg, '['); i >= 0 {
		if !strings.HasSuffix(seg, "]") {
			return "", 0, fmt.Errorf("bad step %q", seg)
		}
		name = seg[:i]
		idx, err = strconv.Atoi(seg[i+1 : len(seg)-1])
		if err != nil || idx < 1 {
			return "", 0, fmt.Errorf("bad index in step %q", seg)
		}
	}
	if name == "" {
		return "", 0, fmt.Errorf("empty step %q", seg)
	}
	return name, idx, nil
}
