package join

// Batched stream construction for TwigStack: one linear scan of the
// parenthesis sequence (batch.Intervals) precomputes every node's
// closing position and level, so building a vertex stream costs an O(1)
// array load per element instead of a FindClose (block scans plus a
// segment-tree walk) inside elemOf. The stack phases are unchanged —
// they consume the same document-ordered streams — so results are
// identical to the interpreted entry points. The interval scan covers
// the whole document on every call, which costs more than the plain
// streams' per-element FindClose on every measured workload, so the
// executor never runs it; it is kept as a measured baseline for the
// benchmark's layer timings and experiment E19.

import (
	"xqp/internal/ast"
	"xqp/internal/batch"
	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/tally"
	"xqp/internal/xmldoc"
)

// TwigStackBatched is TwigStackCounted over streams built from the
// interval arrays of one batched parenthesis scan.
func TwigStackBatched(st *storage.Store, g *pattern.Graph, interrupt func() error, c *tally.Counters) (s Stream, err error) {
	defer catchInterrupt(&err)
	streams, err := batchedStreams(st, g, interrupt)
	if err != nil {
		return nil, err
	}
	return TwigStackStreamsCounted(st, g, streams, interrupt, c)
}

// batchedStreams builds the per-vertex streams from one Intervals scan.
// streams[0] stays nil: the anchor stream depends on the caller's
// context, exactly as in VertexStreamsParallel.
func batchedStreams(st *storage.Store, g *pattern.Graph, interrupt func() error) ([]Stream, error) {
	closePos, level, err := batch.Intervals(st, interrupt)
	if err != nil {
		return nil, err
	}
	p := &poller{interrupt: interrupt}
	streams := make([]Stream, g.VertexCount())
	for v := 1; v < g.VertexCount(); v++ {
		streams[v] = batchedVertexStream(st, g.Vertices[v], closePos, level, p)
	}
	return streams, nil
}

// batchedVertexStream is vertexStream with interval encodings read from
// the precomputed arrays: Open is O(1) on the store, close and level
// are array loads.
func batchedVertexStream(st *storage.Store, v pattern.Vertex, closePos, level []int32, p *poller) Stream {
	var out Stream
	add := func(n storage.NodeRef) {
		p.poll()
		for _, pr := range v.Preds {
			if !pr.Matches(st.StringValue(n)) {
				return
			}
		}
		out = append(out, Elem{Ref: n, Start: int32(st.Open(n)), End: closePos[n], Level: level[n]})
	}
	switch {
	case v.Attribute:
		if v.Test.Name == "*" {
			for i := 0; i < st.NodeCount(); i++ {
				p.poll()
				if st.Kind(storage.NodeRef(i)) == xmldoc.KindAttribute {
					add(storage.NodeRef(i))
				}
			}
			return out
		}
		for _, n := range st.TagRefs(st.Vocab.Lookup("@" + v.Test.Name)) {
			add(n)
		}
		return out
	case v.Test.Kind == ast.TestName:
		if v.Test.Name == "*" {
			for i := 0; i < st.NodeCount(); i++ {
				p.poll()
				if st.Kind(storage.NodeRef(i)) == xmldoc.KindElement {
					add(storage.NodeRef(i))
				}
			}
			return out
		}
		for _, n := range st.ElementRefs(v.Test.Name) {
			add(n)
		}
		return out
	default:
		// Kind tests: text(), node(), comment(), processing-instruction().
		for i := 0; i < st.NodeCount(); i++ {
			p.poll()
			n := storage.NodeRef(i)
			if pattern.MatchesKindTest(st, n, v.Test) {
				add(n)
			}
		}
		return out
	}
}
