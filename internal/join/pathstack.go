package join

import (
	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/tally"
)

// stackEntry is one element on a vertex stack, with a pointer to the top
// of the parent vertex's stack at push time (-1 when the parent stack was
// empty or the vertex is the pattern root).
type stackEntry struct {
	elem   Elem
	parent int
}

// PathStack evaluates a non-branching pattern graph with the PathStack
// algorithm of Bruno et al. (SIGMOD 2002): one chained stack per query
// vertex, a single merge pass over all streams, solutions enumerated from
// stack pointers when leaf elements are pushed.
//
// It returns the distinct matches of the pattern's output vertex (the leaf
// of the path) in document order. Parent-child edges are verified during
// solution enumeration (the stacks themselves encode only containment).
func PathStack(st *storage.Store, g *pattern.Graph) Stream {
	s, _ := PathStackCounted(st, g, nil, nil)
	return s
}

// PathStackCounted is PathStack reporting actual work into c (when
// non-nil): stream elements consumed by the merge pass and chain
// solutions enumerated from the stacks. interrupt, when non-nil, is
// polled during the scans and the merge pass; its error cancels the
// join.
func PathStackCounted(st *storage.Store, g *pattern.Graph, interrupt func() error, c *tally.Counters) (s Stream, err error) {
	defer catchInterrupt(&err)
	return pathStack(st, g, nil, &poller{interrupt: interrupt}, c), nil
}

// pathStack is the PathStack merge over prebuilt per-vertex streams
// (indexed by vertex id, as from VertexStreamsParallel); a nil streams
// slice scans them inline.
func pathStack(st *storage.Store, g *pattern.Graph, streams []Stream, p *poller, c *tally.Counters) Stream {
	if !g.IsPath() {
		panic("join: PathStack requires a non-branching pattern")
	}
	// Vertex order along the path: 0 (anchor) .. leaf.
	var order []pattern.VertexID
	for v := pattern.VertexID(0); ; {
		order = append(order, v)
		if len(g.Children[v]) == 0 {
			break
		}
		v = g.Children[v][0].To
	}
	n := len(order)
	rels := make([]pattern.Rel, n) // rels[i] relates order[i-1] -> order[i]
	curs := make([]*Cursor, n)
	stacks := make([][]stackEntry, n)
	for i, v := range order {
		if i == 0 {
			curs[i] = NewCursor(anchorStream(st, g))
		} else {
			_, rel := g.Parent(v)
			rels[i] = rel
			if streams != nil {
				curs[i] = NewCursor(streams[v])
			} else {
				curs[i] = NewCursor(vertexStream(st, g.Vertices[v], p))
			}
		}
	}
	leaf := n - 1
	// Position of the output vertex along the path (usually the leaf, but
	// a trailing existence predicate can make it an inner vertex).
	outPos := 0
	for i, v := range order {
		if v == g.Output {
			outPos = i
		}
	}
	var out Stream
	// Leaf elements arrive once each and in document order, so only an
	// inner output vertex, bound by many chains, needs deduplication.
	var seen map[int32]bool
	if outPos != leaf {
		seen = make(map[int32]bool)
	}
	for !curs[leaf].EOF() {
		p.poll()
		// qmin: stream with minimal next start.
		qmin, minStart := -1, int32(1<<31-1)
		for i := range curs {
			if s := curs[i].NextStart(); s < minStart {
				qmin, minStart = i, s
			}
		}
		if qmin < 0 {
			break
		}
		e := curs[qmin].Head()
		for i := range stacks {
			cleanStack(&stacks[i], e.Start)
		}
		pp := -1
		if qmin > 0 {
			pp = len(stacks[qmin-1]) - 1
		}
		stacks[qmin] = append(stacks[qmin], stackEntry{elem: e, parent: pp})
		curs[qmin].Advance()
		if qmin == leaf {
			if outPos == leaf {
				if hasChain(stacks, rels, leaf, len(stacks[leaf])-1) {
					out = append(out, e)
				}
			} else {
				collectChainOutputs(stacks, rels, leaf, len(stacks[leaf])-1, outPos, seen, &out)
			}
			stacks[leaf] = stacks[leaf][:len(stacks[leaf])-1]
		}
	}
	if c != nil {
		for _, cur := range curs {
			c.StreamElems += int64(cur.pos)
		}
		c.Solutions += int64(len(out))
	}
	sortStream(out)
	return out
}

// collectChainOutputs enumerates root chains from stacks[v][idx] and
// records the distinct elements bound at path position outPos.
func collectChainOutputs(stacks [][]stackEntry, rels []pattern.Rel, v, idx, outPos int, seen map[int32]bool, out *Stream) {
	var rec func(v, idx int, chain []Elem)
	rec = func(v, idx int, chain []Elem) {
		e := stacks[v][idx]
		chain = append(chain, e.elem)
		if v == 0 {
			// chain[i] holds the element at path position v+len-1-i.
			oe := chain[len(chain)-1-outPos]
			if !seen[oe.Start] {
				seen[oe.Start] = true
				*out = append(*out, oe)
			}
			return
		}
		for pi := e.parent; pi >= 0; pi-- {
			p := stacks[v-1][pi]
			if !p.elem.Contains(e.elem) {
				continue
			}
			if rels[v] == pattern.RelChild && p.elem.Level+1 != e.elem.Level {
				continue
			}
			rec(v-1, pi, chain)
		}
	}
	rec(v, idx, nil)
}

// cleanStack pops entries whose interval ends before start.
func cleanStack(s *[]stackEntry, start int32) {
	for len(*s) > 0 && (*s)[len(*s)-1].elem.End < start {
		*s = (*s)[:len(*s)-1]
	}
}

// hasChain reports whether the entry stacks[v][idx] extends to a full
// root chain respecting parent-child edge levels; it short-circuits on the
// first witness.
func hasChain(stacks [][]stackEntry, rels []pattern.Rel, v, idx int) bool {
	if idx < 0 {
		return false
	}
	e := stacks[v][idx]
	if v == 0 {
		return true
	}
	// Candidate parents: all entries at index <= e.parent in stack v-1.
	for pi := e.parent; pi >= 0; pi-- {
		p := stacks[v-1][pi]
		if !p.elem.Contains(e.elem) {
			continue
		}
		if rels[v] == pattern.RelChild && p.elem.Level+1 != e.elem.Level {
			continue
		}
		if hasChain(stacks, rels, v-1, pi) {
			return true
		}
	}
	return false
}

// anchorStream returns the stream for the pattern's anchor vertex 0.
func anchorStream(st *storage.Store, g *pattern.Graph) Stream {
	return RootStream(st)
}
