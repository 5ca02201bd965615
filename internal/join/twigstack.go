package join

import (
	"slices"

	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/tally"
)

const maxStart = int32(1<<31 - 1)

// TwigStack evaluates a (possibly branching) pattern graph with the
// holistic twig join of Bruno et al. (SIGMOD 2002): phase one produces
// root-to-leaf path solutions using chained stacks coordinated by getNext;
// phase two joins the per-leaf solution sets on their shared prefix
// vertices — as semi-joins that keep only the columns the output needs,
// since the matches of one vertex are all that is returned (TwigCount
// materializes the full join). Parent-child edges are filtered during
// enumeration (TwigStack
// is optimal for ancestor-descendant-only twigs and correct for mixed
// ones).
//
// It returns the distinct matches of the pattern's output vertex in
// document order.
func TwigStack(st *storage.Store, g *pattern.Graph) Stream {
	s, _ := TwigStackCounted(st, g, nil, nil)
	return s
}

// TwigStackCounted is TwigStack reporting actual work into c (when
// non-nil): stream elements consumed by the coordinated cursors and
// intermediate root-to-leaf path solutions materialized for the merge.
// interrupt, when non-nil, is polled during the scans and the
// coordinated merge; its error cancels the join.
func TwigStackCounted(st *storage.Store, g *pattern.Graph, interrupt func() error, c *tally.Counters) (Stream, error) {
	return TwigStackStreamsCounted(st, g, nil, interrupt, c)
}

type twig struct {
	g      *pattern.Graph
	curs   []*Cursor
	stacks [][]stackEntry
	parent []pattern.VertexID
	rel    []pattern.Rel
	// p polls cancellation from the stream scans and the merge loop.
	p *poller
	// leaves lists the leaf vertices in depth-first order; paths[v] is
	// the root-to-v vertex chain of each leaf v.
	leaves []pattern.VertexID
	paths  [][]pattern.VertexID
	// sols[leaf] is leaf's path-solution table over a prefix of
	// paths[leaf] (see table and trimWidths).
	sols []table
	// emitted counts the path solutions enumerated, before trimming.
	emitted int
	// tuple is the solution under construction in emit.
	tuple []Elem
}

// table is a flat row-major match table: row i is
// cells[i*width : (i+1)*width]. Keeping every row in one arena makes a
// solution cost no allocation of its own.
type table struct {
	cells []Elem
	width int
}

func (tb table) rows() int {
	if tb.width == 0 {
		return 0
	}
	return len(tb.cells) / tb.width
}

func (tb table) row(i int) []Elem { return tb.cells[i*tb.width : (i+1)*tb.width] }

// newTwig builds the twig state over inline stream scans, keeping whole
// path solutions (TwigCount joins them into full twig matches).
func newTwig(st *storage.Store, g *pattern.Graph) *twig {
	return newTwigStreams(st, g, nil, nil, true)
}

// newTwigStreams builds the twig state over prebuilt per-vertex streams;
// a nil streams slice scans them inline (the serial path). full keeps
// every column of every path solution; otherwise the tables keep only
// the prefix the output needs (see trimWidths).
func newTwigStreams(st *storage.Store, g *pattern.Graph, streams []Stream, p *poller, full bool) *twig {
	n := g.VertexCount()
	t := &twig{
		g:      g,
		curs:   make([]*Cursor, n),
		stacks: make([][]stackEntry, n),
		parent: make([]pattern.VertexID, n),
		rel:    make([]pattern.Rel, n),
		p:      p,
		paths:  make([][]pattern.VertexID, n),
		sols:   make([]table, n),
	}
	t.curs[0] = NewCursor(RootStream(st))
	t.parent[0] = -1
	for v := 1; v < n; v++ {
		pv, rel := g.Parent(pattern.VertexID(v))
		t.parent[v] = pv
		t.rel[v] = rel
		if streams != nil {
			t.curs[v] = NewCursor(streams[v])
		} else {
			t.curs[v] = NewCursor(vertexStream(st, g.Vertices[v], p))
		}
	}
	var chain []pattern.VertexID
	var walk func(v pattern.VertexID)
	walk = func(v pattern.VertexID) {
		chain = append(chain, v)
		if len(g.Children[v]) == 0 {
			t.leaves = append(t.leaves, v)
			t.paths[v] = slices.Clone(chain)
			t.sols[v].width = len(chain)
		}
		for _, e := range g.Children[v] {
			walk(e.To)
		}
		chain = chain[:len(chain)-1]
	}
	walk(0)
	maxChain := 0
	for _, l := range t.leaves {
		maxChain = max(maxChain, len(t.paths[l]))
	}
	t.tuple = make([]Elem, maxChain)
	if !full {
		t.trimWidths()
	}
	return t
}

// trimWidths narrows each leaf's table to the chain prefix the output
// projection needs. With the leaves in depth-first order, the deepest
// vertex a leaf's chain shares with any other leaf's is shared with a
// neighbour in that order, so a table keeps the prefix up to its
// neighbours' common vertices, extended to the output vertex when the
// chain passes through it. Columns beyond that take part in no join
// and are never read.
func (t *twig) trimWidths() {
	for i, l := range t.leaves {
		w := 0
		if i > 0 {
			w = commonPrefix(t.paths[t.leaves[i-1]], t.paths[l])
		}
		if i+1 < len(t.leaves) {
			w = max(w, commonPrefix(t.paths[l], t.paths[t.leaves[i+1]]))
		}
		if at := slices.Index(t.paths[l], t.g.Output); at >= 0 {
			w = max(w, at+1)
		}
		t.sols[l].width = max(w, 1)
	}
}

// commonPrefix is the length of a's and b's common prefix.
func commonPrefix(a, b []pattern.VertexID) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

func (t *twig) isLeaf(q pattern.VertexID) bool { return len(t.g.Children[q]) == 0 }

// end reports whether every leaf stream is exhausted.
func (t *twig) end() bool {
	for _, l := range t.leaves {
		if !t.curs[l].EOF() {
			return false
		}
	}
	return true
}

// getNext implements the TwigStack coordination: it returns the query
// vertex whose current stream element should be processed next, with the
// guarantee that for ancestor-descendant twigs the element participates in
// a solution. Exhausted subtrees contribute +inf and are skipped.
func (t *twig) getNext(q pattern.VertexID) pattern.VertexID {
	kids := t.g.Children[q]
	if len(kids) == 0 {
		return q
	}
	var nmin pattern.VertexID = -1
	minL, maxL := maxStart, int32(-1)
	for _, e := range kids {
		ni := t.getNext(e.To)
		if ni != e.To && !t.curs[ni].EOF() {
			return ni
		}
		var l int32 = maxStart
		if ni == e.To {
			l = t.curs[e.To].NextStart()
		}
		if l < minL {
			minL, nmin = l, e.To
		}
		if l > maxL {
			maxL = l
		}
	}
	for !t.curs[q].EOF() && t.curs[q].NextEnd() < maxL {
		t.p.poll()
		t.curs[q].Advance()
	}
	if t.curs[q].NextStart() < minL {
		return q
	}
	if nmin < 0 {
		// All child subtrees exhausted; report the first child leafward.
		return kids[0].To
	}
	return nmin
}

func (t *twig) run() {
	for !t.end() {
		t.p.poll()
		q := t.getNext(0)
		if t.curs[q].EOF() {
			// Exhausted subtree reported; nothing further can match it.
			return
		}
		e := t.curs[q].Head()
		par := t.parent[q]
		if par >= 0 {
			cleanStack(&t.stacks[par], e.Start)
		}
		if par < 0 || len(t.stacks[par]) > 0 {
			cleanStack(&t.stacks[q], e.Start)
			pp := -1
			if par >= 0 {
				pp = len(t.stacks[par]) - 1
			}
			t.stacks[q] = append(t.stacks[q], stackEntry{elem: e, parent: pp})
			t.curs[q].Advance()
			if t.isLeaf(q) {
				t.emit(q)
				t.stacks[q] = t.stacks[q][:len(t.stacks[q])-1]
			}
		} else {
			t.curs[q].Advance()
		}
	}
}

// emit enumerates the root-to-leaf path solutions ending at the entry just
// pushed on leaf's stack, filtering parent-child edges.
func (t *twig) emit(leaf pattern.VertexID) {
	ci := len(t.paths[leaf]) - 1
	t.emitFrom(leaf, ci, leaf, len(t.stacks[leaf])-1)
}

// emitFrom binds path position ci to stacks[v][idx] and recurses towards
// the root, appending each completed tuple to leaf's solution table. A
// trimmed tuple equal to the table's last row (sibling leaf matches
// under the same prefix) is not stored twice.
func (t *twig) emitFrom(leaf pattern.VertexID, ci int, v pattern.VertexID, idx int) {
	if idx < 0 {
		return
	}
	entry := t.stacks[v][idx]
	t.tuple[ci] = entry.elem
	if ci == 0 {
		t.emitted++
		sols := &t.sols[leaf]
		tuple := t.tuple[:sols.width]
		if n := sols.rows(); n > 0 && slices.Equal(sols.row(n-1), tuple) {
			return
		}
		sols.cells = append(sols.cells, tuple...)
		return
	}
	pv := t.parent[v]
	for pi := entry.parent; pi >= 0; pi-- {
		p := t.stacks[pv][pi]
		if !p.elem.Contains(entry.elem) {
			continue
		}
		if t.rel[v] == pattern.RelChild && p.elem.Level+1 != entry.elem.Level {
			continue
		}
		t.emitFrom(leaf, ci-1, pv, pi)
	}
}

// mergeRows joins the per-leaf path-solution tables on shared vertices;
// it returns the full twig-match table and the column index per vertex.
// Rows are matched through a chained hash index on the shared columns
// (see index), so the join allocates nothing per row or key.
func (t *twig) mergeRows() (table, map[pattern.VertexID]int) {
	if len(t.leaves) == 0 {
		return table{}, nil
	}
	cols := t.paths[t.leaves[0]]
	rows := t.sols[t.leaves[0]]
	colIdx := map[pattern.VertexID]int{}
	for i, v := range cols {
		colIdx[v] = i
	}
	var ix index
	for _, leaf := range t.leaves[1:] {
		chain := t.paths[leaf]
		// The chain vertices already in the table are a prefix of the
		// chain (a vertex is there only with all its ancestors); they
		// key the join, the rest of the chain becomes new columns.
		shared := 0
		ix.cols = ix.cols[:0]
		for ; shared < len(chain); shared++ {
			c, ok := colIdx[chain[shared]]
			if !ok {
				break
			}
			ix.cols = append(ix.cols, c)
		}
		ix.build(rows)
		sols := t.sols[leaf]
		joined := table{width: rows.width + len(chain) - shared}
		for si := 0; si < sols.rows(); si++ {
			sol := sols.row(si)
			for ri := ix.first(sol); ri >= 0; ri = ix.next(ri, sol) {
				joined.cells = append(joined.cells, rows.row(ri)...)
				joined.cells = append(joined.cells, sol[shared:]...)
			}
		}
		for _, v := range chain[shared:] {
			colIdx[v] = len(cols)
			cols = append(cols[:len(cols):len(cols)], v)
		}
		rows = joined
	}
	return rows, colIdx
}

// merge produces the distinct output-vertex matches in document order.
// The leaf tables over their depth-first order form a join tree (each
// table shares with all earlier ones only what it shares with its
// predecessor), so one semi-join pass in each direction fully reduces
// them: every row left takes part in some complete twig match. The
// output column of any table holding the output vertex then is the
// answer, with no twig-match row ever materialized.
func (t *twig) merge() Stream {
	var ix index
	reduce := func(a, b pattern.VertexID) {
		n := commonPrefix(t.paths[a], t.paths[b])
		n = min(n, t.sols[a].width, t.sols[b].width)
		ix.cols = ix.cols[:0]
		for c := range n {
			ix.cols = append(ix.cols, c)
		}
		ix.build(t.sols[b])
		t.sols[a] = ix.semijoin(t.sols[a])
	}
	for i := len(t.leaves) - 1; i > 0; i-- {
		reduce(t.leaves[i-1], t.leaves[i])
	}
	for i := 1; i < len(t.leaves); i++ {
		reduce(t.leaves[i], t.leaves[i-1])
	}
	for _, l := range t.leaves {
		oi := slices.Index(t.paths[l], t.g.Output)
		if oi < 0 {
			continue
		}
		sols := t.sols[l]
		out := make(Stream, 0, sols.rows())
		for ri := 0; ri < sols.rows(); ri++ {
			out = append(out, sols.row(ri)[oi])
		}
		sortStream(out)
		return dedupSorted(out)
	}
	return nil
}

// index is a chained hash index over key columns of a table's rows:
// head maps a key hash to its first row, link chains rows with the same
// hash. A probe key holds the key cells contiguously, in cols order;
// probes compare the cells themselves, so hash collisions cost time,
// never correctness.
type index struct {
	rows table
	cols []int
	head map[uint64]int32
	link []int32
	key  []Elem
}

// build indexes rows on ix.cols, reusing the index's storage from any
// earlier build.
func (ix *index) build(rows table) {
	ix.rows = rows
	if ix.head == nil {
		ix.head = make(map[uint64]int32, rows.rows())
	} else {
		clear(ix.head)
	}
	ix.link = slices.Grow(ix.link[:0], rows.rows())[:rows.rows()]
	for ri := rows.rows() - 1; ri >= 0; ri-- {
		row := rows.row(ri)
		ix.key = ix.key[:0]
		for _, c := range ix.cols {
			ix.key = append(ix.key, row[c])
		}
		h := keyHash(ix.key)
		ix.link[ri] = -1
		if j, ok := ix.head[h]; ok {
			ix.link[ri] = j
		}
		ix.head[h] = int32(ri)
	}
}

// first returns the first indexed row whose key columns equal the
// leading cells of key, or -1.
func (ix *index) first(key []Elem) int {
	ri, ok := ix.head[keyHash(key[:len(ix.cols)])]
	if !ok {
		return -1
	}
	return ix.match(int(ri), key)
}

// next returns the indexed row after ri matching key, or -1.
func (ix *index) next(ri int, key []Elem) int {
	return ix.match(int(ix.link[ri]), key)
}

func (ix *index) match(ri int, key []Elem) int {
	for ; ri >= 0; ri = int(ix.link[ri]) {
		if ix.keyEqual(ix.rows.row(ri), key) {
			return ri
		}
	}
	return -1
}

// keyEqual reports whether row binds the same nodes in the key columns
// as the leading cells of key.
func (ix *index) keyEqual(row, key []Elem) bool {
	for i, c := range ix.cols {
		if row[c].Start != key[i].Start {
			return false
		}
	}
	return true
}

// semijoin keeps, in place, the rows of a whose leading cells match
// some indexed row's key.
func (ix *index) semijoin(a table) table {
	w := 0
	for ri := 0; ri < a.rows(); ri++ {
		row := a.row(ri)
		if ix.first(row) < 0 {
			continue
		}
		copy(a.cells[w*a.width:], row)
		w++
	}
	a.cells = a.cells[:w*a.width]
	return a
}

// keyHash hashes the start positions of a key's cells (FNV-1a over the
// positions).
func keyHash(key []Elem) uint64 {
	h := uint64(14695981039346656037)
	for _, e := range key {
		h ^= uint64(uint32(e.Start))
		h *= 1099511628211
	}
	return h
}

// TwigCount returns the number of full twig matches (tuples), used by
// experiments that measure intermediate-result sizes.
func TwigCount(st *storage.Store, g *pattern.Graph) int {
	t := newTwig(st, g)
	t.run()
	rows, _ := t.mergeRows()
	return rows.rows()
}
