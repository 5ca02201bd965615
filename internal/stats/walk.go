package stats

import (
	"sync"

	"xqp/internal/ast"
	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/vocab"
)

// rowTest is a pattern vertex's node test resolved against the store's
// vocabulary: the rows it accepts are those with symbol sym, or those of
// class cls, or all of them, or none.
type rowTest struct {
	kind testKind
	sym  vocab.Symbol
	cls  class
}

type testKind uint8

const (
	acceptNone testKind = iota
	acceptAll
	acceptSym
	acceptClass
)

// resolveTest resolves vx's test. A kind test accepts every row, the
// root's included (kind tests are estimated loosely); a name test never
// accepts the root, comments or processing instructions.
func resolveTest(v *vocab.Table, vx *pattern.Vertex) rowTest {
	name := vx.Test.Name
	switch {
	case vx.Test.Kind != ast.TestName:
		return rowTest{kind: acceptAll}
	case vx.Attribute && name == "*":
		return rowTest{kind: acceptClass, cls: classAttribute}
	case vx.Attribute:
		return rowTest{kind: acceptSym, sym: v.Lookup("@" + name)}
	case name == "*":
		return rowTest{kind: acceptClass, cls: classElement}
	case name == "" || name[0] == '@' || name[0] == '#' || name[0] == '?':
		return rowTest{}
	}
	return rowTest{kind: acceptSym, sym: v.Lookup(name)}
}

func (s *Synopsis) accepts(r int32, t rowTest) bool {
	switch t.kind {
	case acceptAll:
		return true
	case acceptSym:
		return s.sym[r] == t.sym
	case acceptClass:
		return s.class[r] == t.cls
	}
	return false
}

// walker is the state of one EstimatePattern or Matchable call: the
// pattern's resolved tests and a dense memo of rows × vertices cells.
// A cell is valid when its epoch is the walker's, so a pooled walker
// starts a call without clearing its memo.
type walker struct {
	s     *Synopsis
	g     *pattern.Graph
	tests []rowTest
	memo  []cell
	epoch uint32
	// EstimatePattern's root-to-output vertex chain and running total.
	chain []chainStep
	total float64
}

type cell struct {
	epoch uint32
	yes   bool    // Matchable's answer
	est   float64 // EstimatePattern's answer
}

type chainStep struct {
	v   pattern.VertexID
	rel pattern.Rel
}

var walkers = sync.Pool{New: func() any { return new(walker) }}

// startWalk takes a pooled walker for g on s, with g's tests resolved
// against st's vocabulary and a memo of rows × vertices cells, none of
// them valid; release returns it to the pool.
func (s *Synopsis) startWalk(st *storage.Store, g *pattern.Graph) *walker {
	w := walkers.Get().(*walker)
	w.s, w.g = s, g
	w.tests = w.tests[:0]
	for i := range g.Vertices {
		w.tests = append(w.tests, resolveTest(st.Vocab, &g.Vertices[i]))
	}
	if n := int(s.rows()) * len(g.Vertices); n > cap(w.memo) {
		w.memo, w.epoch = make([]cell, n), 0
	} else {
		w.memo = w.memo[:n]
	}
	if w.epoch++; w.epoch == 0 {
		clear(w.memo[:cap(w.memo)])
		w.epoch = 1
	}
	return w
}

func (w *walker) release() {
	w.s, w.g = nil, nil
	walkers.Put(w)
}

func (w *walker) cell(r int32, v pattern.VertexID) *cell {
	return &w.memo[int(r)*len(w.tests)+int(v)]
}

// EstimatePattern estimates the number of matches of the pattern's output
// vertex by walking the synopsis against the pattern graph. Descendant
// edges search all synopsis depths; value predicates contribute the
// default selectivity.
func (s *Synopsis) EstimatePattern(st *storage.Store, g *pattern.Graph) float64 {
	w := s.startWalk(st, g)
	defer w.release()
	// The output vertex estimate sums the downward estimate of the
	// output over every synopsis placement consistent with the
	// pattern's root-to-output chain.
	w.chain = w.chain[:0]
	for v := g.Output; v >= 0; {
		p, rel := g.Parent(v)
		w.chain = append(w.chain, chainStep{v: v, rel: rel})
		v = p
	}
	for i, j := 0, len(w.chain)-1; i < j; i, j = i+1, j-1 {
		w.chain[i], w.chain[j] = w.chain[j], w.chain[i]
	}
	w.total = 0
	w.place(0, 0)
	return w.total
}

// place adds the estimates of the chain's vertices from ci on, with
// chain[ci] placed at row r.
func (w *walker) place(r int32, ci int) {
	s, step := w.s, w.chain[ci]
	if ci == len(w.chain)-1 {
		w.total += w.estimate(r, step.v)
		return
	}
	if !s.accepts(r, w.tests[step.v]) {
		return
	}
	if w.chain[ci+1].rel == pattern.RelChild {
		for c := r + 1; c < s.end[r]; c = s.end[c] {
			w.place(c, ci+1)
		}
	} else {
		for c := r + 1; c < s.end[r]; c++ {
			w.place(c, ci+1)
		}
	}
}

// estimate is the estimated number of (document node, vertex v)
// embeddings at row r, considering the pattern below v.
func (w *walker) estimate(r int32, v pattern.VertexID) float64 {
	s := w.s
	if !s.accepts(r, w.tests[v]) {
		return 0
	}
	if c := w.cell(r, v); c.epoch == w.epoch {
		return c.est
	}
	frac := 1.0
	for range w.g.Vertices[v].Preds {
		frac *= predSelectivity
	}
	for _, e := range w.g.Children[v] {
		var sub float64
		if e.Rel == pattern.RelChild {
			for c := r + 1; c < s.end[r]; c = s.end[c] {
				sub += w.estimate(c, e.To)
			}
		} else {
			for c := r + 1; c < s.end[r]; c++ {
				sub += w.estimate(c, e.To)
			}
		}
		// Probability that a given node has at least one matching
		// child: clamp the expected count.
		if sub <= 0 {
			frac = 0
			break
		}
		frac *= min(sub/float64(max(s.count[r], 1)), 1)
	}
	est := float64(s.count[r]) * frac
	*w.cell(r, v) = cell{epoch: w.epoch, est: est}
	return est
}

// Matchable reports whether the pattern can match at least one node of
// the summarized document. Because the synopsis preserves every distinct
// root-to-node label path, a "no" answer for downward-only patterns is
// exact, not an estimate: the static analyzer uses it to prune provably
// empty plans. Rooted patterns anchor at the document root; relative
// patterns are tried at every synopsis row. Value predicates are ignored
// (they can only shrink the match set, never grow it, so ignoring them
// keeps "no" answers sound).
func (s *Synopsis) Matchable(st *storage.Store, g *pattern.Graph) bool {
	w := s.startWalk(st, g)
	defer w.release()
	if g.Rooted {
		return w.matchable(0, 0)
	}
	for r := int32(0); r < s.rows(); r++ {
		if w.matchable(r, 0) {
			return true
		}
	}
	return false
}

// matchable reports whether vertex v and the pattern below it can be
// placed at row r.
func (w *walker) matchable(r int32, v pattern.VertexID) bool {
	s := w.s
	if !s.accepts(r, w.tests[v]) {
		return false
	}
	if c := w.cell(r, v); c.epoch == w.epoch {
		return c.yes
	}
	yes := true
	for _, e := range w.g.Children[v] {
		found := false
		if e.Rel == pattern.RelChild {
			for c := r + 1; c < s.end[r] && !found; c = s.end[c] {
				found = w.matchable(c, e.To)
			}
		} else {
			for c := r + 1; c < s.end[r] && !found; c++ {
				found = w.matchable(c, e.To)
			}
		}
		if !found {
			yes = false
			break
		}
	}
	*w.cell(r, v) = cell{epoch: w.epoch, yes: yes}
	return yes
}
