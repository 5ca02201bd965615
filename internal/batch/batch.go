// Package batch compiles pattern graphs into specialized batch-at-a-time
// kernels over the balanced-parentheses store.
//
// The interpreted NoK matcher (package nok) evaluates τ by recursive
// navigation: every upward-pass node costs a FirstChild/NextSibling hop,
// and each hop is a FindClose over the parenthesis sequence (block scans
// plus a segment-tree walk). The batch kernel removes that per-node
// navigation entirely:
//
//   - Compile lowers a pattern graph into a Program: per-vertex edge
//     bitmasks plus the interned tag name of every name-test vertex.
//     Binding a Program to a store resolves names to vocabulary symbols
//     once and builds a dense symbol → candidate-vertex-mask table, so
//     the per-node "which vertices could test true here?" question is a
//     single array load instead of a loop over all vertices.
//   - The upward pass is one linear scan of the parenthesis bit
//     sequence: opens push a frame, closes pop one, compute S(n) from
//     the accumulated child masks, and record the node's exclusive
//     subtree end. No FindClose, Rank1 or parent pointers are touched.
//   - The downward pass is a linear walk over the preorder window with
//     an explicit ancestor-mask stack, skipping dead subtrees in O(1)
//     using the ends recorded by the upward pass.
//
// Operators exchange node ids in blocks of BlockSize refs (the batch
// protocol): kernels hand output blocks to a Sink, and the parallel
// dispatcher makes each partition chunk exactly one batch pipeline.
// Results are bit-identical to the interpreted matcher; only the
// traversal machinery differs.
package batch

import (
	"errors"
	"math/bits"

	"xqp/internal/ast"
	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/vocab"
	"xqp/internal/xmldoc"
)

const (
	// BlockSize is the unit of the batch operator protocol: kernels hand
	// output node ids to their sink in blocks of at most this many refs.
	// Large enough to amortize the call per block, small enough that a
	// block stays inside the L1 cache (512 × 4 bytes = 2 KiB).
	BlockSize = 512
	// pollEvery matches the interpreted matchers' cancellation cadence.
	pollEvery = 256
	// MaxVertices is the largest pattern a Program can represent: vertex
	// sets are bitmasks, exactly like the interpreted matcher's.
	MaxVertices = 64
)

// ErrTooLarge reports a pattern with more than MaxVertices vertices.
var ErrTooLarge = errors.New("batch: pattern graph exceeds 64 vertices")

// Sink consumes blocks of output-vertex matches. Blocks arrive in
// document order within one context pass; the slice is reused by the
// kernel after the call returns, so sinks must copy what they keep.
type Sink func(block []storage.NodeRef)

// Program is a pattern graph compiled for batch execution. It is
// store-independent (names are not yet resolved to symbols) and
// immutable after Compile, so one Program may be bound to any number of
// stores concurrently.
type Program struct {
	g         *pattern.Graph
	nv        int
	childMask []uint64
	descMask  []uint64
	// names holds the interned tag key per vertex ("@name" for
	// attributes); empty for generic vertices (wildcards and kind tests)
	// which need the full MatchesVertex test.
	names  []string
	output int
}

// Compile lowers a pattern graph into a batch Program.
func Compile(g *pattern.Graph) (*Program, error) {
	nv := g.VertexCount()
	if nv > MaxVertices {
		return nil, ErrTooLarge
	}
	p := &Program{
		g:         g,
		nv:        nv,
		childMask: make([]uint64, nv),
		descMask:  make([]uint64, nv),
		names:     make([]string, nv),
		output:    int(g.Output),
	}
	for v := 0; v < nv; v++ {
		for _, e := range g.Children[v] {
			if e.Rel == pattern.RelChild {
				p.childMask[v] |= 1 << uint(e.To)
			} else {
				p.descMask[v] |= 1 << uint(e.To)
			}
		}
		vx := g.Vertices[v]
		if vx.Test.Kind == ast.TestName && vx.Test.Name != "*" {
			name := vx.Test.Name
			if vx.Attribute {
				name = "@" + name
			}
			p.names[v] = name
		}
	}
	return p, nil
}

// Bound is a Program resolved against one store's vocabulary. It is
// immutable after Bind and safe to share across goroutines; per-task
// mutable state lives in Kernels.
type Bound struct {
	p  *Program
	st *storage.Store
	// bySym maps a vocabulary symbol to the set of name-test vertices
	// with that tag: the per-node candidate lookup is one array load.
	bySym []uint64
	// generic is the set of vertices needing the full MatchesVertex test
	// on every node (wildcards, kind tests, the anchor's node() test).
	generic uint64
	// dead records that some name-test vertex's tag does not occur in
	// the document: the conjunctive pattern cannot match anywhere.
	dead bool
}

// Bind resolves the program's tag names against st's vocabulary.
func (p *Program) Bind(st *storage.Store) *Bound {
	b := &Bound{p: p, st: st, bySym: make([]uint64, st.Vocab.Len())}
	for v := 0; v < p.nv; v++ {
		if p.names[v] == "" {
			b.generic |= 1 << uint(v)
			continue
		}
		s := st.Vocab.Lookup(p.names[v])
		if s == vocab.None {
			b.dead = true
			continue
		}
		b.bySym[s] |= 1 << uint(v)
	}
	return b
}

// Dead reports that some vertex's tag is absent from the document, so
// the pattern has no matches at all.
func (b *Bound) Dead() bool { return b.dead }

// OutputIsAnchor reports whether the output vertex is the anchor
// (vertex 0), which binds at the context node itself.
func (b *Bound) OutputIsAnchor() bool { return b.p.output == 0 }

// RootMasks returns the anchor's child- and descendant-edge masks: the
// allowed masks the downward pass starts from at the context's children.
func (b *Bound) RootMasks() (ac, ad uint64) { return b.p.childMask[0], b.p.descMask[0] }

// test reports whether node n passes vertex v's node test and value
// predicates. For name-test vertices the tag equality is already
// established by the bySym candidate lookup, leaving only the kind
// check and predicates.
func (b *Bound) test(n storage.NodeRef, v int) bool {
	vx := &b.p.g.Vertices[v]
	if b.p.names[v] == "" {
		return pattern.MatchesVertex(b.st, n, vx)
	}
	kind := b.st.Kind(n)
	if vx.Attribute {
		if kind != xmldoc.KindAttribute {
			return false
		}
	} else if kind != xmldoc.KindElement {
		return false
	}
	for _, pr := range vx.Preds {
		if !pr.Matches(b.st.StringValue(n)) {
			return false
		}
	}
	return true
}

// VertexSet computes S(n) from the child cover and proper-descendant
// union, iterating only the candidate vertices for n's tag. It is
// semantically identical to the interpreted matcher's vertexSet.
func (b *Bound) VertexSet(n storage.NodeRef, cover, deep uint64) (s uint64) {
	cand := b.generic
	if t := b.st.Tag(n); t >= 0 && int(t) < len(b.bySym) {
		cand |= b.bySym[t]
	}
	for set := cand; set != 0; set &= set - 1 {
		v := bits.TrailingZeros64(set)
		need := b.p.childMask[v]
		if need&cover != need {
			continue
		}
		if nd := b.p.descMask[v]; nd&deep != nd {
			continue
		}
		if b.test(n, v) {
			s |= 1 << uint(v)
		}
	}
	return s
}

// DescendStep advances the downward pass across one interior node with
// vertex set s under allowed masks (ac, ad): it reports whether the
// node binds the output vertex and returns the masks its children
// receive. It lets a parallel dispatcher walk a single-child spine
// serially before fanning the pass out over a multi-child frontier;
// the semantics match one iteration of Kernel.DownRange.
func (b *Bound) DescendStep(s, ac, ad uint64) (emit bool, nac, nad uint64) {
	bound := s & (ac | ad)
	emit = bound&(1<<uint(b.p.output)) != 0
	nad = ad
	for set := bound; set != 0; set &= set - 1 {
		v := bits.TrailingZeros64(set)
		nac |= b.p.childMask[v]
		nad |= b.p.descMask[v]
	}
	return emit, nac, nad
}

// upFrame is one open node on the upward pass stack, accumulating its
// children's S union (cover) and the union over all proper descendants
// (deep).
type upFrame struct {
	n           storage.NodeRef
	cover, deep uint64
}

// downFrame scopes the allowed masks of one ancestor to its subtree:
// nodes before end inherit (ac, ad) from the nearest enclosing frame.
type downFrame struct {
	end    storage.NodeRef
	ac, ad uint64
}

// Kernel is the per-task execution state of a Bound program: the S and
// subtree-end window, the pass stacks, the output block and the visit
// counter. Kernels are single-goroutine; the parallel dispatcher gives
// each partition its own.
type Kernel struct {
	b         *Bound
	interrupt func() error
	visits    int64
	base      storage.NodeRef
	smask     []uint64
	ends      []storage.NodeRef
	ustack    []upFrame
	dstack    []downFrame
	blk       []storage.NodeRef
}

// NewKernel returns a fresh kernel over b. interrupt (when non-nil) is
// consulted every pollEvery node visits.
func (b *Bound) NewKernel(interrupt func() error) *Kernel {
	return &Kernel{b: b, interrupt: interrupt, blk: make([]storage.NodeRef, 0, BlockSize)}
}

// Visits returns the number of document nodes the kernel's passes
// touched, in the same units as the interpreted matcher's NodesVisited.
func (k *Kernel) Visits() int64 { return k.visits }

// Window sizes the kernel's S/ends window to the preorder range
// [lo, hi), reusing prior allocations when they fit.
func (k *Kernel) Window(lo, hi storage.NodeRef) {
	k.base = lo
	n := int(hi - lo)
	if cap(k.smask) >= n {
		k.smask = k.smask[:n]
		k.ends = k.ends[:n]
	} else {
		k.smask = make([]uint64, n)
		k.ends = make([]storage.NodeRef, n)
	}
}

// poll counts one node visit and checks the interrupt every pollEvery
// visits.
func (k *Kernel) poll() error {
	k.visits++
	if k.interrupt == nil || k.visits%pollEvery != 0 {
		return nil
	}
	return k.interrupt()
}

// UpRange runs the upward pass over the forest range [lo, hi): a range
// tiled by complete subtrees (a single context subtree, or a contiguous
// run of sibling subtrees carved out by the parallel dispatcher). One
// linear scan of the parenthesis sequence computes S(n) and the
// exclusive subtree end for every node in the range — the per-node work
// is a bit test plus the candidate vertex checks, with no FindClose or
// rank queries. It returns cover, the S union over the range's
// top-level roots, and deep, the S union over every node in the range,
// which is exactly what a parent needs to fold the range into its own
// vertex set.
func (k *Kernel) UpRange(lo, hi storage.NodeRef) (cover, deep uint64, err error) {
	if lo >= hi {
		return 0, 0, nil
	}
	seq := k.b.st.Seq
	pos := k.b.st.Open(lo)
	next := lo
	stack := k.ustack[:0]
	for next < hi || len(stack) > 0 {
		if seq.IsOpen(pos) {
			if err := k.poll(); err != nil {
				k.ustack = stack[:0]
				return 0, 0, err
			}
			stack = append(stack, upFrame{n: next})
			next++
		} else {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			s := k.b.VertexSet(f.n, f.cover, f.deep)
			k.smask[f.n-k.base] = s
			k.ends[f.n-k.base] = next
			if len(stack) > 0 {
				top := &stack[len(stack)-1]
				top.cover |= s
				top.deep |= s | f.deep
			} else {
				cover |= s
				deep |= s | f.deep
			}
		}
		pos++
	}
	k.ustack = stack[:0]
	return cover, deep, nil
}

// DownRange runs the downward pass over the forest range [lo, hi),
// whose top-level roots receive the allowed masks (ac, ad) — for a
// context's children these are the anchor's RootMasks. The walk is
// linear over the preorder window: an explicit stack scopes each
// ancestor's masks to its subtree, and a subtree whose allowed masks
// drain to zero is skipped in O(1) via the ends recorded by UpRange
// (skipped nodes are not visited, matching the interpreted recursion).
// Output-vertex matches stream to sink in blocks; call Flush after the
// final range.
func (k *Kernel) DownRange(lo, hi storage.NodeRef, ac, ad uint64, sink Sink) error {
	if lo >= hi {
		return nil
	}
	wantBit := uint64(1) << uint(k.b.p.output)
	stack := k.dstack[:0]
	for n := lo; n < hi; n++ {
		if err := k.poll(); err != nil {
			k.dstack = stack[:0]
			return err
		}
		for len(stack) > 0 && stack[len(stack)-1].end <= n {
			stack = stack[:len(stack)-1]
		}
		curAC, curAD := ac, ad
		if len(stack) > 0 {
			top := &stack[len(stack)-1]
			curAC, curAD = top.ac, top.ad
		}
		i := n - k.base
		bound := k.smask[i] & (curAC | curAD)
		if bound&wantBit != 0 {
			k.emit(n, sink)
		}
		var nextChild uint64
		nextDesc := curAD
		for set := bound; set != 0; set &= set - 1 {
			v := bits.TrailingZeros64(set)
			nextChild |= k.b.p.childMask[v]
			nextDesc |= k.b.p.descMask[v]
		}
		end := k.ends[i]
		if nextChild == 0 && nextDesc == 0 {
			n = end - 1 // nothing can bind below: skip the subtree
			continue
		}
		if end > n+1 {
			stack = append(stack, downFrame{end: end, ac: nextChild, ad: nextDesc})
		}
	}
	k.dstack = stack[:0]
	return nil
}

// emit appends one match to the current block, flushing full blocks.
func (k *Kernel) emit(n storage.NodeRef, sink Sink) {
	k.blk = append(k.blk, n)
	if len(k.blk) == BlockSize {
		k.Flush(sink)
	}
}

// Flush hands the kernel's partial output block to sink.
func (k *Kernel) Flush(sink Sink) {
	if len(k.blk) == 0 {
		return
	}
	sink(k.blk)
	k.blk = k.blk[:0]
}

// MatchOutput evaluates the compiled pattern over the given context
// nodes, streaming the output vertex's matches to sink in blocks. Each
// context pass emits in document order; overlapping contexts may repeat
// matches across passes (callers sort and deduplicate, exactly like the
// interpreted matcher's finish step).
func (k *Kernel) MatchOutput(contexts []storage.NodeRef, sink Sink) error {
	if len(contexts) == 0 || k.b.dead {
		return nil
	}
	st := k.b.st
	lo, hi := contexts[0], contexts[0]
	ends := make([]storage.NodeRef, len(contexts))
	for i, c := range contexts {
		if c < lo {
			lo = c
		}
		end := c + storage.NodeRef(st.SubtreeSize(c))
		ends[i] = end
		if end > hi {
			hi = end
		}
	}
	k.Window(lo, hi)
	ac, ad := k.b.RootMasks()
	for i, ctx := range contexts {
		cover, _, err := k.UpRange(ctx, ends[i])
		if err != nil {
			return err
		}
		if cover&1 == 0 {
			continue // the anchor's downward constraints fail at the context
		}
		if k.b.p.output == 0 {
			k.emit(ctx, sink) // the anchor binds at the context node itself
		}
		if err := k.DownRange(ctx+1, ends[i], ac, ad, sink); err != nil {
			return err
		}
	}
	k.Flush(sink)
	return nil
}

// Intervals computes every node's closing-parenthesis position and
// level in one linear scan of the parenthesis sequence. The batched
// structural-join stream builders read interval encodings from these
// arrays instead of issuing one FindClose (block scans plus a
// segment-tree walk) per stream element. interrupt, when non-nil, is
// polled every pollEvery positions.
func Intervals(st *storage.Store, interrupt func() error) (closePos, level []int32, err error) {
	n := st.NodeCount()
	closePos = make([]int32, n)
	level = make([]int32, n)
	seq := st.Seq
	stack := make([]int32, 0, 64)
	next := int32(0)
	var ticks int64
	for pos := 0; pos < seq.Len(); pos++ {
		ticks++
		if interrupt != nil && ticks%pollEvery == 0 {
			if err := interrupt(); err != nil {
				return nil, nil, err
			}
		}
		if seq.IsOpen(pos) {
			level[next] = int32(len(stack))
			stack = append(stack, next)
			next++
		} else {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			closePos[top] = int32(pos)
		}
	}
	return closePos, level, nil
}
