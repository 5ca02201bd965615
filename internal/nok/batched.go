package nok

// Batched τ execution: the same matcher semantics as MatchOutputCounted
// and MatchOutputParallel, but evaluated by the compiled batch kernel
// (package batch) instead of the recursive interpreter. The kernel
// replaces per-node FirstChild/NextSibling navigation (a FindClose each)
// with linear scans of the parenthesis sequence, and operators exchange
// node ids in blocks. Results are bit-identical; in the parallel form a
// partition chunk is exactly one batch pipeline.

import (
	"time"

	"xqp/internal/batch"
	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/tally"
)

// MatchOutputBatched is MatchOutputCounted executed by the compiled
// batch kernel. It fails with batch.ErrTooLarge for patterns over
// batch.MaxVertices vertices (the same bound the interpreter enforces
// via ErrTooLarge); the executor checks that bound before dispatch.
func MatchOutputBatched(st *storage.Store, g *pattern.Graph, contexts []storage.NodeRef, interrupt func() error, c *tally.Counters) ([]storage.NodeRef, error) {
	prog, err := batch.Compile(g)
	if err != nil {
		return nil, err
	}
	k := prog.Bind(st).NewKernel(interrupt)
	if c != nil {
		defer func() { c.NodesVisited += k.Visits() }()
	}
	var out []storage.NodeRef
	err = k.MatchOutput(contexts, func(blk []storage.NodeRef) {
		out = append(out, blk...)
	})
	if err != nil {
		return nil, err
	}
	return mergeSorted(out), nil
}

// MatchOutputParallelBatched is MatchOutputParallel executed by batch
// kernels: each partition chunk runs one compiled batch pipeline on its
// own kernel over a disjoint preorder window. A single context's child
// subtrees are chunked into contiguous ranges (chunk = batch); the
// upward passes run per chunk, the anchor's vertex set is stitched
// serially from the chunk summaries, and the downward passes fan out
// again over the same chunks. Many contexts chunk the context list like
// the interpreted parallel matcher.
func MatchOutputParallelBatched(st *storage.Store, g *pattern.Graph, contexts []storage.NodeRef, workers int, interrupt func() error, c *tally.Counters) (refs []storage.NodeRef, pr ParallelResult, err error) {
	prog, err := batch.Compile(g)
	if err != nil {
		return nil, ParallelResult{Workers: workers}, err
	}
	bnd := prog.Bind(st)
	var visits int64
	if c != nil {
		defer func() { c.NodesVisited += visits }()
	}
	serial := func(reason string) ([]storage.NodeRef, ParallelResult, error) {
		k := bnd.NewKernel(interrupt)
		var out []storage.NodeRef
		kerr := k.MatchOutput(contexts, func(blk []storage.NodeRef) {
			out = append(out, blk...)
		})
		visits += k.Visits()
		if kerr != nil {
			return nil, ParallelResult{Workers: workers}, kerr
		}
		return mergeSorted(out), ParallelResult{Workers: workers, Fallback: reason}, nil
	}
	if workers < 2 {
		return serial("workers < 2")
	}
	if len(contexts) == 0 {
		return nil, ParallelResult{Workers: workers, Fallback: "no context nodes"}, nil
	}
	if bnd.Dead() {
		// Some vertex's tag does not occur in this document: the pattern
		// cannot match anywhere, no passes needed.
		return nil, ParallelResult{Workers: workers, Fallback: "pattern tag absent from document"}, nil
	}
	if len(contexts) > 1 {
		return batchedContextChunks(bnd, contexts, workers, interrupt, &visits)
	}

	// Single context: descend the spine of single-child nodes first —
	// absolute queries anchor τ at the document root, whose subtree
	// funnels through one top-level element before fanning out. The
	// spine is evaluated serially (it is O(depth)); the first node with
	// several children provides the sibling subtrees that tile its
	// preorder range contiguously, so chunking at child boundaries
	// yields disjoint forest ranges — one batch pipeline each, no
	// shared window.
	ctx := contexts[0]
	spine := []storage.NodeRef{ctx}
	var kids []storage.NodeRef
	var aux int64
	for {
		cur := spine[len(spine)-1]
		kids = kids[:0]
		for ch := st.FirstChild(cur); ch != storage.NilRef; ch = st.NextSibling(ch) {
			aux++
			if interrupt != nil && aux%pollEvery == 0 {
				if ierr := interrupt(); ierr != nil {
					return nil, ParallelResult{Workers: workers}, ierr
				}
			}
			kids = append(kids, ch)
		}
		if len(kids) != 1 {
			break
		}
		spine = append(spine, kids[0])
	}
	if len(kids) < 2 {
		return serial("single partition")
	}
	fan := spine[len(spine)-1]
	end := fan + storage.NodeRef(st.SubtreeSize(fan))
	groups := groupBySize(st, kids, workers*partitionsPerWorker)
	if len(groups) < 2 {
		return serial("single partition")
	}

	type chunkState struct {
		k           *batch.Kernel
		lo, hi      storage.NodeRef
		cover, deep uint64
		out         []storage.NodeRef
		err         error
		dur         time.Duration
	}
	states := make([]*chunkState, len(groups))
	collect := func() {
		for _, cs := range states {
			if cs != nil {
				visits += cs.k.Visits()
			}
		}
	}
	firstErr := func(rerr error) error {
		for _, cs := range states {
			if rerr == nil && cs != nil && cs.err != nil {
				rerr = cs.err
			}
		}
		return rerr
	}

	// Phase 1: upward pass per chunk, in parallel. Each kernel owns the
	// S/ends window of its own range.
	rerr := runTasks(workers, len(groups), func(i int) {
		t0 := time.Now()
		lo := kids[groups[i][0]]
		hi := end
		if g1 := groups[i][1]; g1 < len(kids) {
			hi = kids[g1]
		}
		cs := &chunkState{k: bnd.NewKernel(interrupt), lo: lo, hi: hi}
		cs.k.Window(lo, hi)
		cs.cover, cs.deep, cs.err = cs.k.UpRange(lo, hi)
		cs.dur = time.Since(t0)
		states[i] = cs
	})
	if rerr = firstErr(rerr); rerr != nil {
		collect()
		return nil, ParallelResult{Workers: workers}, rerr
	}

	// Phase 2: stitch serially up the spine from the chunk summaries.
	// Each spine node's vertex set folds its single child's S and the
	// subtree union below it, ending with the anchor test at the context.
	var cover, deep uint64
	for _, cs := range states {
		cover |= cs.cover
		deep |= cs.deep
	}
	visits += int64(len(spine))
	sSpine := make([]uint64, len(spine))
	for i := len(spine) - 1; i >= 0; i-- {
		s := bnd.VertexSet(spine[i], cover, deep)
		sSpine[i] = s
		cover, deep = s, s|deep
	}
	parts := func() []tally.Partition {
		ps := make([]tally.Partition, len(states))
		for i, cs := range states {
			ps[i] = tally.Partition{
				Root:    int64(cs.lo),
				Kind:    "range",
				Nodes:   int64(cs.hi - cs.lo),
				Matches: int64(len(cs.out)),
				Dur:     cs.dur,
			}
		}
		return ps
	}
	if sSpine[0]&1 == 0 {
		// The anchor's downward constraints fail at the context: no
		// matches anywhere, skip the downward passes.
		collect()
		return nil, ParallelResult{Workers: workers, Partitions: parts()}, nil
	}

	// Downward pass along the spine (document order: every spine node
	// precedes every chunk node in preorder), yielding the allowed masks
	// the fan-out node's children start from.
	var out []storage.NodeRef
	if bnd.OutputIsAnchor() {
		out = append(out, ctx)
	}
	ac, ad := bnd.RootMasks()
	for i := 1; i < len(spine); i++ {
		emit, nac, nad := bnd.DescendStep(sSpine[i], ac, ad)
		if emit {
			out = append(out, spine[i])
		}
		ac, ad = nac, nad
	}
	if ac == 0 && ad == 0 {
		// The allowed masks drained on the spine: nothing can bind in
		// the chunks, skip the parallel downward passes.
		collect()
		return mergeSorted(out), ParallelResult{Workers: workers, Partitions: parts()}, nil
	}

	// Phase 3: downward pass per chunk, in parallel, over the windows
	// phase 1 filled.
	rerr = runTasks(workers, len(groups), func(i int) {
		cs := states[i]
		t0 := time.Now()
		sink := func(blk []storage.NodeRef) { cs.out = append(cs.out, blk...) }
		cs.err = cs.k.DownRange(cs.lo, cs.hi, ac, ad, sink)
		cs.k.Flush(sink)
		cs.dur += time.Since(t0)
	})
	if rerr = firstErr(rerr); rerr != nil {
		collect()
		return nil, ParallelResult{Workers: workers}, rerr
	}
	for _, cs := range states {
		out = append(out, cs.out...)
	}
	collect()
	return mergeSorted(out), ParallelResult{Workers: workers, Partitions: parts()}, nil
}

// batchedContextChunks evaluates a multi-context τ by chunking the
// context list, one batch pipeline per chunk. Nested contexts may land
// in different chunks yet produce the same matches, so the merge sorts
// and deduplicates exactly like the interpreted context chunking.
func batchedContextChunks(bnd *batch.Bound, contexts []storage.NodeRef, workers int, interrupt func() error, visits *int64) ([]storage.NodeRef, ParallelResult, error) {
	nTasks := workers * partitionsPerWorker
	if nTasks > len(contexts) {
		nTasks = len(contexts)
	}
	bounds := chunkBounds(len(contexts), nTasks)
	type chunkRes struct {
		k    *batch.Kernel
		refs []storage.NodeRef
		err  error
		dur  time.Duration
	}
	res := make([]*chunkRes, nTasks)
	rerr := runTasks(workers, nTasks, func(i int) {
		t0 := time.Now()
		r := &chunkRes{k: bnd.NewKernel(interrupt)}
		r.err = r.k.MatchOutput(contexts[bounds[i]:bounds[i+1]], func(blk []storage.NodeRef) {
			r.refs = append(r.refs, blk...)
		})
		r.dur = time.Since(t0)
		res[i] = r
	})
	parts := make([]tally.Partition, 0, nTasks)
	var out []storage.NodeRef
	for i, r := range res {
		if r == nil {
			continue // task aborted by an interrupt
		}
		*visits += r.k.Visits()
		if rerr == nil && r.err != nil {
			rerr = r.err
		}
		chunk := contexts[bounds[i]:bounds[i+1]]
		parts = append(parts, tally.Partition{
			Root:    int64(chunk[0]),
			Kind:    "contexts",
			Nodes:   int64(len(chunk)),
			Matches: int64(len(r.refs)),
			Dur:     r.dur,
		})
		out = append(out, r.refs...)
	}
	if rerr != nil {
		return nil, ParallelResult{Workers: workers}, rerr
	}
	return mergeSorted(out), ParallelResult{Workers: workers, Partitions: parts}, nil
}
