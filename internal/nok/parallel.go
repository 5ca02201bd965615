package nok

// Parallel intra-query tree-pattern matching: the τ operator evaluated
// by the compiled batch kernels over disjoint partitions of the
// balanced-parentheses store on a bounded goroutine pool.
//
// The store's pre-order numbering makes a subtree a contiguous ref
// range [n, n+SubtreeSize(n)), so sibling subtrees tile their parent's
// range and each partition is one kernel over its own window, with no
// shared state. Two partitioning modes cover the matcher's inputs:
//
//   - one context: the spine of single-child nodes below the context is
//     descended serially, and the first node with several children has
//     them chunked into contiguous ranges of near-equal size. The upward
//     passes run per range in parallel, the spine's vertex sets are
//     stitched serially from the range summaries, and the downward
//     passes fan out again over the same ranges.
//   - many contexts: the context list is chunked and each chunk runs the
//     serial kernel. Contexts may be nested, so matches reachable from
//     two contexts can straddle a chunk boundary — the merge must sort
//     and deduplicate, never just concatenate.
//
// Partial results merge back into document order; per-partition spans
// are reported for execution traces.

import (
	"sync"
	"sync/atomic"
	"time"

	"xqp/internal/batch"
	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/tally"
)

// partitionsPerWorker oversizes the partition count relative to the
// worker pool so uneven subtrees still keep every worker busy.
const partitionsPerWorker = 4

// ParallelResult describes how MatchOutputParallel executed.
type ParallelResult struct {
	// Workers is the goroutine bound the match ran under.
	Workers int
	// Partitions holds one record per partition task, in document order.
	// It is nil exactly when the match fell back to serial execution.
	Partitions []tally.Partition
	// Fallback is the reason the match ran serially; empty when the
	// parallel path executed.
	Fallback string
}

// Parallel reports whether the parallel path actually executed.
func (r ParallelResult) Parallel() bool { return r.Partitions != nil }

// MatchOutputParallel is MatchOutputBatched evaluated over partitions
// of the store on a pool of up to workers goroutines, one batch kernel
// per partition. interrupt (when non-nil) must be safe for concurrent
// use — every worker polls it, exactly like the engine's context-backed
// interrupts. Results are identical to the serial matchers: merged into
// document order with boundary duplicates removed. When no useful
// partitioning exists the match runs serially and the result records
// the reason. Like MatchOutputBatched it fails with batch.ErrTooLarge
// for patterns over batch.MaxVertices vertices.
func MatchOutputParallel(st *storage.Store, g *pattern.Graph, contexts []storage.NodeRef, workers int, interrupt func() error, c *tally.Counters) (refs []storage.NodeRef, pr ParallelResult, err error) {
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
		return contextChunks(bnd, contexts, workers, interrupt, &visits)
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

// contextChunks evaluates a multi-context τ by chunking the context
// list, one batch pipeline per chunk. Nested contexts may land in
// different chunks yet produce the same matches (their subtrees
// overlap), so the merge sorts and deduplicates.
func contextChunks(bnd *batch.Bound, contexts []storage.NodeRef, workers int, interrupt func() error, visits *int64) ([]storage.NodeRef, ParallelResult, error) {
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

// groupBySize splits doc-ordered disjoint subtree roots into at most k
// contiguous groups of near-equal total subtree size.
func groupBySize(st *storage.Store, roots []storage.NodeRef, k int) [][2]int {
	var total int64
	for _, r := range roots {
		total += int64(st.SubtreeSize(r))
	}
	budget := total/int64(k) + 1
	var groups [][2]int
	start := 0
	var acc int64
	for i, r := range roots {
		acc += int64(st.SubtreeSize(r))
		if acc >= budget {
			groups = append(groups, [2]int{start, i + 1})
			start, acc = i+1, 0
		}
	}
	if start < len(roots) {
		groups = append(groups, [2]int{start, len(roots)})
	}
	return groups
}

// chunkBounds splits n items into k contiguous chunks of near-equal
// count, returning the k+1 boundary indices.
func chunkBounds(n, k int) []int {
	b := make([]int, k+1)
	for i := 0; i <= k; i++ {
		b[i] = i * n / k
	}
	return b
}

// mergeSorted restores document order over concatenated per-partition
// results. Partitions over disjoint subtrees concatenate cleanly, but
// nested contexts chunked onto different workers produce overlapping —
// even identical — matches, and post-order recordings arrive unsorted;
// both cases take the sort+dedup path.
func mergeSorted(refs []storage.NodeRef) []storage.NodeRef {
	if sortedUnique(refs) {
		return refs
	}
	sortRefs(refs)
	return dedupRefs(refs)
}

// runTasks executes n tasks on a bounded pool of up to workers
// goroutines, converting an interrupt raised inside any task back into
// its error. Tasks must index disjoint state; the pool join publishes
// their writes to the caller.
func runTasks(workers, n int, task func(i int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var err error
		func() {
			defer catchInterrupt(&err)
			for i := 0; i < n; i++ {
				task(i)
			}
		}()
		return err
	}
	var next atomic.Int64
	next.Store(-1)
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				var err error
				func() {
					defer catchInterrupt(&err)
					task(i)
				}()
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
