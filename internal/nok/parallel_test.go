package nok

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"xqp/internal/storage"
	"xqp/internal/tally"
	"xqp/internal/xmark"
	"xqp/internal/xmldoc"
)

// nodesNamed collects every element ref whose tag is name, in document
// order — used to build deliberately nested context sets.
func nodesNamed(st *storage.Store, name string) []storage.NodeRef {
	var out []storage.NodeRef
	for n := 0; n < st.NodeCount(); n++ {
		ref := storage.NodeRef(n)
		if st.Kind(ref) == xmldoc.KindElement && st.Name(ref) == name {
			out = append(out, ref)
		}
	}
	return out
}

// checkParallelAgrees runs the query serially and with the given worker
// budget and demands identical ref slices.
func checkParallelAgrees(t *testing.T, st *storage.Store, q string, contexts []storage.NodeRef, workers int) ParallelResult {
	t.Helper()
	g := graphOf(t, q)
	want, err := MatchOutput(st, g, contexts)
	if err != nil {
		t.Fatalf("%s serial: %v", q, err)
	}
	got, pr, err := MatchOutputParallel(st, g, contexts, workers, nil, nil)
	if err != nil {
		t.Fatalf("%s parallel: %v", q, err)
	}
	if !refsEqual(got, want) {
		t.Fatalf("%s (workers=%d): parallel %d refs, serial %d refs\nparallel: %v\nserial:   %v",
			q, workers, len(got), len(want), got, want)
	}
	return pr
}

// TestParallelNestedContextDedup is the partition-boundary regression
// for nested context sets: on the deep recursive <section> tree, every
// section on a chain is an ancestor of the chain's <title>, so the same
// title is reachable from contexts in different chunks. A merge that
// concatenated chunk results would report it once per chunk that holds
// one of its ancestors; the sort+dedup merge must report it exactly
// once, in document order.
func TestParallelNestedContextDedup(t *testing.T) {
	st := storage.FromDoc(xmark.Deep(6, 24))
	sections := nodesNamed(st, "section")
	if len(sections) != 6*24 {
		t.Fatalf("sections = %d, want %d", len(sections), 6*24)
	}
	for _, workers := range []int{2, 3, 4, 8} {
		pr := checkParallelAgrees(t, st, "//title", sections, workers)
		if !pr.Parallel() {
			t.Fatalf("workers=%d: fell back to serial: %s", workers, pr.Fallback)
		}
		for _, p := range pr.Partitions {
			if p.Kind != "contexts" {
				t.Fatalf("partition kind = %q, want contexts", p.Kind)
			}
		}
		// The chunks together saw every context, and (before dedup)
		// every chain's title once per context chunk that contains one
		// of its sections — so the summed per-partition matches must
		// strictly exceed the deduplicated result when chunking split a
		// chain, which 6 chains over >6 chunks guarantees for workers>1.
		var ctxs, matches int64
		for _, p := range pr.Partitions {
			ctxs += p.Nodes
			matches += p.Matches
		}
		if ctxs != int64(len(sections)) {
			t.Fatalf("workers=%d: partitions cover %d contexts, want %d", workers, ctxs, len(sections))
		}
		if matches <= 6 {
			t.Fatalf("workers=%d: partitions matched %d times total, expected boundary duplicates (> 6)", workers, matches)
		}
	}
}

// TestParallelDeepRelativePattern exercises nested contexts with a
// structural pattern (not just an output hop) across chunk boundaries.
func TestParallelDeepRelativePattern(t *testing.T) {
	st := storage.FromDoc(xmark.Deep(5, 16))
	sections := nodesNamed(st, "section")
	checkParallelAgrees(t, st, "//section/title", sections, 4)
	checkParallelAgrees(t, st, "//section//title", sections, 4)
}

// TestParallelPartitionModes pins the partitioning mode per input: a
// single context partitions its subtree into preorder ranges, whatever
// the pattern's shape, and many contexts partition the context list.
func TestParallelPartitionModes(t *testing.T) {
	st := xmark.StoreAuction(2)
	root := []storage.NodeRef{st.Root()}
	// The <people> element holds one <person> child per person: enough
	// children to chunk for a child-only pattern at a non-root context.
	people := nodesNamed(st, "people")
	cases := []struct {
		q        string
		contexts []storage.NodeRef
		kind     string
	}{
		{"//item/name", root, "range"},
		{"//parlist//text", root, "range"},
		{"//open_auction[bidder]/current", root, "range"},
		{"person[profile]/name", people[:1], "range"},
		{"name", nodesNamed(st, "person"), "contexts"},
	}
	for _, c := range cases {
		pr := checkParallelAgrees(t, st, c.q, c.contexts, 4)
		if !pr.Parallel() {
			t.Fatalf("%s: fell back to serial: %s", c.q, pr.Fallback)
		}
		for _, p := range pr.Partitions {
			if p.Kind != c.kind {
				t.Fatalf("%s: partition kind = %q, want %q", c.q, p.Kind, c.kind)
			}
		}
	}
}

// TestParallelFallbackReasons pins the serial-fallback vocabulary the
// trace layer exposes.
func TestParallelFallbackReasons(t *testing.T) {
	st := storage.MustLoad(bibXML)
	root := []storage.NodeRef{st.Root()}
	g := graphOf(t, "//title")

	_, pr, err := MatchOutputParallel(st, g, root, 1, nil, nil)
	if err != nil || pr.Parallel() || pr.Fallback != "workers < 2" {
		t.Fatalf("workers=1: %v %+v", err, pr)
	}
	_, pr, err = MatchOutputParallel(st, g, nil, 4, nil, nil)
	if err != nil || pr.Parallel() || pr.Fallback != "no context nodes" {
		t.Fatalf("no contexts: %v %+v", err, pr)
	}
	refs, pr, err := MatchOutputParallel(st, graphOf(t, "//nosuch"), root, 4, nil, nil)
	if err != nil || len(refs) != 0 || pr.Fallback != "pattern tag absent from document" {
		t.Fatalf("absent tag: %v %v %+v", err, refs, pr)
	}
}

// TestParallelAgreesWithSerialProperty cross-checks the parallel matcher
// against the serial one on random documents, random queries, and both
// root and nested multi-contexts.
func TestParallelAgreesWithSerialProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	queries := []string{
		"//a", "//a/b", "//a//c", "/r/a", "//b[c]", "//a[b]//c",
		"//a/b/c", "//b//b", "/r/*[a]", "//c",
	}
	for trial := 0; trial < 40; trial++ {
		st := storage.MustLoad(randomXML(r, 120+r.Intn(250)))
		contexts := [][]storage.NodeRef{
			{st.Root()},
			nodesNamed(st, "a"),
			nodesNamed(st, "b"),
		}
		for _, q := range queries {
			for _, ctx := range contexts {
				if len(ctx) == 0 {
					continue
				}
				workers := 2 + r.Intn(7)
				checkParallelAgrees(t, st, q, ctx, workers)
			}
		}
	}
}

// TestParallelInterrupt verifies that an interrupt raised inside worker
// goroutines surfaces as the matcher error, exactly like the serial
// path. The interrupt function must tolerate concurrent callers.
func TestParallelInterrupt(t *testing.T) {
	st := xmark.StoreAuction(4)
	g := graphOf(t, "//parlist//text")
	errStop := errors.New("stop")
	// An immediately-firing interrupt: the first poll from any goroutine
	// aborts the match.
	_, _, err := MatchOutputParallel(st, g, []storage.NodeRef{st.Root()}, 4, func() error { return errStop }, nil)
	if !errors.Is(err, errStop) {
		t.Fatalf("err = %v, want %v", err, errStop)
	}
}

// TestParallelVisitsCounted checks the tally sink aggregates worker
// visit counts: parallel execution must report work of the same order
// as the serial kernel, not zero and not once per worker.
func TestParallelVisitsCounted(t *testing.T) {
	st := xmark.StoreAuction(2)
	g := graphOf(t, "//item/name")
	var serial, par tally.Counters
	if _, err := MatchOutputBatched(st, g, []storage.NodeRef{st.Root()}, nil, &serial); err != nil {
		t.Fatal(err)
	}
	if _, _, err := MatchOutputParallel(st, g, []storage.NodeRef{st.Root()}, 4, nil, &par); err != nil {
		t.Fatal(err)
	}
	if par.NodesVisited == 0 {
		t.Fatal("parallel visits not counted")
	}
	if par.NodesVisited < serial.NodesVisited/2 || par.NodesVisited > serial.NodesVisited*3 {
		t.Fatalf("parallel visits %d out of range of serial %d", par.NodesVisited, serial.NodesVisited)
	}
}

// TestGroupBySizeCovers pins the grouping invariants: contiguous,
// disjoint, covering, and at most k groups.
func TestGroupBySizeCovers(t *testing.T) {
	st := xmark.StoreAuction(1)
	var kids []storage.NodeRef
	for c := st.FirstChild(st.DocumentElement()); c != storage.NilRef; c = st.NextSibling(c) {
		kids = append(kids, c)
	}
	for k := 1; k <= 8; k++ {
		groups := groupBySize(st, kids, k)
		if len(groups) > k {
			t.Fatalf("k=%d: %d groups", k, len(groups))
		}
		prev := 0
		for _, gr := range groups {
			if gr[0] != prev || gr[1] <= gr[0] {
				t.Fatalf("k=%d: bad group %v (prev end %d)", k, gr, prev)
			}
			prev = gr[1]
		}
		if prev != len(kids) {
			t.Fatalf("k=%d: groups end at %d, want %d", k, prev, len(kids))
		}
	}
}

func BenchmarkNoKMatchParallel(b *testing.B) {
	st := xmark.StoreAuction(8)
	g := graphOf(b, "//parlist//text")
	root := []storage.NodeRef{st.Root()}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := MatchOutputParallel(st, g, root, workers, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
