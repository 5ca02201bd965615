package nok

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"xqp/internal/storage"
	"xqp/internal/tally"
	"xqp/internal/xmark"
)

// batchedQueries spans the matcher's shapes: child-only fragments,
// descendant edges, branching, predicates, attributes, wildcards.
var batchedQueries = []string{
	"/bib/book",
	"/bib/book/title",
	"//title",
	"//book//last",
	"/bib/book[price < 50]/title",
	"/bib/book[@year]",
	"//book[author/last]",
	"/bib/*",
	"//author/last",
	"//nosuch",
	"//book[nosuch]",
}

// checkBatchedAgrees demands that the compiled kernel reproduce the
// interpreted matcher exactly, serially and under every worker budget.
func checkBatchedAgrees(t *testing.T, st *storage.Store, q string, contexts []storage.NodeRef) {
	t.Helper()
	g := graphOf(t, q)
	want, err := MatchOutput(st, g, contexts)
	if err != nil {
		t.Fatalf("%s interpreted: %v", q, err)
	}
	var c tally.Counters
	got, err := MatchOutputBatched(st, g, contexts, nil, &c)
	if err != nil {
		t.Fatalf("%s batched: %v", q, err)
	}
	if !refsEqual(got, want) {
		t.Fatalf("%s batched: %d refs, interpreted %d refs\nbatched:     %v\ninterpreted: %v",
			q, len(got), len(want), got, want)
	}
	if len(want) > 0 && c.NodesVisited == 0 {
		t.Fatalf("%s batched: no visits tallied", q)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		pgot, _, err := MatchOutputParallel(st, g, contexts, workers, nil, nil)
		if err != nil {
			t.Fatalf("%s batched workers=%d: %v", q, workers, err)
		}
		if !refsEqual(pgot, want) {
			t.Fatalf("%s batched workers=%d: %d refs, interpreted %d refs",
				q, workers, len(pgot), len(want))
		}
	}
}

func TestBatchedMatchesInterpreter(t *testing.T) {
	st := storage.MustLoad(bibXML)
	root := []storage.NodeRef{st.Root()}
	for _, q := range batchedQueries {
		checkBatchedAgrees(t, st, q, root)
	}
}

func TestBatchedMatchesInterpreterXMark(t *testing.T) {
	st := storage.FromDoc(xmark.Auction(4))
	root := []storage.NodeRef{st.Root()}
	for _, q := range []string{
		"//item/name",
		"//item[payment]/name",
		"/site/regions//item",
		"//person[profile/age]/name",
		"//keyword",
		"/site/*",
	} {
		checkBatchedAgrees(t, st, q, root)
	}
}

// TestBatchedNestedContexts exercises the overlap handling: every
// section on a chain is an ancestor of the chain's title, so matches
// repeat across context passes and must be deduplicated, exactly like
// the interpreted matcher.
func TestBatchedNestedContexts(t *testing.T) {
	st := storage.FromDoc(xmark.Deep(6, 24))
	sections := nodesNamed(st, "section")
	checkBatchedAgrees(t, st, "//title", sections)
	checkBatchedAgrees(t, st, "section/title", sections)
}

// TestBatchedRandomContexts fuzzes context selection: arbitrary nodes
// (any kind, duplicates, reversed order) through every query.
func TestBatchedRandomContexts(t *testing.T) {
	st := storage.FromDoc(xmark.Auction(2))
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		k := 1 + rng.Intn(9)
		contexts := make([]storage.NodeRef, k)
		for i := range contexts {
			contexts[i] = storage.NodeRef(rng.Intn(st.NodeCount()))
		}
		q := batchedQueries[trial%len(batchedQueries)]
		checkBatchedAgrees(t, st, q, contexts)
	}
}

// TestBatchedWidePartitions pins the parallel chunking on a wide
// document: the chunked kernels must actually fan out and still agree.
func TestBatchedWidePartitions(t *testing.T) {
	st := storage.FromDoc(xmark.Wide(600))
	g := graphOf(t, "//entry[@n]")
	lists := nodesNamed(st, "list")
	if len(lists) != 1 {
		t.Fatalf("want one list element, got %d", len(lists))
	}
	want, err := MatchOutput(st, g, lists)
	if err != nil {
		t.Fatal(err)
	}
	got, pr, err := MatchOutputParallel(st, g, lists, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !refsEqual(got, want) {
		t.Fatalf("parallel batched diverged: %d vs %d refs", len(got), len(want))
	}
	if !pr.Parallel() {
		t.Fatalf("fell back to serial: %s", pr.Fallback)
	}
	for _, p := range pr.Partitions {
		if p.Kind != "range" {
			t.Fatalf("partition kind = %q, want range", p.Kind)
		}
	}
}

// TestBatchedInterrupt verifies the kernel's poll discipline: a firing
// interrupt aborts the scan with its error, serially and in parallel.
func TestBatchedInterrupt(t *testing.T) {
	st := storage.FromDoc(xmark.Auction(2))
	g := graphOf(t, "//item/name")
	boom := errors.New("boom")
	// Parallel workers share the interrupt closure, so the counter must
	// be atomic.
	var calls atomic.Int64
	interrupt := func() error {
		if calls.Add(1) > 2 {
			return boom
		}
		return nil
	}
	if _, err := MatchOutputBatched(st, g, []storage.NodeRef{st.Root()}, interrupt, nil); !errors.Is(err, boom) {
		t.Fatalf("serial err = %v, want boom", err)
	}
	calls.Store(0)
	if _, _, err := MatchOutputParallel(st, g, []storage.NodeRef{st.Root()}, 4, interrupt, nil); !errors.Is(err, boom) {
		t.Fatalf("parallel err = %v, want boom", err)
	}
}
