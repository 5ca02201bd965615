package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"xqp/internal/stats"
	"xqp/internal/storage"
)

func TestApplyInsertAndQuery(t *testing.T) {
	e := newBibEngine(t, Config{})
	res, err := e.Apply("bib.xml", []Mutation{{
		Op:   MutationInsert,
		Path: "/",
		XML:  `<book year="2003"><title>XQuery from the Experts</title><author><last>Katz</last></author><price>49.95</price></book>`,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 2 {
		t.Fatalf("generation = %d, want 2", res.Generation)
	}
	if res.NodesInserted == 0 || res.SuccinctDirtyBytes == 0 || res.IntervalDirtyBytes == 0 {
		t.Fatalf("stats not populated: %+v", res)
	}
	q, err := e.Query(context.Background(), "bib.xml", `//book/title`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Seq) != 3 {
		t.Fatalf("got %d titles after insert, want 3", len(q.Seq))
	}
	s := e.Stats()
	if s.Updates != 1 || s.UpdateNodesInserted != int64(res.NodesInserted) {
		t.Fatalf("update metrics not recorded: %+v", s)
	}
	if s.UpdateSuccinctDirtyBytes == 0 || s.UpdateIntervalDirtyBytes == 0 {
		t.Fatalf("dirty-byte metrics not recorded: %+v", s)
	}
}

func TestApplyDeleteByPath(t *testing.T) {
	e := newBibEngine(t, Config{})
	if _, err := e.Apply("bib.xml", []Mutation{{Op: MutationDelete, Path: "/book[2]"}}); err != nil {
		t.Fatal(err)
	}
	q, err := e.Query(context.Background(), "bib.xml", `//book/title`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Seq) != 1 {
		t.Fatalf("got %d titles after delete, want 1", len(q.Seq))
	}
	if q.Seq[0].String() != "TCP/IP Illustrated" {
		t.Fatalf("wrong surviving book: %q", q.Seq[0].String())
	}
}

func TestApplyAtomicOnError(t *testing.T) {
	e := newBibEngine(t, Config{})
	_, err := e.Apply("bib.xml", []Mutation{
		{Op: MutationInsert, Path: "/", XML: `<book><title>ok</title></book>`},
		{Op: MutationDelete, Path: "/no-such-child"},
	})
	if err == nil {
		t.Fatal("batch with bad path did not fail")
	}
	_, _, gen, err := e.Snapshot("bib.xml")
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("failed batch bumped generation to %d", gen)
	}
	q, err := e.Query(context.Background(), "bib.xml", `//book`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Seq) != 2 {
		t.Fatalf("failed batch partially applied: %d books", len(q.Seq))
	}
}

// TestApplyMalformedFragmentCommitsNothing: a batch whose second
// fragment is malformed fails as a whole, and it fails while a reader
// holds the document, because fragments are parsed before the write lock
// is requested.
func TestApplyMalformedFragmentCommitsNothing(t *testing.T) {
	e := newBibEngine(t, Config{})
	d, err := e.lookup("bib.xml")
	if err != nil {
		t.Fatal(err)
	}
	d.mu.RLock()
	done := make(chan error, 1)
	go func() {
		_, err := e.Apply("bib.xml", []Mutation{
			{Op: MutationInsert, Path: "/", XML: `<book><title>ok</title></book>`},
			{Op: MutationInsert, Path: "/", XML: `<book><title>broken</book>`},
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("batch with a malformed fragment did not fail")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the malformed fragment was not rejected before the write lock")
	}
	d.mu.RUnlock()
	if _, _, gen, _ := e.Snapshot("bib.xml"); gen != 1 {
		t.Fatalf("failed batch bumped generation to %d", gen)
	}
	q, err := e.Query(context.Background(), "bib.xml", `//book`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Seq) != 2 {
		t.Fatalf("failed batch partially applied: %d books", len(q.Seq))
	}
}

// TestApplyEditsSynopsis: the synopsis Apply derives edit by edit equals
// one built from the committed store.
func TestApplyEditsSynopsis(t *testing.T) {
	e := newBibEngine(t, Config{})
	if _, err := e.Apply("bib.xml", []Mutation{
		{Op: MutationInsert, Path: "/", XML: `<shelf><book><title>Nested</title></book></shelf>`},
		{Op: MutationDelete, Path: "/book[1]"},
		{Op: MutationInsert, Path: "/shelf/book", XML: `<note>n</note><!--c-->`},
	}); err != nil {
		t.Fatal(err)
	}
	st, syn, _, err := e.Snapshot("bib.xml")
	if err != nil {
		t.Fatal(err)
	}
	if want := stats.Build(st); !reflect.DeepEqual(syn, want) {
		t.Fatalf("synopsis after Apply = %v, want %v", syn, want)
	}
}

func TestApplyBatchSequentialPaths(t *testing.T) {
	// A later mutation addresses content an earlier one inserted.
	e := newBibEngine(t, Config{})
	res, err := e.Apply("bib.xml", []Mutation{
		{Op: MutationInsert, Path: "/", XML: `<shelf/>`},
		{Op: MutationInsert, Path: "/shelf", XML: `<book><title>Nested</title></book>`},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 2 {
		t.Fatalf("batch produced generation %d, want one commit (gen 2)", res.Generation)
	}
	q, err := e.Query(context.Background(), "bib.xml", `//shelf/book/title`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Seq) != 1 {
		t.Fatalf("nested insert not reachable: %d matches", len(q.Seq))
	}
}

func TestAppendFragments(t *testing.T) {
	e := newBibEngine(t, Config{})
	frags := `<book><title>A</title></book><book><title>B</title></book>`
	res, err := e.Append("bib.xml", strings.NewReader(frags))
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 || res.Generation != 2 {
		t.Fatalf("append result %+v, want single commit at gen 2", res)
	}
	q, err := e.Query(context.Background(), "bib.xml", `//book/title`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Seq) != 4 {
		t.Fatalf("got %d titles after append, want 4", len(q.Seq))
	}
}

func TestAppendRejectsMalformed(t *testing.T) {
	e := newBibEngine(t, Config{})
	if _, err := e.Append("bib.xml", strings.NewReader(`<broken>`)); err == nil {
		t.Fatal("malformed fragment accepted")
	}
	if _, err := e.Append("bib.xml", strings.NewReader(``)); err == nil {
		t.Fatal("empty stream accepted")
	}
	if _, _, gen, _ := e.Snapshot("bib.xml"); gen != 1 {
		t.Fatalf("rejected append bumped generation to %d", gen)
	}
}

func TestCommitNotifierSequence(t *testing.T) {
	e := New(Config{})
	var events []CommitEvent
	e.SetCommitNotifier(func(ev CommitEvent) { events = append(events, ev) })

	if err := e.Register("bib.xml", strings.NewReader(bibXML)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Apply("bib.xml", []Mutation{{Op: MutationInsert, Path: "/", XML: `<book/>`}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("bib.xml", strings.NewReader(bibXML)); err != nil {
		t.Fatal(err)
	}
	if err := e.Close("bib.xml"); err != nil {
		t.Fatal(err)
	}

	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}
	reg, app, rereg, closed := events[0], events[1], events[2], events[3]
	if reg.Gen != 1 || reg.Prev != nil || reg.Store == nil || reg.Tracked {
		t.Fatalf("register event wrong: %+v", reg)
	}
	if app.Gen != 2 || !app.Tracked || len(app.Records) != 1 || app.Prev != reg.Store {
		t.Fatalf("apply event wrong: %+v", app)
	}
	if app.Records[0].After != app.Store {
		t.Fatal("last record's After is not the committed store")
	}
	if app.Records[0].Stats.NodesInserted == 0 {
		t.Fatal("apply record has empty UpdateStats")
	}
	if rereg.Gen != 3 || rereg.Tracked || rereg.Prev != app.Store {
		t.Fatalf("re-register event wrong: %+v", rereg)
	}
	if !closed.Closed || closed.Gen != 3 || closed.Store != nil {
		t.Fatalf("close event wrong: %+v", closed)
	}

	// Generations must be monotonic per document across the sequence.
	for i := 1; i < len(events); i++ {
		if events[i].Gen < events[i-1].Gen {
			t.Fatalf("generation regressed: %d then %d", events[i-1].Gen, events[i].Gen)
		}
	}
}

func TestResolvePathErrors(t *testing.T) {
	e := newBibEngine(t, Config{})
	for _, path := range []string{"/nope", "/book[3]", "/book[0]", "/book[x]", "/book[1"} {
		if _, err := e.Apply("bib.xml", []Mutation{{Op: MutationDelete, Path: path}}); err == nil {
			t.Errorf("path %q accepted", path)
		}
	}
}

// TestConcurrentApplyNewNamesAndRead: commits whose fragments bring new
// names (so the shared vocabulary is copied on extend) and deletes race
// readers of earlier generations, which keep reading the table their
// store was published with. Run under -race in CI.
func TestConcurrentApplyNewNamesAndRead(t *testing.T) {
	e := newBibEngine(t, Config{})
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 30; i++ {
			muts := []Mutation{{Op: MutationInsert, Path: "/", XML: fmt.Sprintf(`<n%d a%d="v"><title>t</title></n%d>`, i, i, i)}}
			if i%3 == 2 {
				muts = append(muts, Mutation{Op: MutationDelete, Path: fmt.Sprintf("/n%d", i-1)})
			}
			if _, err := e.Apply("bib.xml", muts); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st, _, _, err := e.Snapshot("bib.xml")
				if err != nil {
					t.Error(err)
					return
				}
				for n := storage.NodeRef(0); int(n) < st.NodeCount(); n++ {
					_ = st.Vocab.Name(st.Tag(n))
				}
				if _, err := e.Query(context.Background(), "bib.xml", `//title`, QueryOptions{}); err != nil && !errors.Is(err, ErrSaturated) {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	q, err := e.Query(context.Background(), "bib.xml", `//title`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 + 30 - 10; len(q.Seq) != want {
		t.Fatalf("%d titles after the commits, want %d", len(q.Seq), want)
	}
}
