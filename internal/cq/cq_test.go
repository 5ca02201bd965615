package cq

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"xqp/internal/cost/calibrate"
	"xqp/internal/engine"
	"xqp/internal/exec"
	"xqp/internal/storage"
	"xqp/internal/xmark"
)

const bibXML = `<bib>
  <book year="1994">
    <title>TCP/IP Illustrated</title>
    <author><last>Stevens</last><first>W.</first></author>
    <publisher>Addison-Wesley</publisher>
    <price>65.95</price>
  </book>
  <book year="2000">
    <title>Data on the Web</title>
    <author><last>Abiteboul</last><first>Serge</first></author>
    <publisher>Morgan Kaufmann Publishers</publisher>
    <price>39.95</price>
  </book>
</bib>`

func newBibEngine(t testing.TB) *engine.Engine {
	t.Helper()
	e := engine.New(engine.Config{})
	if err := e.Register("bib.xml", strings.NewReader(bibXML)); err != nil {
		t.Fatal(err)
	}
	return e
}

func recv(t testing.TB, sub *Subscription) Delta {
	t.Helper()
	select {
	case d, ok := <-sub.Deltas():
		if !ok {
			t.Fatal("subscription channel closed while expecting a delta")
		}
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for delta")
	}
	panic("unreachable")
}

func apply(t testing.TB, e *engine.Engine, doc string, muts ...engine.Mutation) {
	t.Helper()
	if _, err := e.Apply(doc, muts); err != nil {
		t.Fatal(err)
	}
}

func TestSubscribeInitialSnapshot(t *testing.T) {
	e := newBibEngine(t)
	r := New(e, Config{})
	defer r.Close()

	sub, err := r.Subscribe("bib.xml", `//book/title`)
	if err != nil {
		t.Fatal(err)
	}
	d := recv(t, sub)
	if !d.Full || d.Reason != "initial" || d.Gen != 1 {
		t.Fatalf("initial delta wrong: %+v", d)
	}
	state := d.Apply(nil)
	want := []string{"<title>TCP/IP Illustrated</title>", "<title>Data on the Web</title>"}
	if len(state) != 2 || state[0] != want[0] || state[1] != want[1] {
		t.Fatalf("initial snapshot = %q, want %q", state, want)
	}
	if d.Size != 2 {
		t.Fatalf("Size = %d, want 2", d.Size)
	}
}

func TestIncrementalInsertAndDelete(t *testing.T) {
	e := newBibEngine(t)
	r := New(e, Config{})
	defer r.Close()

	sub, err := r.Subscribe("bib.xml", `//book/title`)
	if err != nil {
		t.Fatal(err)
	}
	state := recv(t, sub).Apply(nil)

	apply(t, e, "bib.xml", engine.Mutation{
		Op: engine.MutationInsert, Path: "/",
		XML: `<book year="2003"><title>XQuery from the Experts</title><price>49.95</price></book>`,
	})
	d := recv(t, sub)
	if d.Full {
		t.Fatalf("tracked insert fell back to full re-run (reason %q)", d.Reason)
	}
	if len(d.Removed) != 0 || len(d.Added) != 1 || d.Added[0].Index != 2 {
		t.Fatalf("insert delta wrong: %+v", d)
	}
	state = d.Apply(state)
	if len(state) != 3 || state[2] != "<title>XQuery from the Experts</title>" {
		t.Fatalf("state after insert: %q", state)
	}

	apply(t, e, "bib.xml", engine.Mutation{Op: engine.MutationDelete, Path: "/book[1]"})
	d = recv(t, sub)
	if d.Full {
		t.Fatalf("tracked delete fell back to full re-run (reason %q)", d.Reason)
	}
	if len(d.Removed) != 1 || d.Removed[0] != 0 || len(d.Added) != 0 {
		t.Fatalf("delete delta wrong: %+v", d)
	}
	state = d.Apply(state)
	if len(state) != 2 || state[0] != "<title>Data on the Web</title>" {
		t.Fatalf("state after delete: %q", state)
	}

	s := r.Stats()
	if s.Incremental != 2 {
		t.Fatalf("Incremental = %d, want 2 (stats %+v)", s.Incremental, s)
	}
}

func TestPredicateFlipViaScopeLift(t *testing.T) {
	e := newBibEngine(t)
	// The bib fixture is tiny, so a lifted book subtree exceeds the
	// default 25% region cap; raise it — the point here is the scope
	// lift, not the threshold.
	r := New(e, Config{MaxFullFraction: 1.0})
	defer r.Close()

	src := `/bib/book[price < 50]/title`
	sub, err := r.Subscribe("bib.xml", src)
	if err != nil {
		t.Fatal(err)
	}
	state := recv(t, sub).Apply(nil)
	if len(state) != 1 || state[0] != "<title>Data on the Web</title>" {
		t.Fatalf("initial predicate result: %q", state)
	}

	// Replace book 1's price so the predicate flips on an existing book:
	// the edit parent is the book, the qualifying vertex's scope lift
	// must re-match its subtree and surface the title.
	apply(t, e, "bib.xml",
		engine.Mutation{Op: engine.MutationDelete, Path: "/book[1]/price"},
		engine.Mutation{Op: engine.MutationInsert, Path: "/book[1]", XML: `<price>9.99</price>`},
	)
	d := recv(t, sub)
	if d.Full {
		t.Fatalf("predicate flip fell back to full re-run (reason %q)", d.Reason)
	}
	state = d.Apply(state)
	want := []string{"<title>TCP/IP Illustrated</title>", "<title>Data on the Web</title>"}
	if len(state) != 2 || state[0] != want[0] || state[1] != want[1] {
		t.Fatalf("state after flip: %q, want %q", state, want)
	}

	// Flip it back off.
	apply(t, e, "bib.xml",
		engine.Mutation{Op: engine.MutationDelete, Path: "/book[1]/price"},
		engine.Mutation{Op: engine.MutationInsert, Path: "/book[1]", XML: `<price>199.00</price>`},
	)
	state = recv(t, sub).Apply(state)
	if len(state) != 1 || state[0] != "<title>Data on the Web</title>" {
		t.Fatalf("state after unflip: %q", state)
	}
}

func TestUntrackedCommitFallsBack(t *testing.T) {
	e := newBibEngine(t)
	r := New(e, Config{})
	defer r.Close()

	sub, err := r.Subscribe("bib.xml", `//book/title`)
	if err != nil {
		t.Fatal(err)
	}
	state := recv(t, sub).Apply(nil)

	// Re-registering replaces the store wholesale: no mutation records.
	if err := e.Register("bib.xml", strings.NewReader(`<bib><book><title>Only</title></book></bib>`)); err != nil {
		t.Fatal(err)
	}
	d := recv(t, sub)
	if !d.Full || d.Reason != "untracked-commit" {
		t.Fatalf("untracked commit delta: %+v", d)
	}
	state = d.Apply(state)
	if len(state) != 1 || state[0] != "<title>Only</title>" {
		t.Fatalf("state after replace: %q", state)
	}
}

func TestThresholdFallbackStillMinimalDelta(t *testing.T) {
	e := newBibEngine(t)
	// A vanishing threshold forces the full path on every commit while
	// keeping commits tracked: the ref-join must still yield a delta
	// that only mentions what changed.
	r := New(e, Config{MaxFullFraction: 1e-9})
	defer r.Close()

	sub, err := r.Subscribe("bib.xml", `//book/title`)
	if err != nil {
		t.Fatal(err)
	}
	state := recv(t, sub).Apply(nil)

	apply(t, e, "bib.xml", engine.Mutation{
		Op: engine.MutationInsert, Path: "/", XML: `<book><title>New</title></book>`,
	})
	d := recv(t, sub)
	if !d.Full || d.Reason != "dirty-region-threshold" {
		t.Fatalf("threshold delta: %+v", d)
	}
	if len(d.Removed) != 0 || len(d.Added) != 1 {
		t.Fatalf("threshold full re-run did not produce a minimal delta: %+v", d)
	}
	state = d.Apply(state)
	if len(state) != 3 {
		t.Fatalf("state after threshold commit: %q", state)
	}
}

func TestIneligiblePlanAlwaysFull(t *testing.T) {
	e := newBibEngine(t)
	r := New(e, Config{})
	defer r.Close()

	sub, err := r.Subscribe("bib.xml", `count(//book)`)
	if err != nil {
		t.Fatal(err)
	}
	state := recv(t, sub).Apply(nil)
	if len(state) != 1 || state[0] != "2" {
		t.Fatalf("initial count: %q", state)
	}

	apply(t, e, "bib.xml", engine.Mutation{
		Op: engine.MutationInsert, Path: "/", XML: `<book><title>X</title></book>`,
	})
	d := recv(t, sub)
	if !d.Full || d.Reason != "ineligible-plan" {
		t.Fatalf("ineligible delta: %+v", d)
	}
	state = d.Apply(state)
	if len(state) != 1 || state[0] != "3" {
		t.Fatalf("count after insert: %q", state)
	}
}

// TestInitialEvaluationCostChosen: under auto, a watched query's full
// evaluation runs the cost model's pick through the engine's bind path,
// not NoK by default. On Auction(4) the model sends //person//name to
// PathStack (the bid_stream verdict of TestDefaultVerdictsOnWorkloadQueries),
// and the calibrator records that one dispatch, estimated.
func TestInitialEvaluationCostChosen(t *testing.T) {
	const src = `//person//name`
	e := engine.New(engine.Config{})
	e.RegisterStore("auction", xmark.StoreAuction(4))
	r := New(e, Config{})
	defer r.Close()
	if _, _, err := r.Result("auction", src); err != nil {
		t.Fatal(err)
	}
	var arms []calibrate.ArmState
	for _, sh := range e.Calibrator("auction").Snapshot().Shapes {
		arms = append(arms, sh.Arms...)
	}
	if len(arms) != 1 || arms[0].Strategy != exec.StrategyPathStack || arms[0].Count != 1 {
		t.Fatalf("initial evaluation recorded %+v, want one PathStack dispatch", arms)
	}
}

func TestPollSnapshotDeltasAndTimeout(t *testing.T) {
	e := newBibEngine(t)
	r := New(e, Config{})
	defer r.Close()
	ctx := context.Background()

	res, err := r.Poll(ctx, "bib.xml", `//book/title`, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reset || res.Gen != 1 || len(res.Items) != 2 {
		t.Fatalf("snapshot poll: %+v", res)
	}
	state := res.Items

	// A current poller times out with no deltas.
	start := time.Now()
	res, err = r.Poll(ctx, "bib.xml", `//book/title`, res.Gen, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reset || len(res.Deltas) != 0 || res.Gen != 1 {
		t.Fatalf("timeout poll: %+v", res)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("poll returned before its wait elapsed")
	}

	// A waiting poll wakes on commit.
	type pollOut struct {
		res *PollResult
		err error
	}
	ch := make(chan pollOut, 1)
	go func() {
		res, err := r.Poll(ctx, "bib.xml", `//book/title`, 1, 5*time.Second)
		ch <- pollOut{res, err}
	}()
	time.Sleep(20 * time.Millisecond)
	apply(t, e, "bib.xml", engine.Mutation{
		Op: engine.MutationInsert, Path: "/", XML: `<book><title>Woken</title></book>`,
	})
	out := <-ch
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Reset || len(out.res.Deltas) != 1 || out.res.Gen != 2 {
		t.Fatalf("woken poll: %+v", out.res)
	}
	for _, d := range out.res.Deltas {
		state = d.Apply(state)
	}
	if len(state) != 3 || state[2] != "<title>Woken</title>" {
		t.Fatalf("accumulated poll state: %q", state)
	}
}

func TestPollBehindRingResets(t *testing.T) {
	e := newBibEngine(t)
	r := New(e, Config{RingSize: 2})
	defer r.Close()
	ctx := context.Background()

	res, err := r.Poll(ctx, "bib.xml", `//book/title`, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Gen
	for i := 0; i < 5; i++ {
		apply(t, e, "bib.xml", engine.Mutation{
			Op: engine.MutationInsert, Path: "/", XML: `<book><title>T</title></book>`,
		})
	}
	// Wait for the worker to drain all five commits.
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err = r.Poll(ctx, "bib.xml", `//book/title`, first+5, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Gen >= first+5 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A poller stuck at the pre-commit generation is behind the 2-deep
	// ring and must get a reset, not a gap.
	res, err = r.Poll(ctx, "bib.xml", `//book/title`, first, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reset || len(res.Items) != 7 {
		t.Fatalf("behind-ring poll: %+v", res)
	}
}

func TestSlowSubscriberEvicted(t *testing.T) {
	e := newBibEngine(t)
	r := New(e, Config{SubscriberBuffer: 1})
	defer r.Close()

	sub, err := r.Subscribe("bib.xml", `//book/title`)
	if err != nil {
		t.Fatal(err)
	}
	// The unread initial snapshot fills the 1-slot buffer; the first
	// undeliverable commit evicts the subscriber. Don't read until the
	// eviction is recorded — draining would make this consumer fast.
	apply(t, e, "bib.xml", engine.Mutation{
		Op: engine.MutationInsert, Path: "/", XML: `<book><title>T</title></book>`,
	})
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats().EvictedSubscribers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never evicted")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok := <-sub.Deltas(); !ok {
		t.Fatal("buffered snapshot lost on eviction")
	}
	if _, ok := <-sub.Deltas(); ok {
		t.Fatal("channel still open after eviction")
	}
	if !sub.Lagged() {
		t.Fatal("evicted subscription not marked lagged")
	}
}

func TestDocumentCloseEndsSubscriptions(t *testing.T) {
	e := newBibEngine(t)
	r := New(e, Config{})
	defer r.Close()

	sub, err := r.Subscribe("bib.xml", `//book/title`)
	if err != nil {
		t.Fatal(err)
	}
	recv(t, sub)
	if err := e.Close("bib.xml"); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-sub.Deltas():
		if ok {
			t.Fatal("got a delta after document close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscription not closed after document close")
	}
	if sub.Lagged() {
		t.Fatal("close mistaken for lag")
	}
	if r.Stats().Queries != 0 {
		t.Fatal("query survived document close")
	}
}

func TestRegistryCloseDetaches(t *testing.T) {
	e := newBibEngine(t)
	r := New(e, Config{})
	sub, err := r.Subscribe("bib.xml", `//book/title`)
	if err != nil {
		t.Fatal(err)
	}
	recv(t, sub)
	r.Close()
	r.Close() // idempotent
	if _, ok := <-sub.Deltas(); ok {
		t.Fatal("subscription open after registry close")
	}
	if _, err := r.Subscribe("bib.xml", `//book/title`); !errors.Is(err, ErrClosed) {
		t.Fatalf("Subscribe after Close: %v", err)
	}
	// Mutating the engine after Close must not panic or deliver.
	apply(t, e, "bib.xml", engine.Mutation{
		Op: engine.MutationInsert, Path: "/", XML: `<book><title>T</title></book>`,
	})
}

func TestSubscribeErrors(t *testing.T) {
	e := newBibEngine(t)
	r := New(e, Config{})
	defer r.Close()

	if _, err := r.Subscribe("missing.xml", `//book`); err == nil {
		t.Fatal("unknown document accepted")
	}
	if _, err := r.Subscribe("bib.xml", `//book[`); err == nil {
		t.Fatal("malformed query accepted")
	}
	if _, err := r.Subscribe("bib.xml", `doc("other.xml")//book`); !errors.Is(err, ErrNotWatchable) {
		t.Fatalf("cross-doc query: %v", err)
	}
}

func TestQueryCapEvictsIdle(t *testing.T) {
	e := newBibEngine(t)
	r := New(e, Config{MaxQueries: 2})
	defer r.Close()
	ctx := context.Background()

	// Two idle queries (registered via Poll, no subscribers)…
	if _, err := r.Poll(ctx, "bib.xml", `//book/title`, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Poll(ctx, "bib.xml", `//book/price`, 0, 0); err != nil {
		t.Fatal(err)
	}
	// …a third displaces one of them.
	if _, err := r.Poll(ctx, "bib.xml", `//book/author`, 0, 0); err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if s.Queries != 2 || s.EvictedQueries != 1 {
		t.Fatalf("stats after cap eviction: %+v", s)
	}

	// With both slots pinned by subscribers, a new query is refused.
	if _, err := r.Subscribe("bib.xml", `//book/author`); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Subscribe("bib.xml", `//book/publisher`); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Subscribe("bib.xml", `//book/title`); !errors.Is(err, ErrTooManyQueries) {
		t.Fatalf("over-cap subscribe: %v", err)
	}
}

func TestCommitTraceRecorded(t *testing.T) {
	e := newBibEngine(t)
	r := New(e, Config{})
	defer r.Close()

	sub, err := r.Subscribe("bib.xml", `//book/title`)
	if err != nil {
		t.Fatal(err)
	}
	recv(t, sub)
	apply(t, e, "bib.xml", engine.Mutation{
		Op: engine.MutationInsert, Path: "/", XML: `<book><title>T</title></book>`,
	})
	recv(t, sub)
	span := r.CommitTrace("bib.xml")
	if span == nil || len(span.Children) != 1 {
		t.Fatalf("commit trace missing: %+v", span)
	}
	if !strings.Contains(span.Children[0].Label, "incremental") {
		t.Fatalf("trace child label: %q", span.Children[0].Label)
	}
}

func TestDeltaApplyAlgebra(t *testing.T) {
	prev := []string{"a", "b", "c", "d"}
	d := Delta{
		Removed: []int{1, 3},
		Added:   []AddedItem{{Index: 0, XML: "x"}, {Index: 3, XML: "y"}},
	}
	got := d.Apply(prev)
	want := []string{"x", "a", "c", "y"}
	if len(got) != len(want) {
		t.Fatalf("Apply = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Apply = %q, want %q", got, want)
		}
	}
	empty := Delta{}
	if !empty.Empty() {
		t.Fatal("zero delta not empty")
	}
	if d.Empty() {
		t.Fatal("non-empty delta reported empty")
	}
}

func TestDiffLCSMinimal(t *testing.T) {
	mk := func(xs ...string) []item {
		out := make([]item, len(xs))
		for i, x := range xs {
			out[i] = item{ref: storage.NodeRef(-1), xml: x, orig: -1}
		}
		return out
	}
	old := mk("a", "b", "c")
	next := mk("a", "x", "c", "d")
	removed, added := diffLCS(old, next)
	if len(removed) != 1 || removed[0] != 1 {
		t.Fatalf("removed = %v", removed)
	}
	if len(added) != 2 || added[0].Index != 1 || added[0].XML != "x" || added[1].Index != 3 {
		t.Fatalf("added = %v", added)
	}
	// Round-trip through Apply.
	d := Delta{Removed: removed, Added: added}
	got := d.Apply([]string{"a", "b", "c"})
	want := []string{"a", "x", "c", "d"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round trip = %q, want %q", got, want)
		}
	}
}
