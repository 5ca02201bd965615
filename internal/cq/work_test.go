package cq

import (
	"fmt"
	"testing"

	"xqp/internal/compile"
	"xqp/internal/engine"
	"xqp/internal/xmark"
)

// bidCommit registers Auction(scale), compiles src against it and
// commits one bid into an open auction, returning the query's
// incremental plan, compiled plan and the commit event.
func bidCommit(t *testing.T, scale int, src string) (*incPlan, *engine.Plan, engine.CommitEvent) {
	t.Helper()
	eng := engine.New(engine.Config{})
	eng.RegisterStore("auction", xmark.StoreAuction(scale))
	st, syn, _, err := eng.Snapshot("auction")
	if err != nil {
		t.Fatal(err)
	}
	c, err := engine.Prepare(src, compile.Options{}, st, syn)
	if err != nil {
		t.Fatal(err)
	}
	p, fb := incrementalPlan(c.Plan)
	if fb != fbNone {
		t.Fatalf("%s is not incremental: %s", src, fb)
	}
	var ev engine.CommitEvent
	eng.SetCommitNotifier(func(e engine.CommitEvent) { ev = e })
	apply(t, eng, "auction", engine.Mutation{
		Op: engine.MutationInsert, Path: "/open_auctions/open_auction[3]",
		XML: `<bidder><date>01/02/2004</date><increase>3.00</increase></bidder>`,
	})
	return p, c, ev
}

// TestIncrementalStepWorkIndependentOfSize: the navigational work of one
// incremental step for the benchmark's watched query stays flat from
// Auction(1) to Auction(8). Re-checking the upward path must not re-scan
// the document for the descendant edge the candidate already witnesses.
func TestIncrementalStepWorkIndependentOfSize(t *testing.T) {
	const src = `//open_auction[bidder]/current`
	visits := func(scale int) int64 {
		p, c, ev := bidCommit(t, scale, src)
		rm := newRematcher("auction", ev.Store, nil, nil) // no model: always the walk
		if _, ok := p.step(ev.Records[0], nil, ev.Store.NodeCount(), "auction", c, rm); !ok {
			t.Fatal("incremental step refused the commit")
		}
		return rm.work.NodesVisited
	}
	v1, v8 := visits(1), visits(8)
	if v1 == 0 || v8 > 2*v1 {
		t.Fatalf("one incremental step visits %d nodes on Auction(1), %d on Auction(8)", v1, v8)
	}
}

// TestRematchFullCounted: a commit whose dirty candidates span the whole
// document is still incremental, but the model sends its re-match to a
// full evaluation; Stats counts it as RematchFull.
func TestRematchFullCounted(t *testing.T) {
	// site carries a branch, so every edit lifts the candidate region to
	// the whole site subtree.
	const src = `/site[people]/open_auctions/open_auction/current`
	p, c, ev := bidCommit(t, 4, src)
	rm := newRematcher("auction", ev.Store, ev.Syn, nil)
	if _, ok := p.step(ev.Records[0], nil, ev.Store.NodeCount(), "auction", c, rm); !ok {
		t.Fatal("incremental step refused the commit")
	}
	if rm.full != 1 {
		t.Fatalf("whole-document re-match ran the walk (full = %d, walk visited %d)", rm.full, rm.work.NodesVisited)
	}

	eng := engine.New(engine.Config{})
	eng.RegisterStore("auction", xmark.StoreAuction(4))
	r := New(eng, Config{MaxFullFraction: 1})
	defer r.Close()
	sub, err := r.Subscribe("auction", src)
	if err != nil {
		t.Fatal(err)
	}
	recv(t, sub)
	for i := 1; i <= 2; i++ {
		apply(t, eng, "auction", engine.Mutation{
			Op: engine.MutationInsert, Path: fmt.Sprintf("/open_auctions/open_auction[%d]", i),
			XML: `<bidder><increase>1.00</increase></bidder>`,
		})
		if d := recv(t, sub); d.Full {
			t.Fatalf("commit %d fell back to a full run (%s)", i, d.Reason)
		}
	}
	if s := r.Stats(); s.Incremental != 2 || s.RematchFull != 2 {
		t.Fatalf("Incremental = %d, RematchFull = %d, want 2 and 2", s.Incremental, s.RematchFull)
	}
}
