package experiments

import (
	"fmt"
	"runtime"

	"xqp/internal/core"
	"xqp/internal/join"
	"xqp/internal/nok"
	"xqp/internal/storage"
	"xqp/internal/xmark"
)

// batchedQueries is the E19 workload: descendant paths over common tags
// (the navigational regime, where every visit saved matters), a deep
// twig, and an anchored chain that also exercises the batched stream
// builders of the holistic joins.
var batchedQueries = []string{
	`//parlist//text`,
	`//item/name`,
	`/site/regions//item/name`,
	`//open_auction[bidder]/current`,
}

// E19Batched compares interpreted against batch-compiled tree-pattern
// matching on XMark auction documents, single-threaded. The interpreted
// NoK matcher navigates with FirstChild/NextSibling — a FindClose
// (block scans plus a segment-tree walk) per step — while the compiled
// kernel runs the same upward/downward passes as linear scans of the
// parenthesis sequence, exchanging node ids in blocks. For the join
// matchers the batched form builds vertex streams from one interval
// scan instead of one FindClose per element; the stack phases are
// unchanged. Speedup is interpreted/batched wall time, so values < 1
// are slowdowns. Results are checked identical before timing.
func E19Batched(scales []int) *Table {
	t := &Table{
		ID:      "E19",
		Title:   "batched vs interpreted tree-pattern matching (XMark auction, serial)",
		Columns: []string{"scale", "query", "matcher", "interpreted", "batched", "speedup"},
		Notes: []string{
			fmt.Sprintf("GOMAXPROCS=%d NumCPU=%d; speedup = interpreted/batched wall time, both single-threaded", runtime.GOMAXPROCS(0), runtime.NumCPU()),
			"NoK rows replace per-step FindClose navigation with linear parenthesis scans;",
			"TwigStack rows replace per-element FindClose in stream building with one interval scan;",
			"the full-document interval scan only pays off when streams cover most of the document,",
			"so selective twigs show a mild slowdown — the executor never batches a join; only NoK has a batched mode",
		},
	}
	for _, scale := range scales {
		st := xmark.StoreAuction(scale)
		for _, q := range batchedQueries {
			g := core.MustPattern(q)
			root := []storage.NodeRef{st.Root()}

			serialN := MatchNoK(st, g)
			var batchN int
			runBatched := func() {
				refs, err := nok.MatchOutputBatched(st, g, root, nil, nil)
				if err != nil {
					panic(fmt.Sprintf("E19 %s: %v", q, err))
				}
				batchN = len(refs)
			}
			dInterp := timeIt(func() { MatchNoK(st, g) })
			dBatch := timeIt(runBatched)
			if batchN != serialN {
				panic(fmt.Sprintf("E19 %s: batched %d matches, interpreted %d", q, batchN, serialN))
			}
			t.AddRow(scale, q, "NoK", dInterp, dBatch, ratio(dInterp, dBatch))

			serialJ := MatchTwig(st, g)
			var batchJ int
			dJInterp := timeIt(func() { MatchTwig(st, g) })
			dJBatch := timeIt(func() {
				s, err := join.TwigStackBatched(st, g, nil, nil)
				if err != nil {
					panic(fmt.Sprintf("E19 %s: %v", q, err))
				}
				batchJ = len(s)
			})
			if batchJ != serialJ {
				panic(fmt.Sprintf("E19 %s: batched twig %d solutions, interpreted %d", q, batchJ, serialJ))
			}
			t.AddRow(scale, q, "TwigStack", dJInterp, dJBatch, ratio(dJInterp, dJBatch))
		}
	}
	return t
}
