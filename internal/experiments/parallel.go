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

// parallelQueries is the E17 workload: a deep descendant twig, a
// shallow high-fanout path, and a join-friendly chain that also
// exercises the parallel stream scans of the holistic joins.
var parallelQueries = []string{
	`//parlist//text`,
	`//item/name`,
	`/site/regions//item/name`,
}

// E17Parallel compares serial against partitioned tree-pattern matching
// on XMark auction documents. For NoK the serial batch kernel is set
// against the parallel matcher, which runs one kernel per preorder
// range on a bounded pool; for TwigStack the per-vertex stream scans run
// concurrently and the stack merge stays serial. Speedup is
// serial/parallel wall time, so values < 1 are slowdowns.
//
// The cpus column is the honest denominator: goroutines beyond
// runtime.NumCPU() time-slice one core, so on a single-core host the
// parallel rows measure pure partitioning overhead (split + merge +
// dedup) rather than speedup — exactly the regime where the cost
// model's effectiveWorkers bound keeps the Auto chooser serial.
func E17Parallel(scales []int, workers int) *Table {
	t := &Table{
		ID:      "E17",
		Title:   fmt.Sprintf("parallel vs serial tree-pattern matching (XMark auction, %d workers)", workers),
		Columns: []string{"scale", "query", "matcher", "serial", "parallel", "speedup", "parts", "cpus"},
		Notes: []string{
			fmt.Sprintf("GOMAXPROCS=%d NumCPU=%d; speedup = serial/parallel wall time", runtime.GOMAXPROCS(0), runtime.NumCPU()),
			"with fewer CPUs than workers the parallel column prices partitioning overhead, not speedup;",
			"the cost model caps its modeled gain at NumCPU, so Auto never fans out in that regime",
		},
	}
	for _, scale := range scales {
		st := xmark.StoreAuction(scale)
		for _, q := range parallelQueries {
			g := core.MustPattern(q)
			root := []storage.NodeRef{st.Root()}

			serialNoK := func() int {
				refs, err := nok.MatchOutputBatched(st, g, root, nil, nil)
				if err != nil {
					panic(fmt.Sprintf("E17 %s: %v", q, err))
				}
				return len(refs)
			}
			serialN := serialNoK()
			var parN int
			var pr nok.ParallelResult
			run := func() {
				refs, r, err := nok.MatchOutputParallel(st, g, root, workers, nil, nil)
				if err != nil {
					panic(fmt.Sprintf("E17 %s: %v", q, err))
				}
				parN, pr = len(refs), r
			}
			dSerial := timeIt(func() { serialNoK() })
			dPar := timeIt(run)
			if parN != serialN {
				panic(fmt.Sprintf("E17 %s: parallel %d matches, serial %d", q, parN, serialN))
			}
			parts := len(pr.Partitions)
			if !pr.Parallel() {
				panic(fmt.Sprintf("E17 %s: fell back to serial: %s", q, pr.Fallback))
			}
			t.AddRow(scale, q, "NoK kernels", dSerial, dPar, ratio(dSerial, dPar), parts, runtime.NumCPU())

			serialJ := MatchTwig(st, g)
			var parJ, nstreams int
			dJSerial := timeIt(func() { MatchTwig(st, g) })
			dJPar := timeIt(func() {
				streams, ps, _ := join.VertexStreamsParallel(st, g, workers, nil)
				s, _ := join.TwigStackStreamsCounted(st, g, streams, nil, nil)
				parJ = len(s)
				nstreams = len(ps)
			})
			if parJ != serialJ {
				panic(fmt.Sprintf("E17 %s: parallel twig %d solutions, serial %d", q, parJ, serialJ))
			}
			t.AddRow(scale, q, "TwigStack", dJSerial, dJPar, ratio(dJSerial, dJPar), nstreams, runtime.NumCPU())
		}
	}
	return t
}
