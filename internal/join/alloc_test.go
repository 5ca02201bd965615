package join

import (
	"testing"

	"xqp/internal/tally"
	"xqp/internal/xmark"
)

// TestJoinAllocationsPerSolution guards the joins' allocation diet:
// path solutions live in one flat table per leaf, the merge index is
// keyed by a hash of the shared columns and presized streams do not
// regrow, so a query allocates far fewer objects than it materializes
// solutions. A per-solution make (or a string key per row) puts
// allocations at or above the solution count.
func TestJoinAllocationsPerSolution(t *testing.T) {
	st := xmark.StoreAuction(8)
	for _, tc := range []struct {
		src  string
		path bool
	}{
		{src: `//open_auction[bidder][initial]/current`},
		{src: `//person[phone]/name`},
		{src: `//item[payment]/name`},
		{src: `//person//name`, path: true},
	} {
		g := graphOf(t, tc.src)
		match := func(c *tally.Counters) {
			var err error
			if tc.path {
				_, err = PathStackCounted(st, g, nil, c)
			} else {
				_, err = TwigStackCounted(st, g, nil, c)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		var c tally.Counters
		match(&c)
		allocs := testing.AllocsPerRun(5, func() { match(nil) })
		t.Logf("%s: %.0f allocs, %d solutions, %d stream elems", tc.src, allocs, c.Solutions, c.StreamElems)
		if c.Solutions < 100 {
			t.Fatalf("%s: %d solutions, too few to measure against", tc.src, c.Solutions)
		}
		if allocs*2 > float64(c.Solutions) {
			t.Errorf("%s: %.0f allocations for %d solutions, want under half", tc.src, allocs, c.Solutions)
		}
	}
}
