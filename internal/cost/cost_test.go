package cost

import (
	"testing"

	"xqp/internal/core"
	"xqp/internal/exec"
	"xqp/internal/pattern"
	"xqp/internal/stats"
	"xqp/internal/xmark"
)

func graphOf(t testing.TB, src string) *pattern.Graph {
	t.Helper()
	g, err := core.PatternOf(src)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEstimatesPositive(t *testing.T) {
	st := xmark.StoreAuction(2)
	m := NewModel(st)
	e := m.Estimate(graphOf(t, "//item/description"))
	if e.NoK <= 0 || e.Join <= 0 || e.OutputCard <= 0 || e.StreamTotal <= 0 {
		t.Fatalf("degenerate estimate: %s", e)
	}
	if e.String() == "" {
		t.Fatal("String empty")
	}
}

func TestSelectivityDrivesChoice(t *testing.T) {
	st := xmark.StoreAuction(4)
	m := NewModel(st)
	// A very selective pattern (rare tags): joins scan tiny streams and
	// must beat a full-document NoK scan.
	selective := graphOf(t, "//profile/interest")
	if got := m.Choose(selective, true); got == exec.StrategyNoK {
		e := m.Estimate(selective)
		t.Fatalf("selective pattern chose NoK: %s", e)
	}
	// A pattern touching a huge fraction of the document (wildcards)
	// must prefer the single NoK scan.
	broad := graphOf(t, "/site/*/*/*")
	if got := m.Choose(broad, true); got != exec.StrategyNoK {
		e := m.Estimate(broad)
		t.Fatalf("broad pattern chose %v: %s", got, e)
	}
}

func TestChoosePathVsTwig(t *testing.T) {
	st := xmark.StoreAuction(4)
	m := NewModel(st)
	p := graphOf(t, "//profile/interest")
	if got := m.Choose(p, true); got != exec.StrategyPathStack {
		t.Fatalf("path pattern chose %v", got)
	}
	tw := graphOf(t, "//person[profile]/homepage")
	if got := m.Choose(tw, true); got == exec.StrategyPathStack {
		t.Fatalf("branching pattern chose PathStack")
	}
}

func TestChooseRespectsAnchoring(t *testing.T) {
	// The join matchers only run for root-anchored contexts; for any other
	// context the model must never recommend them, however cheap the
	// streams look — otherwise the executor would silently override it.
	st := xmark.StoreAuction(4)
	m := NewModel(st)
	g := graphOf(t, "//profile/interest")
	if got := m.Choose(g, true); got != exec.StrategyPathStack {
		t.Fatalf("anchored selective pattern chose %v, want PathStack", got)
	}
	switch got := m.Choose(g, false); got {
	case exec.StrategyPathStack, exec.StrategyTwigStack:
		t.Fatalf("unanchored context chose join strategy %v", got)
	}
}

func TestChoiceCarriesEstimate(t *testing.T) {
	st := xmark.StoreBib(1)
	m := NewModel(st)
	g := graphOf(t, "/bib/book")
	c := m.Choice(g, true)
	if c.Estimate == nil {
		t.Fatal("Choice dropped the estimate")
	}
	if c.Estimate.NoK <= 0 || c.Estimate.Join <= 0 || c.Estimate.Hybrid <= 0 {
		t.Fatalf("degenerate estimate in choice: %+v", c.Estimate)
	}
	if c.Strategy != chooseFrom(m.Estimate(g), g, true) {
		t.Fatal("Choice strategy disagrees with Choose")
	}
}

func TestNewModelWith(t *testing.T) {
	st := xmark.StoreBib(1)
	syn := stats.Build(st)
	m := NewModelWith(st, syn)
	if m.Synopsis() != syn {
		t.Fatal("synopsis not reused")
	}
}

// TestBatchedVerdictPricesKernelScan pins the NoK mode boundaries. The
// kernel scans the whole context (nodes·bNoK plus batchSetup) whatever
// the pattern, so serially it only wins when the interpreter's own
// estimate is larger. A parallel verdict prices the kernel scan split
// over the workers plus the fan-out overheads against the cheaper
// serial mode, and is always a batched one.
func TestBatchedVerdictPricesKernelScan(t *testing.T) {
	m := NewModel(xmark.StoreAuction(1))
	g := graphOf(t, "//item/name")
	nodes := float64(m.syn.NodeCount())
	kernel := kernelScan(nodes, batchNoKFactor)
	at := func(nok float64, workers int, tu Tuner) exec.Choice {
		return m.ChoiceFor(Estimate{NoK: nok, Join: 1e18, Hybrid: 1e18}, g, false, workers, tu)
	}
	if ch := at(kernel, 1, nil); ch.Strategy != exec.StrategyNoK || ch.Batched || ch.Parallel {
		t.Fatalf("serial estimate at the boundary: %+v", ch)
	}
	if ch := at(kernel+1, 1, nil); !ch.Batched || ch.Parallel {
		t.Fatalf("serial estimate above the boundary: %+v", ch)
	}
	// A fitted kernel factor large enough that four workers repay the
	// fan-out: the parallel kernels beat both serial modes.
	const eff = 4
	slow := stubTuner{nok: 1, join: 1, hyb: 1, bNoK: 100, workers: eff}
	par := nokParallelEff(Estimate{}, nodes, slow.bNoK, eff, eff)
	if serial := kernelScan(nodes, slow.bNoK); par >= serial {
		t.Fatalf("test premise: parallel %.0f not below serial kernel %.0f", par, serial)
	}
	if ch := at(1e12, eff, slow); !ch.Parallel || !ch.Batched {
		t.Fatalf("parallel kernels cheapest: %+v", ch)
	}
	// The interpreter below the parallel price keeps the dispatch serial
	// and interpreted.
	if ch := at(par-1, eff, slow); ch.Parallel || ch.Batched {
		t.Fatalf("interpreter cheapest: %+v", ch)
	}
	if ch := at(1e12, 1, slow); ch.Parallel || !ch.Batched {
		t.Fatalf("one worker: %+v", ch)
	}
	// The joins and the hybrid matcher are never batched, however large
	// their estimates.
	for _, c := range []struct {
		e      Estimate
		rooted bool
	}{
		{Estimate{NoK: 1e9, Join: 1e8, Hybrid: 1e9}, true},
		{Estimate{NoK: 1e9, Join: 1e9, Hybrid: 1e8}, true},
	} {
		ch := m.ChoiceFor(c.e, g, c.rooted, eff, slow)
		if ch.Strategy == exec.StrategyNoK || ch.Batched {
			t.Fatalf("%+v: %v batched=%v", c.e, ch.Strategy, ch.Batched)
		}
	}
}

// TestNonRootDispatchPicksNoK: below the document root the model picks
// NoK whatever the estimates say. Hybrid would probe whole-document
// postings for every context while NoK reads only the contexts'
// subtrees, and the joins cannot run there at all.
func TestNonRootDispatchPicksNoK(t *testing.T) {
	m := NewModel(xmark.StoreAuction(2))
	for _, src := range []string{"//item/name", "//open_auction[bidder]//increase", "description//text"} {
		g := graphOf(t, src)
		for _, e := range []Estimate{
			{NoK: 1e9, Join: 1, Hybrid: 1},
			{NoK: 1e9, Join: 1e9, Hybrid: 1},
			{NoK: 1, Join: 1e9, Hybrid: 1e9},
		} {
			if ch := m.ChoiceFor(e, g, false, 1, nil); ch.Strategy != exec.StrategyNoK {
				t.Errorf("%s %+v: non-root dispatch chose %v, want nok", src, e, ch.Strategy)
			}
		}
		if s := m.Choose(g, false); s != exec.StrategyNoK {
			t.Errorf("%s: Choose below the root = %v, want nok", src, s)
		}
	}
}

// TestBatchedVerdictKeepsChildPathsInterpreted pins the verdict on a
// real synopsis: a rooted child-only path is navigated top-down by the
// interpreter, far cheaper than the kernel's whole-document scan, while
// a descendant pattern pays the interpreter's two global passes and
// batches.
func TestBatchedVerdictKeepsChildPathsInterpreted(t *testing.T) {
	m := NewModel(xmark.StoreAuction(8))
	if ch := m.ChoiceTuned(graphOf(t, "/site/regions/*/item"), false, 0, nil); ch.Strategy != exec.StrategyNoK || ch.Batched {
		t.Fatalf("child path: got %v batched=%v, want interpreted nok", ch.Strategy, ch.Batched)
	}
	if ch := m.ChoiceTuned(graphOf(t, "//*/name"), false, 0, nil); ch.Strategy != exec.StrategyNoK || !ch.Batched {
		t.Fatalf("broad descendant path: got %v batched=%v, want batched nok", ch.Strategy, ch.Batched)
	}
	// A selective root-anchored twig picks a join, which runs unbatched.
	if ch := m.ChoiceTuned(graphOf(t, "//item/name"), true, 0, nil); ch.Strategy != exec.StrategyPathStack || ch.Batched {
		t.Fatalf("selective rooted path: got %v batched=%v, want unbatched pathstack", ch.Strategy, ch.Batched)
	}
}

// stubTuner drives ChoiceTuned with fixed corrections.
type stubTuner struct {
	nok, join, hyb float64
	bNoK           float64
	workers        int
}

func (s stubTuner) Scale(*pattern.Graph) (float64, float64, float64) { return s.nok, s.join, s.hyb }
func (s stubTuner) BatchFactor() float64                             { return s.bNoK }
func (s stubTuner) EffectiveWorkers(int) int                         { return s.workers }

func TestChoiceTunedSteersStrategyKeepsRawEstimate(t *testing.T) {
	st := xmark.StoreAuction(4)
	m := NewModel(st)
	g := graphOf(t, "//profile/interest")
	base := m.ChoiceTuned(g, true, 0, nil)
	if base.Strategy != exec.StrategyPathStack {
		t.Fatalf("untuned selective pattern chose %v", base.Strategy)
	}
	// A tuner that has observed the join estimate to be a huge
	// underestimate must flip the pick away from the joins.
	tuned := m.ChoiceTuned(g, true, 0, stubTuner{nok: 1, join: 1e6, hyb: 1e6, bNoK: batchNoKFactor})
	switch tuned.Strategy {
	case exec.StrategyPathStack, exec.StrategyTwigStack:
		t.Fatalf("tuner correction did not steer the pick (still %v)", tuned.Strategy)
	}
	// The reported estimate stays raw either way: calibration must fit
	// against the static baseline, not its own corrections.
	if *tuned.Estimate != *base.Estimate {
		t.Fatalf("tuned choice reported a scaled estimate: %+v vs %+v", tuned.Estimate, base.Estimate)
	}
}

func TestWithinCostGrowsWithCandidates(t *testing.T) {
	st := xmark.StoreAuction(2)
	m := NewModel(st)
	g := graphOf(t, "//item/description")
	small, large := m.WithinCost(g, 4), m.WithinCost(g, 4000)
	if small <= 0 || large <= small {
		t.Fatalf("WithinCost not monotone: %v vs %v", small, large)
	}
}
