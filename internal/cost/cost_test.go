package cost

import (
	"testing"

	"xqp/internal/ast"
	"xqp/internal/exec"
	"xqp/internal/parser"
	"xqp/internal/pattern"
	"xqp/internal/stats"
	"xqp/internal/xmark"
)

func graphOf(t testing.TB, src string) *pattern.Graph {
	t.Helper()
	e, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := pattern.FromPath(e.(*ast.PathExpr))
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

// TestBatchedVerdictPricesKernelScan pins the batched NoK boundary: the
// kernel scans the whole context (nodes·bNoK plus batchSetup) whatever
// the pattern, so it only wins when the interpreter's own estimate is
// larger. With 1000 nodes the serial boundary sits at NoK = 0.4·1000 +
// 512 = 912.
func TestBatchedVerdictPricesKernelScan(t *testing.T) {
	mk := func(nok float64) Estimate { return Estimate{NoK: nok} }
	const nodes = 1000.0
	if batchedVerdict(mk(912), exec.StrategyNoK, false, 1, nodes, batchNoKFactor) {
		t.Fatal("serial estimate at the boundary chose batched")
	}
	if !batchedVerdict(mk(913), exec.StrategyNoK, false, 1, nodes, batchNoKFactor) {
		t.Fatal("serial estimate above the boundary stayed interpreted")
	}
	// Parallel: both sides divide across the workers, the setup does
	// not. With eff=4 the kernel costs 100+512, so NoK must exceed 2448.
	const eff = 4.0
	if batchedVerdict(mk(2448), exec.StrategyNoK, true, eff, nodes, batchNoKFactor) {
		t.Fatal("parallel slice at the boundary chose batched")
	}
	if !batchedVerdict(mk(2449), exec.StrategyNoK, true, eff, nodes, batchNoKFactor) {
		t.Fatal("parallel slice above the boundary stayed interpreted")
	}
	// The joins and the hybrid matcher are never batched, however large
	// their estimates.
	for _, s := range []exec.Strategy{exec.StrategyTwigStack, exec.StrategyPathStack, exec.StrategyHybrid} {
		if batchedVerdict(Estimate{NoK: 1e9, Join: 1e9, Hybrid: 1e9}, s, false, 1, nodes, batchNoKFactor) {
			t.Fatalf("%v chose batched", s)
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
