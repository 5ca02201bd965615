package engine_test

import (
	"context"
	"testing"

	"xqp"
	"xqp/internal/engine"
	"xqp/internal/exec"
	"xqp/internal/xmark"
)

// TestDefaultVerdictsOnWorkloadQueries pins what the default (auto)
// strategy executes for every query of the end-to-end benchmark
// workloads, at the scale each workload serves it:
//   - rooted child-only paths run the interpreted NoK matcher, which
//     navigates top-down instead of scanning the document;
//   - root-anchored descendant patterns run a structural join
//     (TwigStack or PathStack, or the hybrid matcher where the model
//     prices its fragment probes lower), never on batched streams;
//   - no dispatch falls back from the strategy the model chose.
//
// Each query runs through the engine and through the facade
// (xqp.Database), which share one prepare-and-bind path, so both must
// execute the same strategy. Calibration is off in both, so the
// verdicts are the static model's.
func TestDefaultVerdictsOnWorkloadQueries(t *testing.T) {
	const (
		nok  = exec.StrategyNoK
		twig = exec.StrategyTwigStack
		path = exec.StrategyPathStack
		hyb  = exec.StrategyHybrid
	)
	type verdict struct {
		q    string
		want exec.Strategy
	}
	churn := func(item, auction exec.Strategy) []verdict {
		return []verdict{
			{`/site/people/person[profile]/name`, nok},
			{`//person[homepage]/emailaddress`, twig},
			{`//item[location = "asia"]/name`, item},
			{`count(/site/regions/*/item/quantity)`, nok},
			{`//open_auction[bidder]/current`, hyb},
			{`for $a in //open_auction where $a/initial > 90 return $a/current`, path},
			{`count(//listitem//parlist/listitem/text)`, path},
			{`//item[@id = "item_asia_3"]/name`, auction},
		}
	}
	for _, w := range []struct {
		name  string
		scale int
		qs    []verdict
	}{
		{"twig_scan", 16, []verdict{
			{`//open_auction[bidder][initial]/current`, twig},
			{`//person[phone]/name`, twig},
			{`//item[payment]/name`, twig},
			{`//person//name`, path},
			{`count(//item)`, path},
			{`for $a in //open_auction where $a/initial > 95 return $a/current`, path},
		}},
		{"plan_churn", 1, churn(hyb, hyb)},
		{"plan_churn", 2, churn(twig, twig)},
		{"bulk_result", 8, []verdict{
			{`/site/regions/*/item`, nok},
			{`/site/people/person`, nok},
			{`/site/open_auctions/open_auction`, nok},
		}},
		{"bid_stream", 4, []verdict{
			{`//open_auction[bidder][initial]/current`, hyb},
			{`//person//name`, path},
		}},
		{"routed_open", 16, []verdict{
			{`/site/people/person[@id = "person3"]/name`, nok},
			{`//item[@id = "item_asia_2"]/name`, twig},
			{`/site/open_auctions/open_auction[@id = "open_auction5"]/current`, nok},
			{`count(//bidder)`, path},
		}},
	} {
		st := xmark.StoreAuction(w.scale)
		e := engine.New(engine.Config{DisableCalibration: true})
		e.RegisterStore("auction.xml", st)
		db := xqp.FromStore(st)
		for _, v := range w.qs {
			res, err := e.Query(context.Background(), "auction.xml", v.q, engine.QueryOptions{Trace: true})
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, v.q, err)
			}
			fres, err := db.QueryWith(v.q, xqp.Options{Trace: true})
			if err != nil {
				t.Fatalf("facade %s %s: %v", w.name, v.q, err)
			}
			for _, run := range []struct {
				path  string
				trace *exec.Span
			}{{"engine", res.Trace}, {"facade", fres.Trace}} {
				var recs []*exec.StrategyRecord
				run.trace.Visit(func(s *exec.Span) { recs = append(recs, s.Strategies...) })
				if len(recs) != 1 {
					t.Fatalf("%s %s %s: %d τ dispatches, want 1", run.path, w.name, v.q, len(recs))
				}
				r := recs[0]
				if r.Executed != v.want || r.Fallback || r.Batched {
					t.Errorf("%s %s@%d %s: executed %v (chosen %v, fallback %v, batched %v), want interpreted %v",
						run.path, w.name, w.scale, v.q, r.Executed, r.Chosen, r.Fallback, r.Batched, v.want)
				}
			}
		}
	}
}
