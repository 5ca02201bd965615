package experiments

import (
	"fmt"

	"xqp"
	"xqp/internal/storage"
	"xqp/internal/xmark"
)

// calibrationCorpus is the E20 workload: per-family path queries that
// compile to a single τ dispatch each, mixing regimes where the static
// constants are trustworthy (plain anchored paths) with the ones they
// misprice — value and structural predicates whose selectivity the
// synopsis cannot see, descendant chains over recursive tags, and
// wildcard fan-outs.
var calibrationCorpus = []struct {
	family  string
	queries []string
}{
	{"bib", []string{
		`/bib/book/title`,
		`//book/author/last`,
		`/bib/book[price < 50]/title`,
		`//book[author/last = "Last1"]/title`,
		`/bib/book[editor]/title`,
		`//editor/affiliation`,
		`/bib/book/*`,
	}},
	{"auction", []string{
		`/site/regions//item/name`,
		`//item/name`,
		`//parlist//text`,
		`//item[location = "asia"]/name`,
		`/site/people/person[profile]/name`,
		`//person[homepage]/emailaddress`,
		`//open_auction[bidder]/current`,
		`/site/regions/*/item/quantity`,
	}},
	{"deep", []string{
		`//section/title`,
		`//section/section//title`,
		`/doc/section//title`,
		`//section[@level = "3"]//title`,
	}},
	{"wide", []string{
		`/list/entry`,
		`//entry/@n`,
		`/list/entry[@n = "7"]`,
	}},
}

// calibrationTrainStrategies is the forced sweep that populates every
// per-shape arm before the chooser comparison.
var calibrationTrainStrategies = []xqp.Strategy{
	xqp.NoK, xqp.TwigStack, xqp.PathStack, xqp.Naive, xqp.Hybrid,
}

func calibrationStore(family string, scale int) *storage.Store {
	switch family {
	case "bib":
		return xmark.StoreBib(2 * scale)
	case "auction":
		return xmark.StoreAuction(2 * scale)
	case "deep":
		return xmark.StoreDeep(4*scale, 12)
	case "wide":
		return xmark.StoreWide(200 * scale)
	default:
		panic(fmt.Sprintf("E20: unknown family %q", family))
	}
}

// firstChosen walks a trace for the first τ dispatch record and returns
// the strategy the chooser picked.
func firstChosen(sp *xqp.TraceSpan) (xqp.Strategy, bool) {
	if sp == nil {
		return xqp.Auto, false
	}
	if len(sp.Strategies) > 0 {
		return sp.Strategies[0].Chosen, true
	}
	for _, c := range sp.Children {
		if s, ok := firstChosen(c); ok {
			return s, true
		}
	}
	return xqp.Auto, false
}

// E20Calibration closes the cost-model loop end to end and measures
// what calibration buys: per XMark family, a forced-strategy sweep
// trains the store's calibrator (every strategy runs every query, so
// each pattern shape has a fully populated arm table), then the static
// chooser and the calibrated chooser each re-run the corpus from the
// same trained snapshot and are charged regret — dispatches whose
// actual cost measurably exceeds the best observed strategy for that
// shape. Regret is computed from deterministic work-unit tallies
// (visited nodes, stream elements, solutions), never wall time, so the
// comparison is stable on a loaded single-core CI host. Every run —
// training, static, calibrated — is checked byte-identical to the
// serial naive oracle before it counts.
func E20Calibration(scale int) *Table {
	t := &Table{
		ID:      "E20",
		Title:   "chooser regret: static constants vs trace-fed calibration (XMark families)",
		Columns: []string{"family", "queries", "observed", "regret static", "regret calibrated", "calibrated wins"},
		Notes: []string{
			"regret = dispatches whose actual cost (work-unit tallies, not wall time) exceeds",
			"the best observed strategy for that pattern shape by more than the near-tie slack;",
			"both choosers are charged against the same trained calibration snapshot,",
			"and every result is verified byte-identical to the serial naive oracle",
		},
	}
	for _, fam := range calibrationCorpus {
		db := xqp.FromStore(calibrationStore(fam.family, scale))

		// Oracle results and the static chooser's picks, before any
		// record reaches the calibrator.
		oracle := make(map[string]string, len(fam.queries))
		staticPick := make(map[string]xqp.Strategy, len(fam.queries))
		for _, q := range fam.queries {
			res, err := db.QueryWith(q, xqp.Options{Strategy: xqp.Naive})
			if err != nil {
				panic(fmt.Sprintf("E20 %s %s: oracle: %v", fam.family, q, err))
			}
			oracle[q] = res.XML()
			res, err = db.QueryWith(q, xqp.Options{Trace: true})
			if err != nil {
				panic(fmt.Sprintf("E20 %s %s: static choice: %v", fam.family, q, err))
			}
			pick, ok := firstChosen(res.Trace)
			if !ok {
				panic(fmt.Sprintf("E20 %s %s: no dispatch in trace", fam.family, q))
			}
			staticPick[q] = pick
		}

		check := func(mode, q string, opts xqp.Options) {
			res, err := db.QueryWith(q, opts)
			if err != nil {
				panic(fmt.Sprintf("E20 %s %s [%s]: %v", fam.family, q, mode, err))
			}
			if got := res.XML(); got != oracle[q] {
				panic(fmt.Sprintf("E20 %s %s [%s]: diverged from naive oracle:\n%s\nvs\n%s", fam.family, q, mode, got, oracle[q]))
			}
		}

		// Train: every strategy runs every query with recording on.
		// Three passes, because an arm below the calibrator's
		// observation floor neither tunes the chooser nor counts as a
		// beaten alternative for regret.
		for pass := 0; pass < 3; pass++ {
			for _, s := range calibrationTrainStrategies {
				for _, q := range fam.queries {
					check("train/"+s.String(), q, xqp.Options{Strategy: s, Calibrate: true})
				}
			}
		}
		cal := db.Calibrator()
		snapshot := cal.Snapshot()
		observed, baseRegret := cal.Stats()

		// Static chooser, charged against the trained arms: replay its
		// pre-training picks as forced strategies with recording on.
		for _, q := range fam.queries {
			check("static", q, xqp.Options{Strategy: staticPick[q], Calibrate: true})
		}
		_, r := cal.Stats()
		regretStatic := r - baseRegret

		// Calibrated chooser from the same snapshot.
		if err := cal.Restore(snapshot); err != nil {
			panic(fmt.Sprintf("E20 %s: restore: %v", fam.family, err))
		}
		for _, q := range fam.queries {
			check("calibrated", q, xqp.Options{Calibrate: true})
		}
		_, r = cal.Stats()
		regretTuned := r - baseRegret

		verdict := "tie"
		if regretTuned < regretStatic {
			verdict = "yes"
		} else if regretTuned > regretStatic {
			verdict = "no"
		}
		t.AddRow(fam.family, len(fam.queries), observed, regretStatic, regretTuned, verdict)
	}
	return t
}
