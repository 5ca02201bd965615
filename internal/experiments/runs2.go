package experiments

import (
	"fmt"
	"strings"

	"xqp"
	"xqp/internal/core"
	"xqp/internal/storage"
	"xqp/internal/xmark"
	"xqp/internal/xmldoc"
)

// E11UpdateLocality measures how much of each encoding an update dirties.
// Paper claim (Section 4.2): the pre-order balanced-parentheses
// clustering makes updates affect only a local sub-string, whereas
// interval encodings renumber every following node.
func E11UpdateLocality(scales []int) *Table {
	t := &Table{ID: "E11", Title: "Update locality: insert one <book> (bib corpus)",
		Columns: []string{"scale", "nodes", "succinct dirty B", "interval dirty B", "interval/succinct", "splice"}}
	frag := xmldoc.MustParse(`<book year="2004"><title>fresh</title><price>10.00</price></book>`)
	for _, s := range scales {
		st := xmark.StoreBib(s)
		first := st.FirstChild(st.DocumentElement())
		var stats storage.UpdateStats
		d := timeIt(func() {
			var err error
			_, stats, err = st.InsertChild(first, frag)
			if err != nil {
				panic(err)
			}
		})
		t.AddRow(s, st.NodeCount(), stats.SuccinctDirtyBytes, stats.IntervalDirtyBytes,
			fmt.Sprintf("%.0fx", float64(stats.IntervalDirtyBytes)/float64(stats.SuccinctDirtyBytes)), d)
	}
	t.Notes = append(t.Notes,
		"dirty bytes = contiguous encoding region an in-place implementation rewrites",
		"splice = wall time of the copy-on-write edit (per-node work follows the edit, but the flat arrays are block-copied; a paged store writes only the dirty region)")
	return t
}

// E12ContentIndex measures value-predicate evaluation with and without a
// content index. Paper claim (Section 4.2): separating content from
// structure lets content-based indexes (B+-tree-like) answer value
// constraints without scanning.
func E12ContentIndex(scale int) *Table {
	t := &Table{ID: "E12", Title: "Content index vs scan for value predicates (bib corpus)",
		Columns: []string{"predicate", "matches", "scan", "index probe", "speedup"}}
	st := xmark.StoreBib(scale)
	lastSym := st.Vocab.Lookup("last")
	idx := storage.BuildContentIndex(st, lastSym)
	// Probe values that certainly occur (plus one that does not).
	lasts := st.TagRefs(lastSym)
	probes := []string{
		st.StringValue(lasts[0]),
		st.StringValue(lasts[len(lasts)/2]),
		"NoSuchName",
	}
	for _, p := range probes {
		var scanRes, idxRes []storage.NodeRef
		dScan := timeIt(func() {
			scanRes = scanRes[:0]
			for _, n := range st.TagRefs(lastSym) {
				if st.StringValue(n) == p {
					scanRes = append(scanRes, n)
				}
			}
		})
		dIdx := timeIt(func() { idxRes = idx.Eq(p) })
		if len(scanRes) != len(idxRes) {
			panic(fmt.Sprintf("index disagrees with scan for %q: %d vs %d", p, len(idxRes), len(scanRes)))
		}
		t.AddRow(fmt.Sprintf("last = %q", p), len(idxRes), dScan, dIdx, ratio(dScan, dIdx))
	}
	// Range probe.
	var rangeRes []storage.NodeRef
	dRange := timeIt(func() { rangeRes = idx.Range("Last1", "Last3") })
	t.AddRow(`"Last1" <= last < "Last3"`, len(rangeRes), "-", dRange, "-")
	return t
}

// E13HybridStrategy compares the Section 4.2 hybrid (NoK fragments +
// structural joins) against pure NoK and pure TwigStack across pattern
// shapes. Paper claim: the hybrid combines the advantages of both.
func E13HybridStrategy() *Table {
	t := &Table{ID: "E13", Title: "Hybrid NoK-fragments + joins (auction scale 6)",
		Columns: []string{"query", "fragments", "links", "NoK", "TwigStack", "hybrid"}}
	st := xmark.StoreAuction(6)
	for _, q := range []string{
		"//item/name",
		"//item//text",
		"//open_auction[bidder]//increase",
		"/site//person[profile/interest]",
		"//listitem//parlist//text",
	} {
		g := core.MustPattern(q)
		p := g.Partition()
		dNok := timeIt(func() { MatchNoK(st, g) })
		dTwig := timeIt(func() { MatchTwig(st, g) })
		dHyb := timeIt(func() { MatchHybrid(st, g) })
		t.AddRow(q, p.FragmentCount(), p.JoinCount(), dNok, dTwig, dHyb)
	}
	return t
}

// E14AnalyzerPruning measures the static analyzer's empty-subplan
// pruning: a query with a statically-empty branch (a path the synopsis
// proves unmatchable) pays full rewrite+execution cost without the
// analyzer, and collapses to a constant with it. Claim: synopsis-backed
// compile-time pruning removes entire subplans that every runtime
// strategy would otherwise evaluate against the document.
func E14AnalyzerPruning(scale int) *Table {
	t := &Table{ID: "E14", Title: "Static analyzer pruning (auction corpus)",
		Columns: []string{"query", "analyzer", "plan ops", "pruned", "compile", "exec"}}
	db := xqp.FromStore(xmark.StoreAuction(scale))
	queries := []string{
		`(/site/regions/africa/item/name, /site/nonexistent//item/name)`,
		`for $i in /site/regions/africa/item
		 let $dead := /site/closed_auctions/missing//seller
		 return ($i/name, $dead)`,
		`//person[profile/nosuchchild]/name`,
	}
	for _, src := range queries {
		for _, ablate := range []bool{true, false} {
			opts := xqp.Options{DisableAnalyzer: ablate}
			var q *xqp.Query
			var err error
			dCompile := timeIt(func() {
				q, err = db.Compile(src, opts)
			})
			if err != nil {
				panic(err)
			}
			ops := core.Count(q.Plan, func(core.Op) bool { return true })
			dExec := timeIt(func() {
				if _, err := db.Run(q); err != nil {
					panic(err)
				}
			})
			name := "off"
			if !ablate {
				name = "on"
			}
			t.AddRow(firstLine(src), name, ops, q.Pruned, dCompile, dExec)
		}
	}
	return t
}

// E16EstimateAccuracy compares the cost model's estimated output
// cardinalities against the actual match counts observed by the
// execution-trace layer (Options.Trace), over the auction corpus. The
// error metric is the q-error max(est/act, act/est), the standard
// factor-off measure for cardinality estimators; estimates and actuals
// come from the same run, read out of the per-τ strategy records.
// Claim: the synopsis-driven estimates stay within a small constant
// factor on path patterns, which is what makes the strategy choice in
// E4 reliable.
func E16EstimateAccuracy(scale int) *Table {
	t := &Table{ID: "E16", Title: fmt.Sprintf("Estimated vs actual cardinality/work (auction scale %d)", scale),
		Columns: []string{"query", "strategy", "est card", "actual", "q-error", "nodes", "stream", "sols"}}
	db := xqp.FromStore(xmark.StoreAuction(scale))
	queries := []string{
		"/site/regions/*/item/name",
		"//profile/interest",
		"//item[location][quantity]/name",
		"//open_auction[bidder]//increase",
		"//person/name",
		"//listitem//text",
	}
	var qerrs []float64
	for _, q := range queries {
		res, err := db.QueryWith(q, xqp.Options{Trace: true})
		if err != nil {
			panic(err)
		}
		var rec *xqp.TraceStrategyRecord
		res.Trace.Visit(func(s *xqp.TraceSpan) {
			for _, r := range s.Strategies {
				if rec == nil {
					rec = r
				}
			}
		})
		if rec == nil || rec.Estimate == nil {
			panic("E16: trace carried no strategy record for " + q)
		}
		qe := qerror(rec.Estimate.OutputCard, float64(rec.Matches))
		qerrs = append(qerrs, qe)
		t.AddRow(q, rec.Executed.String(),
			fmt.Sprintf("%.0f", rec.Estimate.OutputCard), rec.Matches,
			fmt.Sprintf("%.2f", qe),
			rec.Actual.NodesVisited, rec.Actual.StreamElems, rec.Actual.Solutions)
	}
	var sum, max float64
	for _, qe := range qerrs {
		sum += qe
		if qe > max {
			max = qe
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("q-error = max(est/act, act/est); mean %.2f, max %.2f over %d queries",
			sum/float64(len(qerrs)), max, len(qerrs)))
	return t
}

// qerror is the symmetric factor-off error, ≥ 1, guarding zeros.
func qerror(est, act float64) float64 {
	if est < 1 {
		est = 1
	}
	if act < 1 {
		act = 1
	}
	if est > act {
		return est / act
	}
	return act / est
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " …"
	}
	return s
}

// VerifyAll cross-checks every matching strategy on every experiment
// query corpus; used by the harness self-test.
func VerifyAll() error {
	st := xmark.StoreAuction(2)
	queries := []string{
		"/site/regions/*/item/name", "//profile/interest", "//item[location][quantity]/name",
		"//open_auction[bidder]//increase", "//listitem//text",
	}
	for _, q := range queries {
		g := core.MustPattern(q)
		nok := MatchNoK(st, g)
		if tw := MatchTwig(st, g); tw != nok {
			return fmt.Errorf("%s: TwigStack %d != NoK %d", q, tw, nok)
		}
		if hy := MatchHybrid(st, g); hy != nok {
			return fmt.Errorf("%s: hybrid %d != NoK %d", q, hy, nok)
		}
		if nv := MatchNaive(st, g); nv != nok {
			return fmt.Errorf("%s: naive %d != NoK %d", q, nv, nok)
		}
	}
	return nil
}
