package experiments

import (
	"fmt"
	"strings"
	"time"

	"xqp"
	"xqp/internal/ast"
	"xqp/internal/core"
	"xqp/internal/cost"
	"xqp/internal/exec"
	"xqp/internal/join"
	"xqp/internal/naive"
	"xqp/internal/nok"
	"xqp/internal/parser"
	"xqp/internal/pattern"
	"xqp/internal/rewrite"
	"xqp/internal/storage"
	"xqp/internal/stream"
	"xqp/internal/value"
	"xqp/internal/xmark"
	"xqp/internal/xmldoc"
)

// MatchNoK runs the NoK matcher from the document root.
func MatchNoK(st *storage.Store, g *pattern.Graph) int {
	refs, err := nok.MatchOutput(st, g, []storage.NodeRef{st.Root()})
	if err != nil {
		panic(err)
	}
	return len(refs)
}

// MatchTwig runs TwigStack.
func MatchTwig(st *storage.Store, g *pattern.Graph) int {
	return len(join.TwigStack(st, g))
}

// MatchPathStack runs PathStack (panics on branching patterns).
func MatchPathStack(st *storage.Store, g *pattern.Graph) int {
	return len(join.PathStack(st, g))
}

// MatchNaive runs the naive navigational baseline.
func MatchNaive(st *storage.Store, g *pattern.Graph) int {
	return len(naive.MatchOutput(st, g, []storage.NodeRef{st.Root()}))
}

// MatchHybrid runs the NoK-fragment + structural-join strategy.
func MatchHybrid(st *storage.Store, g *pattern.Graph) int {
	refs, err := nok.MatchHybrid(st, g, []storage.NodeRef{st.Root()})
	if err != nil {
		panic(err)
	}
	return len(refs)
}

// MatchBinaryJoin evaluates a non-branching pattern by a chain of binary
// Stack-Tree structural joins (the pre-holistic baseline).
func MatchBinaryJoin(st *storage.Store, g *pattern.Graph) int {
	streams := []join.Stream{join.RootStream(st)}
	var rels []pattern.Rel
	v := pattern.VertexID(0)
	for len(g.Children[v]) > 0 {
		e := g.Children[v][0]
		rels = append(rels, e.Rel)
		streams = append(streams, join.VertexStream(st, g.Vertices[e.To]))
		v = e.To
	}
	return len(join.PathJoin(streams, rels))
}

// T1Operators exercises every operator of the paper's Table 1 and
// reports its throughput (demonstrating the full algebra is implemented).
func T1Operators() *Table {
	t := &Table{ID: "T1", Title: "Table 1 logical operators (per-call latency, bib scale 10)",
		Columns: []string{"operator", "signature", "latency", "output"}}
	st := xmark.StoreBib(10)
	books := refsToSeq(st, st.ElementRefs("book"))
	prices := refsToSeq(st, st.ElementRefs("price"))
	lasts := refsToSeq(st, st.ElementRefs("last"))
	mixed := append(append(value.Sequence{}, books...), prices...)

	var n int
	d := timeIt(func() { n = len(core.SelectTag(mixed, "book")) })
	t.AddRow("σs", "List → List", d, n)

	d = timeIt(func() { n = len(core.SelectValue(prices, value.CmpLt, value.Int(60))) })
	t.AddRow("σv", "List → List", d, n)

	d = timeIt(func() {
		out, err := join.StructuralJoin(books, lasts, pattern.RelDescendant)
		if err != nil {
			panic(err)
		}
		n = len(out)
	})
	t.AddRow("⋈s", "List × List → List", d, n)

	d = timeIt(func() {
		out, err := core.ValueJoin(prices, prices, value.CmpEq)
		if err != nil {
			panic(err)
		}
		n = len(out)
	})
	t.AddRow("⋈v", "List × List → List", d, n)

	d = timeIt(func() {
		out, err := core.NavigateStep(books, ast.AxisChild, ast.NodeTest{Kind: ast.TestName, Name: "author"})
		if err != nil {
			panic(err)
		}
		n = len(out)
	})
	t.AddRow("πs", "List → NestedList", d, n)

	g := core.MustPattern("//book[price]/author/last")
	d = timeIt(func() {
		nl, err := nok.MatchNested(st, g, []storage.NodeRef{st.Root()})
		if err != nil {
			panic(err)
		}
		n = nl.Size()
	})
	t.AddRow("τ", "Tree × PatternGraph → NestedList", d, n)

	schema := &core.SchemaTree{Root: &core.SchemaNode{
		Kind: core.SchemaElement, Name: "out",
		Children: []*core.SchemaNode{{Kind: core.SchemaPlaceholder, Expr: &core.ConstOp{Seq: books[:5]}}},
	}}
	d = timeIt(func() {
		doc, err := core.BuildTree(schema, func(op core.Op) (value.Sequence, error) {
			return op.(*core.ConstOp).Seq, nil
		})
		if err != nil {
			panic(err)
		}
		n = len(doc.Nodes)
	})
	t.AddRow("γ", "NestedList × SchemaTree → Tree", d, n)
	return t
}

func refsToSeq(st *storage.Store, refs []storage.NodeRef) value.Sequence {
	out := make(value.Sequence, len(refs))
	for i, r := range refs {
		out[i] = value.Node{Store: st, Ref: r}
	}
	return out
}

// E1StorageSize compares the succinct scheme against the DOM arena, the
// raw XML text, and an interval-encoded relation (bytes per node).
// Paper claim: succinct structure ≪ interval relation < DOM.
func E1StorageSize(scales []int) *Table {
	t := &Table{ID: "E1", Title: "Storage size (auction corpus)",
		Columns: []string{"scale", "nodes", "xml B/node", "dom B/node", "interval B/node", "succinct B/node", "structure B/node"}}
	for _, s := range scales {
		doc := xmark.Auction(s)
		xml := doc.XMLString(doc.Root())
		st := storage.FromDoc(doc)
		nodes := st.NodeCount()
		structure, tags, content := st.SizeBytes()
		succinct := structure + tags + content
		// Interval-encoded relation: (start, end, level, tag) int32 each
		// plus content and the shared vocabulary.
		interval := nodes*16 + content + st.Vocab.SizeBytes()
		per := func(b int) float64 { return float64(b) / float64(nodes) }
		t.AddRow(s, nodes, per(len(xml)), per(doc.SizeBytes()), per(interval), per(succinct), per(structure+tags))
	}
	t.Notes = append(t.Notes, "structure column = parentheses + tag ids only (content store excluded)")
	return t
}

// E2Scaling measures path-query latency against document size for the
// four strategies. Paper claim: NoK scales linearly and beats both naive
// navigation and join-based plans on low-selectivity paths.
func E2Scaling(scales []int) *Table {
	t := &Table{ID: "E2", Title: "Path query vs document size: /site/regions/*/item/name",
		Columns: []string{"scale", "elements", "results", "NoK", "TwigStack", "PathStack", "naive", "naive/NoK"}}
	for _, s := range scales {
		st := xmark.StoreAuction(s)
		g := core.MustPattern("/site/regions/*/item/name")
		res := MatchNoK(st, g)
		dNok := timeIt(func() { MatchNoK(st, g) })
		dTwig := timeIt(func() { MatchTwig(st, g) })
		dPath := timeIt(func() { MatchPathStack(st, g) })
		dNaive := timeIt(func() { MatchNaive(st, g) })
		t.AddRow(s, stElemCount(st), res, dNok, dTwig, dPath, dNaive, ratio(dNaive, dNok))
	}
	return t
}

func stElemCount(st *storage.Store) int {
	n := 0
	for i := 0; i < st.NodeCount(); i++ {
		if st.Kind(storage.NodeRef(i)) == xmldoc.KindElement {
			n++
		}
	}
	return n
}

// E3PathLength measures latency against the number of location steps.
// Paper claim: join-based cost grows with the number of structural joins;
// NoK's single scan is flat in the path length.
func E3PathLength(maxSteps int) *Table {
	t := &Table{ID: "E3", Title: "Latency vs path length (deep corpus, /doc/section^k)",
		Columns: []string{"steps", "joins", "results", "NoK", "PathStack", "binary-join", "binary/NoK"}}
	st := xmark.StoreDeep(400, maxSteps+2)
	for k := 1; k <= maxSteps; k++ {
		// One section per chain matches at each depth: the result size
		// stays constant while the number of joins grows with k.
		q := "/doc" + strings.Repeat("/section", k)
		g := core.MustPattern(q)
		res := MatchNoK(st, g)
		dNok := timeIt(func() { MatchNoK(st, g) })
		dPath := timeIt(func() { MatchPathStack(st, g) })
		dBin := timeIt(func() { MatchBinaryJoin(st, g) })
		t.AddRow(k+1, k, res, dNok, dPath, dBin, ratio(dBin, dNok))
	}
	return t
}

// E4Selectivity sweeps query selectivity and checks the cost model's
// choice. Paper claim: join-based plans win on highly selective patterns
// (tiny tag streams), navigation wins when streams approach document
// size; the crossover is what the cost model must find.
func E4Selectivity() *Table {
	t := &Table{ID: "E4", Title: "Selectivity crossover (auction scale 6)",
		Columns: []string{"query", "stream/doc", "NoK", "TwigStack", "hybrid", "winner", "model", "agree"}}
	st := xmark.StoreAuction(6)
	model := cost.NewModel(st)
	queries := []string{
		"//profile/interest",
		"//person/homepage",
		"//open_auction/bidder/increase",
		"//item/incategory",
		"//listitem/text",
		"//item/description",
		"/site/*/*",
		"//*",
	}
	for _, q := range queries {
		g := core.MustPattern(q)
		est := model.Estimate(g)
		frac := est.StreamTotal / float64(model.Synopsis().NodeCount())
		dNok := timeIt(func() { MatchNoK(st, g) })
		dTwig := timeIt(func() { MatchTwig(st, g) })
		dHyb := timeIt(func() { MatchHybrid(st, g) })
		winner := "NoK"
		if dTwig < dNok {
			winner = "join"
		}
		choice := "NoK"
		if c := model.Choose(g, true); c != exec.StrategyNoK {
			choice = "join"
		}
		agree := "yes"
		if winner != choice {
			agree = "NO"
		}
		t.AddRow(q, fmt.Sprintf("%.3f", frac), dNok, dTwig, dHyb, winner, choice, agree)
	}
	return t
}

// E5Twig sweeps the branching factor of twig patterns. Paper claim: the
// holistic twig join pays per-branch merge cost, while NoK's bitmask scan
// grows only marginally with pattern size.
func E5Twig() *Table {
	t := &Table{ID: "E5", Title: "Twig branching (auction scale 6, //item[...]* /name)",
		Columns: []string{"branches", "vertices", "results", "NoK", "TwigStack", "hybrid", "naive", "twig/hybrid"}}
	st := xmark.StoreAuction(6)
	preds := []string{"[location]", "[quantity]", "[payment]", "[incategory]"}
	for k := 0; k <= len(preds); k++ {
		q := "//item" + strings.Join(preds[:k], "") + "/name"
		g := core.MustPattern(q)
		res := MatchNoK(st, g)
		dNok := timeIt(func() { MatchNoK(st, g) })
		dTwig := timeIt(func() { MatchTwig(st, g) })
		dHyb := timeIt(func() { MatchHybrid(st, g) })
		dNaive := timeIt(func() { MatchNaive(st, g) })
		t.AddRow(k, g.VertexCount(), res, dNok, dTwig, dHyb, dNaive, ratio(dTwig, dHyb))
	}
	return t
}

// E6Exponential reproduces the worst-case exponential behaviour of pure
// pipelined evaluation (Gottlob et al.): /r/a (/b/..)^n /b duplicates
// context nodes 3^n-fold without inter-step duplicate elimination, while
// the algebraic evaluation with document-order dedup stays linear.
func E6Exponential(maxN int) *Table {
	t := &Table{ID: "E6", Title: "Pipelined blow-up: /r/a(/b/..)^n/b on 3 children",
		Columns: []string{"n", "pipelined results", "algebraic results", "pipelined", "algebraic", "blowup"}}
	st := storage.MustLoad(`<r><a><b/><b/><b/></a></r>`)
	for n := 1; n <= maxN; n++ {
		src := "/r/a" + strings.Repeat("/b/..", n) + "/b"
		e, err := parser.Parse(src)
		if err != nil {
			panic(err)
		}
		plan, err := core.Translate(e)
		if err != nil {
			panic(err)
		}
		pipe := exec.New(st, exec.Options{NoStepDedup: true})
		alg := exec.New(st, exec.Options{})
		var pipeN, algN int
		dPipe := timeIt(func() {
			out, err := pipe.Eval(plan, exec.Root())
			if err != nil {
				panic(err)
			}
			pipeN = len(out)
		})
		dAlg := timeIt(func() {
			out, err := alg.Eval(plan, exec.Root())
			if err != nil {
				panic(err)
			}
			algN = len(out)
		})
		t.AddRow(n, pipeN, algN, dPipe, dAlg, ratio(dPipe, dAlg))
	}
	t.Notes = append(t.Notes, "pipelined = no duplicate elimination between steps (worst-case of [Gottlob et al. 2002])")
	return t
}

// E7RewriteAblation measures the effect of each rewrite rule on the
// paper's Fig. 1-style query. Paper claim: fusing πs-chains into τ and
// pushing predicates into the pattern removes structural joins and
// intermediate lists from the plan.
func E7RewriteAblation(scale int) *Table {
	t := &Table{ID: "E7", Title: "Rewrite ablation (Fig. 1 query, bib corpus)",
		Columns: []string{"rules", "πs-chains", "τ ops", "preds pushed", "latency"}}
	db := xqp.FromStore(xmark.StoreBib(scale))
	src := `for $b in /bib/book
	        where $b/price < 60
	        return <result>{$b/title}{$b/author}</result>`
	type variant struct {
		name string
		opts xqp.Options
	}
	fusionOnly := xqp.Options{}
	fusionOnly.Rewrites = &rewriteOptsFusionOnly
	all := xqp.Options{}
	variants := []variant{
		{"none", xqp.Options{DisableRewrites: true}},
		{"fusion", fusionOnly},
		{"fusion+pushdown+fold", all},
	}
	for _, v := range variants {
		q, err := xqp.Compile(src, v.opts)
		if err != nil {
			panic(err)
		}
		paths := core.Count(q.Plan, func(o core.Op) bool { _, ok := o.(*core.PathOp); return ok })
		tpms := core.Count(q.Plan, func(o core.Op) bool { _, ok := o.(*core.TPMOp); return ok })
		d := timeIt(func() {
			if _, err := db.Run(q); err != nil {
				panic(err)
			}
		})
		t.AddRow(v.name, paths, tpms, q.RewriteStats.PredsPushed, d)
	}
	return t
}

// E8Streaming measures load throughput: the pre-order storage layout
// coincides with the streaming arrival order, so the succinct store loads
// in one pass. Paper claim (Section 4.2): the same layout serves the
// streaming context.
func E8Streaming(scale int) *Table {
	t := &Table{ID: "E8", Title: "Streaming load throughput (auction corpus)",
		Columns: []string{"loader", "input MB", "time", "MB/s"}}
	doc := xmark.Auction(scale)
	xml := doc.XMLString(doc.Root())
	mb := float64(len(xml)) / (1 << 20)
	dStream := timeIt(func() {
		if _, err := storage.LoadString(xml); err != nil {
			panic(err)
		}
	})
	dDom := timeIt(func() {
		d, err := xmldoc.ParseString(xml)
		if err != nil {
			panic(err)
		}
		storage.FromDoc(d)
	})
	t.AddRow("stream (one pass)", fmt.Sprintf("%.2f", mb), dStream, fmt.Sprintf("%.1f", mb/dStream.Seconds()))
	t.AddRow("DOM then store", fmt.Sprintf("%.2f", mb), dDom, fmt.Sprintf("%.1f", mb/dDom.Seconds()))
	// Streaming path evaluation: answer the query during the single pass,
	// never materializing a store (Section 4.2's streaming claim).
	g := core.MustPattern("//item/name")
	dQuery := timeIt(func() {
		if _, err := stream.Count(strings.NewReader(xml), g); err != nil {
			panic(err)
		}
	})
	t.AddRow("streamed query //item/name (no store)", fmt.Sprintf("%.2f", mb), dQuery, fmt.Sprintf("%.1f", mb/dQuery.Seconds()))
	return t
}

// E9PageTouches counts distinct storage pages touched per strategy,
// the paper's I/O cost proxy. Paper claim: NoK touches contiguous
// structure pages once; join plans touch fewer pages on selective
// queries but scattered ones.
func E9PageTouches(scale int) *Table {
	t := &Table{ID: "E9", Title: "Distinct pages touched (auction corpus, 4KiB pages)",
		Columns: []string{"query", "strategy", "pages", "touches"}}
	st := xmark.StoreAuction(scale)
	acct := storage.NewAccountant()
	st.SetAccountant(acct)
	st.SetPageSize(4096)
	defer st.SetAccountant(nil)
	for _, q := range []string{"//profile/interest", "//item/name", "/site/*/*"} {
		g := core.MustPattern(q)
		acct.Reset()
		MatchNoK(st, g)
		t.AddRow(q, "NoK", acct.Pages(), acct.TouchCount())
		acct.Reset()
		MatchTwig(st, g)
		t.AddRow(q, "TwigStack", acct.Pages(), acct.TouchCount())
	}
	return t
}

// E10UseCases runs XQuery Use Cases (XMP) style queries end-to-end under
// every strategy and cross-checks the answers.
func E10UseCases(scale int) *Table {
	t := &Table{ID: "E10", Title: "Use-case queries (bib corpus)",
		Columns: []string{"query", "results", "NoK", "TwigStack", "cost-based", "agree"}}
	db := xqp.FromStore(xmark.StoreBib(scale))
	queries := []struct {
		name string
		src  string
	}{
		{"Q1 filter+construct", `for $b in /bib/book
			where $b/publisher = "Publisher 1" and $b/@year > 1990
			return <book year="{$b/@year}">{$b/title}</book>`},
		{"Q2 flatten pairs", `for $b in /bib/book, $a in $b/author
			return <pair>{$b/title}{$a/last}</pair>`},
		{"Q3 group authors", `for $b in /bib/book return <result>{$b/title}{$b/author}</result>`},
		{"Q4 invert by author", `for $l in distinct-values(/bib/book/author/last)
			return <author><last>{$l}</last>{
				for $b in /bib/book where $b/author/last = $l return $b/title
			}</author>`},
		{"Q5 cheap books", `/bib/book[price < 60]/title`},
		{"Q6 fig1", `<results>{
			for $b in doc("bib.xml")/bib/book
			let $t := $b/title
			let $a := $b/author
			return <result>{$t}{$a}</result>
		}</results>`},
	}
	for _, uc := range queries {
		var base *xqp.Result
		run := func(opts xqp.Options) (time.Duration, *xqp.Result) {
			var res *xqp.Result
			d := timeIt(func() {
				var err error
				res, err = db.QueryWith(uc.src, opts)
				if err != nil {
					panic(fmt.Sprintf("%s: %v", uc.name, err))
				}
			})
			return d, res
		}
		dNok, rNok := run(xqp.Options{Strategy: xqp.NoK})
		dTwig, rTwig := run(xqp.Options{Strategy: xqp.TwigStack})
		dCost, rCost := run(xqp.Options{})
		base = rNok
		agree := "yes"
		if rTwig.XML() != base.XML() || rCost.XML() != base.XML() {
			agree = "NO"
		}
		t.AddRow(uc.name, base.Len(), dNok, dTwig, dCost, agree)
	}
	return t
}

var rewriteOptsFusionOnly = rewriteFusionOnly()

// RunAll executes every experiment at modest scales.
func RunAll() []*Table {
	return []*Table{
		T1Operators(),
		E1StorageSize([]int{1, 2, 4, 8}),
		E2Scaling([]int{1, 2, 4, 8}),
		E3PathLength(6),
		E4Selectivity(),
		E5Twig(),
		E6Exponential(9),
		E7RewriteAblation(50),
		E8Streaming(8),
		E9PageTouches(6),
		E10UseCases(20),
		E11UpdateLocality([]int{1, 4, 16}),
		E12ContentIndex(100),
		E13HybridStrategy(),
		E14AnalyzerPruning(8),
		E15Throughput(50),
		E16EstimateAccuracy(4),
	}
}

// rewriteFusionOnly builds the path-fusion-only rule set.
func rewriteFusionOnly() rewrite.Options {
	return rewrite.Options{PathFusion: true}
}
