// Benchmarks regenerating every table and figure of the evaluation (see
// DESIGN.md's per-experiment index and EXPERIMENTS.md for recorded
// results). Each BenchmarkE* corresponds to one experiment; cmd/xqbench
// prints the same series as formatted tables.
package xqp_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"xqp"
	"xqp/internal/ast"
	"xqp/internal/core"
	"xqp/internal/exec"
	"xqp/internal/experiments"
	"xqp/internal/join"
	"xqp/internal/nok"
	"xqp/internal/parser"
	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/value"
	"xqp/internal/xmark"
	"xqp/internal/xmldoc"
)

// BenchmarkT1Operators exercises each Table 1 operator (σs σv ⋈s ⋈v πs τ γ).
func BenchmarkT1Operators(b *testing.B) {
	st := xmark.StoreBib(10)
	toSeq := func(refs []storage.NodeRef) value.Sequence {
		out := make(value.Sequence, len(refs))
		for i, r := range refs {
			out[i] = value.Node{Store: st, Ref: r}
		}
		return out
	}
	books := toSeq(st.ElementRefs("book"))
	prices := toSeq(st.ElementRefs("price"))
	lasts := toSeq(st.ElementRefs("last"))

	b.Run("σs-select-tag", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.SelectTag(books, "book")
		}
	})
	b.Run("σv-select-value", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.SelectValue(prices, value.CmpLt, value.Int(60))
		}
	})
	b.Run("⋈s-structural-join", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := join.StructuralJoin(books, lasts, pattern.RelDescendant); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("⋈v-value-join", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.ValueJoin(prices, prices, value.CmpEq); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("πs-navigate", func(b *testing.B) {
		test := ast.NodeTest{Kind: ast.TestName, Name: "author"}
		for i := 0; i < b.N; i++ {
			if _, err := core.NavigateStep(books, ast.AxisChild, test); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("τ-tree-pattern-match", func(b *testing.B) {
		g := core.MustPattern("//book[price]/author/last")
		for i := 0; i < b.N; i++ {
			if _, err := nok.MatchNested(st, g, []storage.NodeRef{st.Root()}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("γ-construct", func(b *testing.B) {
		schema := &core.SchemaTree{Root: &core.SchemaNode{
			Kind: core.SchemaElement, Name: "out",
			Children: []*core.SchemaNode{{Kind: core.SchemaPlaceholder, Expr: &core.ConstOp{Seq: books[:5]}}},
		}}
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildTree(schema, func(op core.Op) (value.Sequence, error) {
				return op.(*core.ConstOp).Seq, nil
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE1StorageSize loads the auction corpus into the succinct store
// and reports bytes/node for each representation.
func BenchmarkE1StorageSize(b *testing.B) {
	for _, scale := range []int{1, 4} {
		b.Run(fmt.Sprintf("scale-%d", scale), func(b *testing.B) {
			doc := xmark.Auction(scale)
			var st *storage.Store
			for i := 0; i < b.N; i++ {
				st = storage.FromDoc(doc)
			}
			structure, tags, content := st.SizeBytes()
			n := float64(st.NodeCount())
			b.ReportMetric(float64(structure+tags+content)/n, "succinctB/node")
			b.ReportMetric(float64(doc.SizeBytes())/n, "domB/node")
			b.ReportMetric(float64(st.NodeCount()*16+content+st.Vocab.SizeBytes())/n, "intervalB/node")
		})
	}
}

// BenchmarkE2Scaling regenerates the document-size sweep per strategy.
func BenchmarkE2Scaling(b *testing.B) {
	for _, scale := range []int{1, 4, 16} {
		st := xmark.StoreAuction(scale)
		g := core.MustPattern("/site/regions/*/item/name")
		b.Run(fmt.Sprintf("scale-%d/nok", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.MatchNoK(st, g)
			}
		})
		b.Run(fmt.Sprintf("scale-%d/twigstack", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.MatchTwig(st, g)
			}
		})
		b.Run(fmt.Sprintf("scale-%d/pathstack", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.MatchPathStack(st, g)
			}
		})
		b.Run(fmt.Sprintf("scale-%d/naive", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.MatchNaive(st, g)
			}
		})
	}
}

// BenchmarkE3PathLength regenerates the path-length sweep.
func BenchmarkE3PathLength(b *testing.B) {
	st := xmark.StoreDeep(400, 9)
	for _, k := range []int{2, 4, 7} {
		g := core.MustPattern("/doc" + strings.Repeat("/section", k))
		b.Run(fmt.Sprintf("steps-%d/nok", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.MatchNoK(st, g)
			}
		})
		b.Run(fmt.Sprintf("steps-%d/pathstack", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.MatchPathStack(st, g)
			}
		})
		b.Run(fmt.Sprintf("steps-%d/binaryjoin", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.MatchBinaryJoin(st, g)
			}
		})
	}
}

// BenchmarkE4Selectivity regenerates the selectivity crossover points.
func BenchmarkE4Selectivity(b *testing.B) {
	st := xmark.StoreAuction(6)
	for _, q := range []string{"//profile/interest", "//listitem/text", "/site/*/*"} {
		g := core.MustPattern(q)
		name := strings.NewReplacer("/", "_", "*", "any").Replace(q)
		b.Run(name+"/nok", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.MatchNoK(st, g)
			}
		})
		b.Run(name+"/twigstack", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.MatchTwig(st, g)
			}
		})
	}
}

// BenchmarkE5Twig regenerates the branching-factor sweep.
func BenchmarkE5Twig(b *testing.B) {
	st := xmark.StoreAuction(6)
	preds := []string{"[location]", "[quantity]", "[payment]", "[incategory]"}
	for _, k := range []int{0, 2, 4} {
		g := core.MustPattern("//item" + strings.Join(preds[:k], "") + "/name")
		b.Run(fmt.Sprintf("branches-%d/nok", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.MatchNoK(st, g)
			}
		})
		b.Run(fmt.Sprintf("branches-%d/twigstack", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.MatchTwig(st, g)
			}
		})
	}
}

// BenchmarkE6Exponential regenerates the pipelined blow-up family.
func BenchmarkE6Exponential(b *testing.B) {
	st := storage.MustLoad(`<r><a><b/><b/><b/></a></r>`)
	for _, n := range []int{2, 5, 8} {
		src := "/r/a" + strings.Repeat("/b/..", n) + "/b"
		plan, err := core.Translate(parser.MustParse(src))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n-%d/pipelined", n), func(b *testing.B) {
			e := exec.New(st, exec.Options{NoStepDedup: true})
			for i := 0; i < b.N; i++ {
				if _, err := e.Eval(plan, exec.Root()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n-%d/algebraic", n), func(b *testing.B) {
			e := exec.New(st, exec.Options{})
			for i := 0; i < b.N; i++ {
				if _, err := e.Eval(plan, exec.Root()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7RewriteAblation regenerates the rewrite ablation.
func BenchmarkE7RewriteAblation(b *testing.B) {
	db := xqp.FromStore(xmark.StoreBib(50))
	src := `for $b in /bib/book
	        where $b/price < 60
	        return <result>{$b/title}{$b/author}</result>`
	for _, v := range []struct {
		name string
		opts xqp.Options
	}{
		{"none", xqp.Options{DisableRewrites: true}},
		{"all", xqp.Options{}},
	} {
		q, err := xqp.Compile(src, v.opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Run(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8Streaming regenerates the load-throughput comparison.
func BenchmarkE8Streaming(b *testing.B) {
	doc := xmark.Auction(8)
	xml := doc.XMLString(doc.Root())
	b.Run("stream", func(b *testing.B) {
		b.SetBytes(int64(len(xml)))
		for i := 0; i < b.N; i++ {
			if _, err := storage.LoadString(xml); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dom-then-store", func(b *testing.B) {
		b.SetBytes(int64(len(xml)))
		for i := 0; i < b.N; i++ {
			d, err := xmldoc.ParseString(xml)
			if err != nil {
				b.Fatal(err)
			}
			storage.FromDoc(d)
		}
	})
}

// BenchmarkE9PageTouches regenerates the I/O proxy measurements.
func BenchmarkE9PageTouches(b *testing.B) {
	st := xmark.StoreAuction(6)
	acct := storage.NewAccountant()
	st.SetAccountant(acct)
	st.SetPageSize(4096)
	defer st.SetAccountant(nil)
	for _, q := range []string{"//profile/interest", "/site/*/*"} {
		g := core.MustPattern(q)
		name := strings.NewReplacer("/", "_", "*", "any").Replace(q)
		b.Run(name+"/nok", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				acct.Reset()
				experiments.MatchNoK(st, g)
			}
			b.ReportMetric(float64(acct.Pages()), "pages")
		})
		b.Run(name+"/twigstack", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				acct.Reset()
				experiments.MatchTwig(st, g)
			}
			b.ReportMetric(float64(acct.Pages()), "pages")
		})
	}
}

// BenchmarkE10UseCases regenerates the end-to-end use-case timings.
func BenchmarkE10UseCases(b *testing.B) {
	db := xqp.FromStore(xmark.StoreBib(20))
	queries := map[string]string{
		"Q1-filter-construct": `for $b in /bib/book
			where $b/publisher = "Publisher 1" and $b/@year > 1990
			return <book year="{$b/@year}">{$b/title}</book>`,
		"Q5-cheap-books": `/bib/book[price < 60]/title`,
		"Q6-fig1": `<results>{
			for $b in doc("bib.xml")/bib/book
			let $t := $b/title
			let $a := $b/author
			return <result>{$t}{$a}</result>
		}</results>`,
	}
	for name, src := range queries {
		q, err := xqp.Compile(src, xqp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Run(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE11UpdateLocality regenerates the update-locality measurement.
func BenchmarkE11UpdateLocality(b *testing.B) {
	frag := xmldoc.MustParse(`<book year="2004"><title>fresh</title><price>10.00</price></book>`)
	for _, scale := range []int{1, 16} {
		st := xmark.StoreBib(scale)
		first := st.FirstChild(st.DocumentElement())
		b.Run(fmt.Sprintf("scale-%d", scale), func(b *testing.B) {
			var stats storage.UpdateStats
			for i := 0; i < b.N; i++ {
				var err error
				_, stats, err = st.InsertChild(first, frag)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.SuccinctDirtyBytes), "succinct-dirty-B")
			b.ReportMetric(float64(stats.IntervalDirtyBytes), "interval-dirty-B")
		})
	}
}

// BenchmarkE12ContentIndex regenerates the index-vs-scan comparison.
func BenchmarkE12ContentIndex(b *testing.B) {
	st := xmark.StoreBib(200)
	sym := st.Vocab.Lookup("last")
	idx := storage.BuildContentIndex(st, sym)
	probe := st.StringValue(st.TagRefs(sym)[0])
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for _, r := range st.TagRefs(sym) {
				if st.StringValue(r) == probe {
					n++
				}
			}
		}
	})
	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx.Eq(probe)
		}
	})
}

// BenchmarkE13Hybrid regenerates the hybrid-strategy comparison.
func BenchmarkE13Hybrid(b *testing.B) {
	st := xmark.StoreAuction(6)
	for _, q := range []string{"//item//text", "//open_auction[bidder]//increase"} {
		g := core.MustPattern(q)
		name := strings.NewReplacer("/", "_", "[", "(", "]", ")").Replace(q)
		b.Run(name+"/nok", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.MatchNoK(st, g)
			}
		})
		b.Run(name+"/twigstack", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.MatchTwig(st, g)
			}
		})
		b.Run(name+"/hybrid", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.MatchHybrid(st, g)
			}
		})
	}
}

// BenchmarkE14AnalyzerPruning measures rewrite+execution of a query with
// a statically-empty branch (synopsis-unmatchable path), with the static
// analyzer disabled ("off": the dead branch is rewritten and executed)
// and enabled ("on": the analyzer prunes it to a constant at compile
// time).
func BenchmarkE14AnalyzerPruning(b *testing.B) {
	db := xqp.FromStore(xmark.StoreAuction(8))
	src := `(/site/regions/africa/item/name, /site/nonexistent//item/name)`
	for _, v := range []struct {
		name string
		opts xqp.Options
	}{
		{"off", xqp.Options{DisableAnalyzer: true}},
		{"on", xqp.Options{}},
	} {
		b.Run("compile+run/"+v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q, err := db.Compile(src, v.opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := db.Run(q); err != nil {
					b.Fatal(err)
				}
			}
		})
		q, err := db.Compile(src, v.opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("run/"+v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Run(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE15Throughput measures concurrent engine query throughput
// (b.RunParallel across GOMAXPROCS workers) with the compiled-plan cache
// on and off: the gap is the parse/translate/analyze/rewrite work a
// cache hit skips.
func BenchmarkE15Throughput(b *testing.B) {
	st := xmark.StoreAuction(2)
	queries := []string{
		`/site/regions/africa/item/name`,
		`//item[payment]/name`,
		`//person//name`,
		`for $i in /site/open_auctions/open_auction return $i/current`,
	}
	for _, cache := range []struct {
		name string
		size int
	}{{"cache", 0}, {"nocache", -1}} {
		b.Run(cache.name, func(b *testing.B) {
			eng := xqp.NewEngine(xqp.EngineConfig{PlanCacheSize: cache.size, QueueDepth: -1})
			eng.RegisterStore("auction", st)
			ctx := context.Background()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					q := queries[i%len(queries)]
					i++
					_, err := eng.Query(ctx, "auction", q)
					if err != nil && !errors.Is(err, xqp.ErrSaturated) {
						b.Fatal(err)
					}
				}
			})
			b.ReportMetric(eng.Stats().HitRate()*100, "hit%")
		})
	}
}

// BenchmarkE18BidWatch measures continuous-query commit-to-delta
// latency: each iteration commits one bid into the auction document and
// blocks until the watching subscriber receives the resulting delta.
// incr% reports the fraction of commits served by the incremental
// re-evaluation path (dirty interval + ancestors) rather than a full
// re-run.
func BenchmarkE18BidWatch(b *testing.B) {
	eng := xqp.NewEngine(xqp.EngineConfig{})
	eng.RegisterStore("auction", xmark.StoreAuction(2))
	w := xqp.NewWatcher(eng, xqp.WatchConfig{})
	defer w.Close()
	sub, err := w.Subscribe("auction", `/site/open_auctions/open_auction/bidder/increase`)
	if err != nil {
		b.Fatal(err)
	}
	<-sub.Deltas() // initial snapshot
	bid := `<bidder><date>01/02/2026</date><increase>3.00</increase></bidder>`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		muts := []xqp.Mutation{{
			Op:   xqp.MutationInsert,
			Path: fmt.Sprintf("/open_auctions/open_auction[%d]", 1+i%24),
			XML:  bid,
		}}
		if _, err := eng.Apply("auction", muts); err != nil {
			b.Fatal(err)
		}
		d, ok := <-sub.Deltas()
		if !ok || len(d.Added) != 1 {
			b.Fatalf("delta = %+v ok=%v", d, ok)
		}
	}
	b.StopTimer()
	st := w.Stats()
	if st.Commits > 0 {
		b.ReportMetric(float64(st.Incremental)/float64(st.Commits)*100, "incr%")
	}
}

// xmlItemsSink keeps BenchmarkXMLItems' results alive.
var xmlItemsSink []string

// bulkResults runs the three child-axis queries of the benchmark's
// bulk_result workload (whole item, person and open_auction subtrees of
// Auction(8)) and reports the bytes of XML they serialize to.
func bulkResults(b *testing.B) ([]*xqp.Result, int64) {
	db := xqp.FromStore(xmark.StoreAuction(8))
	var results []*xqp.Result
	var bytes int64
	for _, src := range []string{`/site/regions/*/item`, `/site/people/person`, `/site/open_auctions/open_auction`} {
		res, err := db.Query(src)
		if err != nil {
			b.Fatal(err)
		}
		results = append(results, res)
		for _, it := range res.XMLItems() {
			bytes += int64(len(it))
		}
	}
	return results, bytes
}

// BenchmarkXMLItems serializes the results of bulkResults. Run it with
// -benchmem: allocations per result stay constant however large the
// result is.
func BenchmarkXMLItems(b *testing.B) {
	results, bytes := bulkResults(b)
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range results {
			xmlItemsSink = res.XMLItems()
		}
	}
}

// jsonItemsSink keeps BenchmarkJSONItems' output alive.
var jsonItemsSink []byte

// BenchmarkJSONItems writes the items arrays of bulkResults as xqd
// sends them: fused, through Result.AppendJSONItems into one reused
// buffer, and two-pass, as XMLItems strings escaped by encoding/json.
func BenchmarkJSONItems(b *testing.B) {
	results, bytes := bulkResults(b)
	b.Run("fused", func(b *testing.B) {
		b.SetBytes(bytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, res := range results {
				jsonItemsSink = res.AppendJSONItems(jsonItemsSink[:0])
			}
		}
	})
	b.Run("two-pass", func(b *testing.B) {
		b.SetBytes(bytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, res := range results {
				var err error
				if jsonItemsSink, err = json.Marshal(res.XMLItems()); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkApply commits the bid_stream workload's batch through
// Engine.Apply: insert one <bidder> into an open auction and delete that
// auction's first bidder, so the document keeps its size. Run it with
// -benchmem: time and allocations per commit should follow the edit,
// not the document, from Auction(4) to Auction(16).
func BenchmarkApply(b *testing.B) {
	const bid = `<bidder><date>01/02/2004</date><personref person="person1"/><increase>3.00</increase></bidder>`
	for _, scale := range []int{4, 16} {
		b.Run(fmt.Sprintf("auction-%d", scale), func(b *testing.B) {
			eng := xqp.NewEngine(xqp.EngineConfig{})
			eng.RegisterStore("auction", xmark.StoreAuction(scale))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				auction := fmt.Sprintf("/open_auctions/open_auction[%d]", 1+i%(12*scale))
				muts := []xqp.Mutation{
					{Op: xqp.MutationInsert, Path: auction, XML: bid},
					{Op: xqp.MutationDelete, Path: auction + "/bidder"},
				}
				if _, err := eng.Apply("auction", muts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPredicates runs step-predicate forms at Auction(16), each
// compiled once through the facade, beside their FLWOR twins and the
// predicate-free //item/name. A predicate the pattern builder cannot
// capture keeps its step a πs step, evaluated once per candidate; its
// own relative paths fuse into per-candidate τ dispatches.
func BenchmarkPredicates(b *testing.B) {
	db := xqp.FromStore(xmark.StoreAuction(16))
	for _, q := range []struct{ name, src string }{
		{"plain", `//item/name`},
		{"exists-not", `//item[payment][not(shipping)]/name`},
		{"exists-not-flwor", `for $i in //item where $i/payment and not($i/shipping) return $i/name`},
		{"not-desc", `//item[not(.//keyword)]/name`},
		{"not-desc-flwor", `for $i in //item where not($i//keyword) return $i/name`},
		{"contains-desc", `//item[contains(description//text, "a")]/name`},
		{"contains-desc-flwor", `for $i in //item where contains($i/description//text, "a") return $i/name`},
		{"count-pred", `//open_auction[count(bidder) > 3]/current`},
		{"count-pred-flwor", `for $a in //open_auction where count($a/bidder) > 3 return $a/current`},
	} {
		cq, err := db.Compile(q.src, xqp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Run(cq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
