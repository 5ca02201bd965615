package compile_test

import (
	"testing"

	"xqp/internal/compile"
	"xqp/internal/engine"
	"xqp/internal/stats"
	"xqp/internal/xmark"
)

// churnQueries are the eight cost-based queries of the benchmark's
// plan_churn workload.
var churnQueries = []string{
	`/site/people/person[profile]/name`,
	`//person[homepage]/emailaddress`,
	`//item[location = "asia"]/name`,
	`count(/site/regions/*/item/quantity)`,
	`//open_auction[bidder]/current`,
	`for $a in //open_auction where $a/initial > 90 return $a/current`,
	`count(//listitem//parlist/listitem/text)`,
	`//item[@id = "item_asia_3"]/name`,
}

var sinkPlan *engine.Plan

// BenchmarkCompile measures what a plan-cache miss pays before
// execution: engine.Prepare's parse, translate, analyze, rewrite and
// annotate, plus pricing every τ pattern, against Auction(2). One
// operation is one query, cycling through churnQueries, so ns/op and
// allocs/op are per query.
func BenchmarkCompile(b *testing.B) {
	st := xmark.StoreAuction(2)
	syn := stats.Build(st)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := engine.Prepare(churnQueries[i%len(churnQueries)], compile.Options{}, st, syn)
		if err != nil {
			b.Fatal(err)
		}
		sinkPlan = p
	}
}
