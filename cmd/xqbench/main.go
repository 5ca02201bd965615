// Command xqbench runs the reproduction experiments and prints each
// table/figure series (see DESIGN.md's per-experiment index and
// EXPERIMENTS.md for the recorded results).
//
// Usage:
//
//	xqbench                  # run every experiment at default scales
//	xqbench -run E2,E4       # run selected experiments
//	xqbench -list            # list experiment ids
//	xqbench -run E17 -json BENCH_parallel.json
//	                         # also record the raw tables as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"xqp/internal/experiments"
)

var registry = []struct {
	id   string
	desc string
	run  func() *experiments.Table
}{
	{"T1", "Table 1 operator latencies", experiments.T1Operators},
	{"E1", "storage size", func() *experiments.Table { return experiments.E1StorageSize([]int{1, 2, 4, 8}) }},
	{"E2", "path query vs document size", func() *experiments.Table { return experiments.E2Scaling([]int{1, 2, 4, 8, 16}) }},
	{"E3", "latency vs path length", func() *experiments.Table { return experiments.E3PathLength(7) }},
	{"E4", "selectivity crossover + cost model", experiments.E4Selectivity},
	{"E5", "twig branching", experiments.E5Twig},
	{"E6", "pipelined exponential blow-up", func() *experiments.Table { return experiments.E6Exponential(10) }},
	{"E7", "rewrite ablation", func() *experiments.Table { return experiments.E7RewriteAblation(100) }},
	{"E8", "streaming load throughput", func() *experiments.Table { return experiments.E8Streaming(8) }},
	{"E9", "page touches (I/O proxy)", func() *experiments.Table { return experiments.E9PageTouches(6) }},
	{"E10", "use-case queries end to end", func() *experiments.Table { return experiments.E10UseCases(30) }},
	{"E11", "update locality", func() *experiments.Table { return experiments.E11UpdateLocality([]int{1, 4, 16, 64}) }},
	{"E12", "content index vs scan", func() *experiments.Table { return experiments.E12ContentIndex(200) }},
	{"E13", "hybrid NoK-fragment strategy", experiments.E13HybridStrategy},
	{"E14", "static analyzer pruning", func() *experiments.Table { return experiments.E14AnalyzerPruning(8) }},
	{"E15", "engine throughput vs workers/cache", func() *experiments.Table { return experiments.E15Throughput(200) }},
	{"E16", "estimated vs actual cost accuracy", func() *experiments.Table { return experiments.E16EstimateAccuracy(8) }},
	{"E17", "parallel vs serial pattern matching", func() *experiments.Table { return experiments.E17Parallel([]int{4, 8, 16}, 4) }},
	{"E18", "continuous bid-watch delta latency", func() *experiments.Table { return experiments.E18BidWatch(2, 40) }},
	{"E19", "batched vs interpreted pattern matching", func() *experiments.Table { return experiments.E19Batched([]int{4, 8, 16}) }},
	{"E20", "chooser regret: static vs calibrated constants", func() *experiments.Table { return experiments.E20Calibration(2) }},
	{"E21", "cluster scale-out: 1-node vs 3-shard", func() *experiments.Table {
		return experiments.E21Cluster(12, 32, 2*time.Second)
	}},
}

func main() {
	runFlag := flag.String("run", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonPath := flag.String("json", "", "also write the ran tables to this file as JSON")
	flag.Parse()

	if *list {
		for _, e := range registry {
			fmt.Printf("%-4s %s\n", e.id, e.desc)
		}
		return
	}

	want := map[string]bool{}
	if *runFlag != "" {
		for _, id := range strings.Split(*runFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	var tables []*experiments.Table
	for _, e := range registry {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		t := e.run()
		fmt.Println(t.Format())
		tables = append(tables, t)
	}
	if len(tables) == 0 {
		fmt.Fprintf(os.Stderr, "xqbench: no experiment matches %q (use -list)\n", *runFlag)
		os.Exit(1)
	}
	if *jsonPath != "" {
		out, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "xqbench: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "xqbench: %v\n", err)
			os.Exit(1)
		}
	}
}
