package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"xqp"
	"xqp/internal/cluster"
	"xqp/internal/exec"
)

// serverCounters is what the traced pass reads from the spawned
// processes' own /stats, /watch/stats and (router) /stats endpoints,
// summed over the topology's engines.
type serverCounters struct {
	engine xqp.EngineStats
	watch  xqp.WatchStats
	router cluster.Stats
}

func (r *runner) counters(ctx context.Context) (*serverCounters, error) {
	c := &serverCounters{}
	c.engine.TauByStrategy = map[string]int64{}
	c.watch.FullByReason = map[string]int64{}
	for _, s := range r.topo.engines() {
		cl := newClient(s.base, 1)
		var es xqp.EngineStats
		var ws xqp.WatchStats
		err := cl.getJSON(ctx, "/stats", &es)
		if err == nil {
			err = cl.getJSON(ctx, "/watch/stats", &ws)
		}
		cl.close()
		if err != nil {
			return nil, err
		}
		c.engine.Served += es.Served
		c.engine.Rejected += es.Rejected
		c.engine.CacheHits += es.CacheHits
		c.engine.CacheMisses += es.CacheMisses
		c.engine.Compilations += es.Compilations
		c.engine.QueueWait += es.QueueWait
		c.engine.StrategyFallbacks += es.StrategyFallbacks
		for k, v := range es.TauByStrategy {
			c.engine.TauByStrategy[k] += v
		}
		c.watch.Commits += ws.Commits
		c.watch.Incremental += ws.Incremental
		c.watch.DroppedCommits += ws.DroppedCommits
		for k, v := range ws.FullByReason {
			c.watch.FullByReason[k] += v
		}
	}
	if len(r.topo.shards) > 0 {
		cl := newClient(r.topo.front.base, 1)
		err := cl.getJSON(ctx, "/stats", &c.router)
		cl.close()
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// cqReasons are the continuous-query full re-evaluation reasons
// internal/cq tallies, each reported as cq.full_by_reason.<reason>.
var cqReasons = []string{
	"initial", "ineligible-plan", "root-qualifying", "untracked-commit",
	"missed-commit", "dirty-region-threshold", "eval-error",
}

// runTraced is one --trace 1 run. It is separate from the timed runs
// and takes --seconds in all, split over three parts:
//
//  1. an HTTP run against spawned servers, half with client-side spans
//     off and half with them on: the servers' own counters, the load
//     generator's validity numbers, and the p50 the residual is taken
//     against;
//  2. an in-process replay of the workload's exact request sequence with
//     the benchmark standing in for xqd's handlers, a span around every
//     layer call;
//  3. direct calls into each layer over the workload's documents and
//     patterns.
func runTraced(ctx context.Context, e *env, in *instance, declared []metricSpec, seconds float64) (*outcome, error) {
	o := newOutcome(in, declared, seconds, true)
	part := time.Duration(seconds / 4 * float64(time.Second))

	// Part 1: over HTTP.
	r, _, err := setUp(ctx, e, in)
	if err != nil {
		return nil, err
	}
	defer r.close()
	before, err := r.counters(ctx)
	if err != nil {
		return nil, err
	}
	stream := newBidStream(in)
	off, err := r.measure(ctx, part, stream)
	if err != nil {
		return nil, err
	}
	r.rec = newRecorder()
	on, err := r.measure(ctx, part, stream)
	if err != nil {
		return nil, err
	}
	r.probe(ctx, on, stream)
	clientSpans := r.rec.spans
	r.rec = nil
	after, err := r.counters(ctx)
	if err != nil {
		return nil, err
	}
	for _, m := range []*measured{off, on} {
		o.count(m.reads.attempted, m.reads.failed, m.reads.firstErr)
		o.count(m.writes.attempted, m.writes.failed, m.writes.firstErr)
	}
	lat := microseconds(off.reads.samples)
	httpP50 := percentile(lat, 0.5)
	o.set("load.late_share", float64(off.reads.late+on.reads.late)/float64(max(off.reads.attempted+on.reads.attempted, 1)), 0)
	o.set("load.p999_us", percentile(lat, 0.999), len(lat))
	o.set("load.samples", float64(len(lat)), 0)
	o.set("load.trace_overhead_share", (percentile(microseconds(on.reads.samples), 0.5)-httpP50)/httpP50, len(on.reads.samples))
	o.LateShare = o.Metrics["load.late_share"].Value

	served := float64(max(after.engine.Served-before.engine.Served, 1))
	lookups := float64(max(after.engine.CacheHits+after.engine.CacheMisses-before.engine.CacheHits-before.engine.CacheMisses, 1))
	o.set("engine.cache_hit_rate", float64(after.engine.CacheHits-before.engine.CacheHits)/lookups, 0)
	o.set("engine.compilations", float64(after.engine.Compilations-before.engine.Compilations), 0)
	o.set("engine.rejected", float64(after.engine.Rejected-before.engine.Rejected), 0)
	o.set("engine.queue_wait_us", float64(after.engine.QueueWait-before.engine.QueueWait)/1e3/served, int(served))
	o.set("exec.fallbacks", float64(after.engine.StrategyFallbacks-before.engine.StrategyFallbacks), 0)
	for s := exec.StrategyNoK; s < exec.NumStrategies; s++ {
		o.set("exec.tau."+s.String(), float64(after.engine.TauByStrategy[s.String()]-before.engine.TauByStrategy[s.String()]), 0)
	}
	commits := float64(max(after.watch.Commits-before.watch.Commits, 1))
	o.set("cq.incremental_share", float64(after.watch.Incremental-before.watch.Incremental)/commits, int(commits))
	o.set("cq.dropped_commits", float64(after.watch.DroppedCommits-before.watch.DroppedCommits), 0)
	for _, reason := range cqReasons {
		o.set("cq.full_by_reason."+reason, float64(after.watch.FullByReason[reason]-before.watch.FullByReason[reason]), 0)
	}

	// Part 2: the in-process replay.
	rec := newRecorder()
	p, err := newInproc(in, rec)
	if err != nil {
		return nil, err
	}
	rr := newRunner(in, nil, p, p)
	defer rr.close()
	warm := closedLoop(ctx, in.w.clients, 0, in.w.warmCycles*len(in.cycle), rr.readOp(nil))
	o.count(warm.attempted, warm.failed, warm.firstErr)
	warmSpans := len(rec.spans)
	replayStream := newBidStream(in)
	replay, err := rr.measure(ctx, part, replayStream)
	if err != nil {
		return nil, err
	}
	rr.probe(ctx, replay, replayStream)
	o.count(replay.reads.attempted, replay.reads.failed, replay.reads.firstErr)
	o.count(replay.writes.attempted, replay.writes.failed, replay.writes.firstErr)
	spans := rec.spans[warmSpans:]
	layers := layerMedians(spans)
	queries := float64(max(p.queries.Load(), 1))
	o.set("xqp.xmlitems_us", layers["xqp.xmlitems"].DurUS, layers["xqp.xmlitems"].Count)
	o.set("xqd.json_encode_us", layers["json.encode"].DurUS, layers["json.encode"].Count)
	o.set("xqp.result_bytes", float64(p.resultBytes.Load())/queries, int(queries))
	o.set("xqd.resp_bytes_per_req", float64(p.respBytes.Load())/queries, int(queries))
	o.set("xqd.http_residual_us", httpP50-layers["request"].DurUS, layers["request"].Count)

	// Part 3: direct calls, plus the one routing measurement that needs
	// a spawned server on the other side.
	lb, err := newLayerBench(in, o, part)
	if err != nil {
		return nil, err
	}
	if err := lb.run(ctx); err != nil {
		return nil, err
	}
	if err := lb.routeHTTP(ctx, r); err != nil {
		return nil, err
	}
	// The spawned router's counters join the in-process router's.
	o.set("cluster.failovers", o.Metrics["cluster.failovers"].Value+float64(after.router.ReplicaRetries), 0)
	o.set("cluster.stale_rejected", o.Metrics["cluster.stale_rejected"].Value+float64(after.router.StaleReads), 0)
	o.Correct = o.Failed == 0

	trace := filepath.Join(e.outDir, "trace-"+in.w.name+".json")
	if err := writeJSON(trace, struct {
		Workload string       `json:"workload"`
		Seed     int64        `json:"seed"`
		Replay   []spanRecord `json:"replay_spans"`
		Client   []spanRecord `json:"client_spans"`
	}{in.w.name, in.seed, spans, clientSpans}); err != nil {
		return nil, err
	}
	table := stackedTable(in.w, layers, httpP50)
	fmt.Fprint(os.Stderr, table)
	if err := os.WriteFile(filepath.Join(e.outDir, "layers-"+in.w.name+".txt"), []byte(table), 0o644); err != nil {
		return nil, err
	}
	return o, nil
}

// stackOrder lists the spans of a replayed request from the outside in;
// each contributes its self time to the stack.
var stackOrder = []string{
	"request", "json.decode", "cluster.route", "engine.query", "engine.queue",
	"exec.run", "xqp.xmlitems", "json.encode",
}

// stackedTable renders one workload's layer stack: the median self time
// of each span of a replayed request, their sum, the p50 the same
// request sequence showed over HTTP, and the residual — everything the
// in-process replay does not contain: two sockets, HTTP parsing, the
// server's goroutine hand-offs, and a second process competing for the
// same cores. The sum of medians is not the median of sums; the
// replay's own request median is printed beside it so the gap shows.
func stackedTable(w *workload, layers map[string]layerStat, httpP50 float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n%s: layer stack (median self time per replayed request, µs)\n", w.name)
	sum := 0.0
	for _, name := range stackOrder {
		st, ok := layers[name]
		if !ok {
			continue
		}
		sum += st.SelfUS
		fmt.Fprintf(&b, "  %-16s %10.1f   (n=%d, median inclusive %.1f)\n", name, st.SelfUS, st.Count, st.DurUS)
	}
	fmt.Fprintf(&b, "  %-16s %10.1f\n", "sum of layers", sum)
	fmt.Fprintf(&b, "  %-16s %10.1f\n", "replay request", layers["request"].DurUS)
	fmt.Fprintf(&b, "  %-16s %10.1f\n", "HTTP p50_us", httpP50)
	fmt.Fprintf(&b, "  %-16s %10.1f   (HTTP p50 − sum of layers)\n", "residual", httpP50-sum)
	if c, ok := layers["commit"]; ok {
		fmt.Fprintf(&b, "  commits: n=%d, median %.1f µs, of which engine.apply %.1f µs\n", c.Count, c.DurUS, layers["engine.apply"].DurUS)
	}
	return b.String()
}

// routeHTTP measures what cluster.Router adds over an HTTPShard: the
// workload's pairs through an in-process router to the spawned xqd that
// holds the documents, against the benchmark's own client posting the
// same queries straight to it.
func (l *layerBench) routeHTTP(ctx context.Context, r *runner) error {
	base := r.topo.engines()[0].base
	rt := cluster.New(cluster.Config{})
	if err := rt.AddShard(cluster.NewHTTPShard("s0", base, nil)); err != nil {
		return err
	}
	cl := newClient(base, 1)
	defer cl.close()
	var extra []float64
	for reps := newReps(l.budget, 2); reps.more(); {
		for _, rq := range l.pairs {
			q := l.in.w.queries[rq.query]
			routed := func() error {
				_, err := rt.Query(ctx, l.in.docs[rq.doc].name, q.src, xqp.EngineQueryOptions{CostBased: q.cost})
				return err
			}
			direct := func() error {
				_, err := cl.query(ctx, r.bodies[rq.doc][rq.query])
				return err
			}
			d, err := pairedExtra(reps.pass(), routed, direct)
			if err != nil {
				return err
			}
			extra = append(extra, d)
		}
	}
	l.o.set("cluster.route_http_us", median(extra), len(extra))
	return nil
}
