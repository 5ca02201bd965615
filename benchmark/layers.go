package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"xqp"
	"xqp/internal/batch"
	"xqp/internal/bitvec"
	"xqp/internal/cluster"
	"xqp/internal/compile"
	"xqp/internal/core"
	"xqp/internal/cost"
	"xqp/internal/engine"
	"xqp/internal/exec"
	"xqp/internal/join"
	"xqp/internal/naive"
	"xqp/internal/nok"
	"xqp/internal/parser"
	"xqp/internal/pattern"
	"xqp/internal/stats"
	"xqp/internal/storage"
	"xqp/internal/tally"
	"xqp/internal/vocab"
	"xqp/internal/xmldoc"
)

// primitiveOps is how many seeded positions the rank/select and
// parenthesis primitives are probed at per repetition.
const primitiveOps = 1 << 20

// layerBench times direct calls into each layer's public functions over
// the workload's own documents, queries and patterns. Nothing here goes
// through HTTP or the engine's admission control unless the metric is
// about exactly that; each number is the median over repetitions of one
// pass (one call, or one sweep over the workload's pattern or query
// set).
type layerBench struct {
	in     *instance
	o      *outcome
	budget time.Duration // per timed group
	st     *storage.Store
	syn    *stats.Synopsis
	plans  []*compile.Compiled // one per workload query, on the probe document
	graphs []*pattern.Graph    // the rooted τ patterns of those plans
	paths  []*pattern.Graph    // the non-branching ones
	// pairs are the workload's distinct (doc, query) pairs in cycle
	// order, at most maxPairs of them so that one sweep fits the
	// engine's 256-plan cache and "cached" means cached.
	pairs []request
	rng   *rand.Rand
}

const maxPairs = 128

// sink keeps the results of timed loops alive.
var sink int

func newLayerBench(in *instance, o *outcome, total time.Duration) (*layerBench, error) {
	const groups = 32 // timed groups below, each given an equal share
	l := &layerBench{
		in: in, o: o, budget: total / groups,
		st:  in.docs[in.probeDoc].store,
		rng: rand.New(rand.NewSource(in.seed)),
	}
	l.syn = stats.Build(l.st)
	seen := map[string]bool{}
	for _, q := range in.w.queries {
		c, err := compile.Compile(q.src, compile.Options{}, l.st, l.syn)
		if err != nil {
			return nil, fmt.Errorf("compiling %q: %w", q.src, err)
		}
		l.plans = append(l.plans, c)
		core.Walk(c.Plan, func(op core.Op) bool {
			if t, ok := op.(*core.TPMOp); ok && t.Graph.Rooted && !seen[t.Graph.String()] {
				seen[t.Graph.String()] = true
				l.graphs = append(l.graphs, t.Graph)
				if t.Graph.IsPath() {
					l.paths = append(l.paths, t.Graph)
				}
			}
			return true
		})
	}
	seenPair := map[request]bool{}
	for _, rq := range in.cycle {
		if !seenPair[rq] && len(l.pairs) < maxPairs {
			seenPair[rq] = true
			l.pairs = append(l.pairs, rq)
		}
	}
	if len(l.graphs) == 0 || len(l.paths) == 0 {
		return nil, fmt.Errorf("%s: queries yield %d rooted patterns, %d of them paths; the matcher ladder needs both", in.w.name, len(l.graphs), len(l.paths))
	}
	return l, nil
}

// time reports fn's median wall time under name, in the unit
// BENCHMARK.json gives the metric (ns or us), divided by per, the number
// of operations one call of fn performs.
func (l *layerBench) time(name string, per float64, fn func()) {
	ns, n := timeReps(l.budget, 5, fn)
	if l.o.units[name] != "ns" {
		ns /= 1e3
	}
	l.o.set(name, ns/per, n)
}

// check counts one verified outcome of the layer pass.
func (l *layerBench) check(err error) {
	l.o.count(1, btoi(err != nil), err)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (l *layerBench) run(ctx context.Context) error {
	l.primitives()
	l.storage()
	l.matchers()
	l.compilation()
	l.execution()
	l.engine(ctx)
	if err := l.writes(); err != nil {
		return err
	}
	return l.router(ctx)
}

// primitives probes rank/select on the document's parenthesis bit
// vector and FindClose/Enclose on its balanced-parentheses sequence at
// primitiveOps seeded positions.
func (l *layerBench) primitives() {
	seq := l.st.Seq
	b := bitvec.NewBuilder(seq.Len())
	for i := 0; i < seq.Len(); i++ {
		b.Append(seq.IsOpen(i))
	}
	bv := b.Build()
	pos := make([]int32, primitiveOps)
	ones := make([]int32, primitiveOps)
	opens := make([]int32, primitiveOps)
	for i := range pos {
		pos[i] = int32(l.rng.Intn(bv.Len()))
		ones[i] = int32(1 + l.rng.Intn(bv.Ones()))
		opens[i] = int32(l.st.Open(storage.NodeRef(l.rng.Intn(l.st.NodeCount()))))
	}
	l.time("bitvec.rank1_ns", primitiveOps, func() {
		for _, p := range pos {
			sink += bv.Rank1(int(p))
		}
	})
	l.time("bitvec.select1_ns", primitiveOps, func() {
		for _, k := range ones {
			sink += bv.Select1(int(k))
		}
	})
	l.time("bp.findclose_ns", primitiveOps, func() {
		for _, p := range opens {
			sink += seq.FindClose(int(p))
		}
	})
	l.time("bp.enclose_ns", primitiveOps, func() {
		for _, p := range opens {
			sink += seq.Enclose(int(p))
		}
	})
}

// storage times scans, index probes, load and rebuild, and the
// copy-on-write edits a commit is made of.
func (l *layerBench) storage() {
	st, d := l.st, l.in.docs[l.in.probeDoc]
	nodes := 0
	l.time("storage.scan_ns_per_node", float64(st.NodeCount()), func() {
		nodes = 0
		st.Scan(st.Root(), func(storage.NodeRef, int) bool { nodes++; return true })
	})
	if nodes != st.NodeCount() {
		l.check(fmt.Errorf("scan visited %d of %d nodes", nodes, st.NodeCount()))
	}
	st.Index() // built on first use; the probe below measures lookups
	l.time("storage.tagrefs_ns", float64(st.Vocab.Len()), func() {
		for s := vocab.Symbol(0); int(s) < st.Vocab.Len(); s++ {
			sink += len(st.TagRefs(s))
		}
	})
	l.time("storage.load_us_per_mb", float64(len(d.xml))/1e6, func() {
		if _, err := storage.LoadString(d.xml); err != nil {
			l.check(err)
		}
	})
	l.time("stats.build_us", 1, func() { stats.Build(st) })
	l.time("storage.index_build_us", 1, func() { storage.BuildTagIndex(st) })

	frag, err := xmldoc.ParseString(`<bidder><date>01/01/2004</date><personref person="person0"/><increase>1.00</increase></bidder>`)
	if err != nil {
		l.check(err)
		return
	}
	auctions := st.ElementRefs("open_auction")
	bidders := st.ElementRefs("bidder")
	l.time("storage.insert_us", 1, func() {
		_, us, err := st.InsertChild(auctions[l.rng.Intn(len(auctions))], frag)
		if err != nil || us.NodesInserted != 7 {
			l.check(fmt.Errorf("InsertChild: %d nodes, %v", us.NodesInserted, err))
		}
	})
	l.time("storage.delete_us", 1, func() {
		_, us, err := st.DeleteSubtree(bidders[l.rng.Intn(len(bidders))])
		if err != nil || us.NodesDeleted != 7 {
			l.check(fmt.Errorf("DeleteSubtree: %d nodes, %v", us.NodesDeleted, err))
		}
	})
	s, t, c := st.SizeBytes()
	l.o.set("storage.bytes_per_xml_byte", float64(s+t+c)/float64(len(d.xml)), 0)
}

// matchers runs every τ matcher, in every mode it has, once over the
// workload's pattern set from the document root, through the counted
// and batched entry points the executor dispatches to. All of them must
// find the same number of matches as the naive oracle.
func (l *layerBench) matchers() {
	st, root := l.st, []storage.NodeRef{l.st.Root()}
	want := 0
	for _, g := range l.graphs {
		want += len(naive.MatchOutput(st, g, root))
	}
	// pass times one sweep of match over graphs and checks the total.
	pass := func(name string, graphs []*pattern.Graph, wantTotal int, match func(g *pattern.Graph, c *tally.Counters) (int, error)) tally.Counters {
		var c tally.Counters
		var err error
		l.time(name, 1, func() {
			c = tally.Counters{}
			total := 0
			for _, g := range graphs {
				n, merr := match(g, &c)
				if merr != nil {
					err = merr
				}
				total += n
			}
			if total != wantTotal && err == nil {
				err = fmt.Errorf("%s found %d matches, the naive oracle %d", name, total, wantTotal)
			}
		})
		l.check(err)
		return c
	}
	refs := func(r []storage.NodeRef, err error) (int, error) { return len(r), err }
	stream := func(s join.Stream, err error) (int, error) { return len(s), err }

	c := pass("nok.match_us", l.graphs, want, func(g *pattern.Graph, c *tally.Counters) (int, error) {
		return refs(nok.MatchOutputCounted(st, g, root, nil, c))
	})
	l.o.set("nok.nodes_visited", float64(c.NodesVisited), 0)
	pass("nok.batched_us", l.graphs, want, func(g *pattern.Graph, c *tally.Counters) (int, error) {
		return refs(nok.MatchOutputBatched(st, g, root, nil, c))
	})
	pass("nok.parallel2_us", l.graphs, want, func(g *pattern.Graph, c *tally.Counters) (int, error) {
		r, _, err := nok.MatchOutputParallel(st, g, root, 2, nil, c)
		return len(r), err
	})
	pass("nok.hybrid_us", l.graphs, want, func(g *pattern.Graph, c *tally.Counters) (int, error) {
		return refs(nok.MatchHybridCounted(st, g, root, nil, c))
	})
	c = pass("join.twigstack_us", l.graphs, want, func(g *pattern.Graph, c *tally.Counters) (int, error) {
		return stream(join.TwigStackCounted(st, g, nil, c))
	})
	l.o.set("join.stream_elems", float64(c.StreamElems), 0)
	pass("join.twigstack_batched_us", l.graphs, want, func(g *pattern.Graph, c *tally.Counters) (int, error) {
		return stream(join.TwigStackBatched(st, g, nil, c))
	})
	wantPaths := 0
	for _, g := range l.paths {
		wantPaths += len(naive.MatchOutput(st, g, root))
	}
	pass("join.pathstack_us", l.paths, wantPaths, func(g *pattern.Graph, c *tally.Counters) (int, error) {
		return stream(join.PathStackCounted(st, g, nil, c))
	})
	pass("naive.match_us", l.graphs, want, func(g *pattern.Graph, c *tally.Counters) (int, error) {
		return refs(naive.MatchOutputCounted(st, g, root, nil, c))
	})

	var progs []*batch.Program
	l.time("batch.compile_us", 1, func() {
		progs = progs[:0]
		for _, g := range l.graphs {
			p, err := batch.Compile(g)
			if err != nil {
				l.check(err)
				continue
			}
			progs = append(progs, p)
		}
	})
	l.time("batch.bind_us", 1, func() {
		for _, p := range progs {
			p.Bind(st)
		}
	})
}

// compilation times the stages between query text and plan, one sweep
// over the workload's queries (or its patterns, for the cost chooser).
func (l *layerBench) compilation() {
	l.time("parser.parse_us", 1, func() {
		for _, q := range l.in.w.queries {
			if _, err := parser.Parse(q.src); err != nil {
				l.check(err)
			}
		}
	})
	l.time("compile.compile_us", 1, func() {
		for _, q := range l.in.w.queries {
			if _, err := compile.Compile(q.src, compile.Options{}, l.st, l.syn); err != nil {
				l.check(err)
			}
		}
	})
	model := cost.NewModelWith(l.st, l.syn)
	l.time("cost.choose_us", 1, func() {
		for _, g := range l.graphs {
			model.Choice(g, true)
		}
	})
	l.time("cost.model_build_us", 1, func() { cost.NewModel(l.st) })
}

// execution runs the workload's compiled plans on the executor, the way
// the engine does after a plan-cache hit, and separates the time spent
// inside the dispatched matchers from the executor's own.
func (l *layerBench) execution() {
	model := cost.NewModelWith(l.st, l.syn)
	sweep := func(record func(*storage.Store, *pattern.Graph, *exec.StrategyRecord)) {
		for i, c := range l.plans {
			opts := exec.Options{StrictDocs: true, Record: record}
			if l.in.w.queries[i].cost {
				opts.Chooser = func(_ *storage.Store, g *pattern.Graph, rootAnchored bool) exec.Choice {
					return model.ChoiceTuned(g, rootAnchored, 0, nil)
				}
			}
			if _, err := exec.New(l.st, opts).Eval(c.Plan, exec.Root()); err != nil {
				l.check(err)
			}
		}
	}
	l.time("exec.run_us", 1, func() { sweep(nil) })
	// With a record hook every τ dispatch reports its own wall time; what
	// is left of the sweep is dispatch, the other operators and result
	// assembly.
	var inMatchers time.Duration
	overheads := make([]float64, 0, 64)
	for r := newReps(l.budget, 5); r.more(); {
		inMatchers = 0
		t0 := time.Now()
		sweep(func(_ *storage.Store, _ *pattern.Graph, rec *exec.StrategyRecord) { inMatchers += rec.Dur })
		overheads = append(overheads, float64(time.Since(t0)-inMatchers)/1e3)
	}
	l.o.set("exec.dispatch_overhead_us", median(overheads), len(overheads))
}

// engine measures the service layer in process: a query served from the
// plan cache against one that must compile, and what default-on
// calibration costs a cached query.
func (l *layerBench) engine(ctx context.Context) {
	newEngine := func(cfg engine.Config) *engine.Engine {
		e := engine.New(cfg)
		for _, d := range l.in.docs {
			e.RegisterStore(d.name, d.store)
		}
		return e
	}
	on, off := newEngine(engine.Config{}), newEngine(engine.Config{DisableCalibration: true})
	var firstErr error
	sweep := func(e *engine.Engine, noCache bool) func() {
		return func() {
			for _, rq := range l.pairs {
				q := l.in.w.queries[rq.query]
				_, err := e.Query(ctx, l.in.docs[rq.doc].name, q.src, engine.QueryOptions{CostBased: q.cost, NoCache: noCache})
				if err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	pairs := float64(len(l.pairs))
	sweep(on, false)() // fill the plan caches
	sweep(off, false)()
	l.time("engine.query_miss_us", pairs, sweep(on, true))
	// Alternate the two engines so drift hits both alike.
	var onNS, offNS []float64
	for r := newReps(2*l.budget, 5); r.more(); {
		t0 := time.Now()
		sweep(on, false)()
		t1 := time.Now()
		sweep(off, false)()
		onNS = append(onNS, float64(t1.Sub(t0)))
		offNS = append(offNS, float64(time.Since(t1)))
	}
	hit, base := median(onNS), median(offNS)
	l.o.set("engine.query_hit_us", hit/1e3/pairs, len(onNS))
	l.o.set("engine.calibration_overhead_share", (hit-base)/base, len(onNS))
	l.check(firstErr)
}

// writes commits bid-stream batches to an in-process engine with a
// watcher attached, one at a time: how long Apply takes, how long the
// continuous query takes from commit notification to publishing the
// delta (Delta.Latency), and how long the published delta then takes to
// reach the subscriber.
func (l *layerBench) writes() error {
	d := l.in.docs[l.in.probeDoc]
	eng := xqp.NewEngine(xqp.EngineConfig{})
	if err := eng.RegisterString(d.name, d.xml); err != nil {
		return err
	}
	w := xqp.NewWatcher(eng, xqp.WatchConfig{})
	defer w.Close()
	sub, err := w.Subscribe(d.name, watchQuery)
	if err != nil {
		return err
	}
	defer sub.Close()
	<-sub.Deltas() // the snapshot
	stream := newBidStream(l.in)
	var apply, eval, deliver []float64
	for r := newReps(2*l.budget, 20); r.more(); {
		var muts []xqp.Mutation
		if err := json.Unmarshal(stream.nextBatch(), &muts); err != nil {
			return err
		}
		t0 := time.Now()
		_, err := eng.Apply(d.name, muts)
		t1 := time.Now()
		if err != nil {
			return err
		}
		delta, open := <-sub.Deltas()
		t2 := time.Now()
		if !open {
			return fmt.Errorf("watch subscription closed after %d commits", len(apply))
		}
		apply = append(apply, float64(t1.Sub(t0))/1e3)
		eval = append(eval, float64(delta.Latency)/1e3)
		// The delta was published Latency after the commit notification,
		// which Apply sends just before it returns.
		deliver = append(deliver, float64(t2.Sub(t1)-time.Duration(delta.Latency))/1e3)
	}
	l.o.set("engine.apply_us", median(apply), len(apply))
	l.o.set("cq.eval_us", median(eval), len(eval))
	l.o.set("cq.deliver_us", median(deliver), len(deliver))
	return nil
}

// router measures what routing adds to a query in process: the same
// pairs through cluster.Router over a LocalShard and straight to that
// shard.
func (l *layerBench) router(ctx context.Context) error {
	eng := xqp.NewEngine(xqp.EngineConfig{})
	for _, d := range l.in.docs {
		eng.RegisterStore(d.name, d.store)
	}
	shard := cluster.NewLocalShard("s0", eng)
	rt := cluster.New(cluster.Config{})
	if err := rt.AddShard(shard); err != nil {
		return err
	}
	var extra []float64
	for r := newReps(l.budget, 3); r.more(); {
		for _, rq := range l.pairs {
			q := l.in.w.queries[rq.query]
			doc, opts := l.in.docs[rq.doc].name, xqp.EngineQueryOptions{CostBased: q.cost}
			routed := func() error { _, err := rt.Query(ctx, doc, q.src, opts); return err }
			direct := func() error { _, err := shard.Query(ctx, doc, q.src, opts); return err }
			d, err := pairedExtra(r.pass(), routed, direct)
			if err != nil {
				return err
			}
			if r.pass() > 0 { // the first pass fills the plan cache
				extra = append(extra, d)
			}
		}
	}
	l.o.set("cluster.route_local_us", median(extra), len(extra))
	st := rt.Stats()
	l.o.set("cluster.failovers", float64(st.ReplicaRetries), 0)
	l.o.set("cluster.stale_rejected", float64(st.StaleReads), 0)
	return nil
}

// pairedExtra runs the same query two ways back to back and returns
// how much longer the first way took, in µs. Which way goes first
// alternates with pass, so whatever the second call gains from the
// first (warm caches, an awake server) cancels over passes; and because
// the difference is taken per query, the spread between the workload's
// cheap and expensive queries cancels too.
func pairedExtra(pass int, a, b func() error) (float64, error) {
	first, second := a, b
	if pass%2 == 1 {
		first, second = b, a
	}
	t0 := time.Now()
	err1 := first()
	t1 := time.Now()
	err2 := second()
	t2 := time.Now()
	if err1 != nil {
		return 0, err1
	}
	if err2 != nil {
		return 0, err2
	}
	d := float64(t1.Sub(t0)-t2.Sub(t1)) / 1e3
	if pass%2 == 1 {
		d = -d
	}
	return d, nil
}
