package main

import (
	"context"
	"fmt"
	"time"
)

// segments is how many equal parts a timed run's window is cut into.
// Each part runs against servers started from nothing, and every
// end-to-end metric is the median of its five per-segment values: what a
// noisy neighbour or an unlucky heap layout does to one segment cannot
// move the median of five, and set-up is timed five times at no extra
// cost.
const segments = 5

// probeCommits is the fixed number of commits the probe sends after a
// window on workloads that have no writer of their own.
const probeCommits = 40

// target is a server as the workload drivers see it: the HTTP client
// of a spawned xqd, or the in-process stand-in of the traced replay.
type target interface {
	committer
	observer
	close()
}

// runner drives one workload instance against a target that has the
// instance's documents registered.
type runner struct {
	in     *instance
	topo   *topology // spawned processes; nil for the in-process replay
	front  target    // request path: xqd, or the router
	engine target    // holds the probe document (for /watch)
	bodies [][][]byte
	rec    *recorder // client-side spans; nil when client tracing is off
}

func newRunner(in *instance, topo *topology, front, engine target) *runner {
	r := &runner{in: in, topo: topo, front: front, engine: engine}
	for _, d := range in.docs {
		row := make([][]byte, len(in.w.queries))
		for q, spec := range in.w.queries {
			row[q] = queryBody(d.name, spec)
		}
		r.bodies = append(r.bodies, row)
	}
	return r
}

// setUp is what setup_s times: spawn → every document registered over
// HTTP → a fixed-count warm-up pass answered correctly.
func setUp(ctx context.Context, e *env, in *instance) (*runner, time.Duration, error) {
	t0 := time.Now()
	topo, err := e.start(in.w.routed)
	if err != nil {
		return nil, 0, err
	}
	front := newClient(topo.front.base, in.w.clients)
	r := newRunner(in, topo, front, newClient(topo.engines()[0].base, 1))
	for _, d := range in.docs {
		if err := front.putDoc(ctx, d.name, d.xml); err != nil {
			r.close()
			return nil, 0, fmt.Errorf("registering %s: %w", d.name, err)
		}
	}
	warm := closedLoop(ctx, in.w.clients, 0, in.w.warmCycles*len(in.cycle), r.readOp(nil))
	if warm.failed > 0 {
		r.close()
		return nil, 0, fmt.Errorf("warm-up: %d of %d requests failed, first: %w", warm.failed, warm.attempted, warm.firstErr)
	}
	return r, time.Since(t0), nil
}

func (r *runner) close() {
	r.front.close()
	if r.engine != r.front {
		r.engine.close()
	}
	if r.topo != nil {
		r.topo.stop()
	}
}

// readOp is the read request of the workload's cycle. With a bid stream
// running (the writer workload, whose query 0 is the watched twig),
// that twig on the probe document is checked against the answer for the
// generation the response reports; every other pair has one fixed
// answer.
func (r *runner) readOp(stream *bidStream) opFunc {
	return func(ctx context.Context, worker, seq int) error {
		rq := r.in.cycle[seq%len(r.in.cycle)]
		root := r.rec.begin(seq, noParent, "client.request")
		rt := r.rec.begin(seq, root.id, "client.roundtrip")
		body, err := r.front.query(ctx, r.bodies[rq.doc][rq.query])
		r.rec.end(rt)
		if err == nil {
			chk := r.rec.begin(seq, root.id, "client.check")
			err = r.check(body, rq, stream)
			r.rec.end(chk)
		}
		r.rec.end(root)
		return err
	}
}

func (r *runner) check(body []byte, rq request, stream *bidStream) error {
	if stream == nil || rq.doc != r.in.probeDoc || rq.query != 0 {
		return checkResponse(body, r.in.expect[rq.doc][rq.query])
	}
	prefix, gen, err := splitResponse(body)
	if err != nil {
		return err
	}
	want, ok := stream.answerAt(gen)
	if !ok {
		return fmt.Errorf("answer from generation %d, which no commit produced", gen)
	}
	if string(prefix) != want {
		return fmt.Errorf("wrong answer at generation %d: got %.120s…, want %.120s…", gen, prefix, want)
	}
	return nil
}

// window drives the workload's read side for d: open loop at the
// workload's rate when it has one, closed loop otherwise.
func (r *runner) window(ctx context.Context, d time.Duration, stream *bidStream) *loadResult {
	if r.in.w.rate > 0 {
		return openLoop(ctx, r.in.w.clients, r.in.w.rate, d, r.readOp(stream))
	}
	return closedLoop(ctx, r.in.w.clients, d, 0, r.readOp(stream))
}

// measured is everything one window produced, reads and writes.
type measured struct {
	reads  *loadResult
	writes *writeResult
	rssMB  float64
}

// measure runs one timed window; stream is the write side, which keeps
// its mirror of the document across windows. On the writer workload the
// bid stream runs beside the readers for the whole window, committing
// at the workload's rate. The other
// workloads' windows are read-only; their commits are probed afterwards
// (see probe), so that commit and delta latency exist for every
// workload without writes disturbing a read-only window.
func (r *runner) measure(ctx context.Context, d time.Duration, stream *bidStream) (*measured, error) {
	m := &measured{writes: &writeResult{}}
	if rate := r.in.w.commitRate; rate > 0 {
		start := time.Now()
		done := make(chan *writeResult, 1)
		go func() {
			// Bids arrive on a schedule, like the requests of an open loop;
			// commit latency runs from the send, so a late sleep costs
			// nothing but rate.
			done <- stream.run(ctx, r.front, r.engine, func(n int) bool {
				time.Sleep(time.Until(dueTime(start, n, rate)))
				return time.Since(start) < d
			})
		}()
		m.reads = r.window(ctx, d, stream)
		m.writes = <-done
	} else {
		m.reads = r.window(ctx, d, nil)
	}
	if r.topo != nil {
		var err error
		if m.rssMB, err = r.topo.peakRSSMB(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// probe sends probeCommits commits with a watcher attached, on
// workloads that have no writer of their own. It changes the probe
// document, so it comes after the last read window of a run.
func (r *runner) probe(ctx context.Context, m *measured, stream *bidStream) {
	if r.in.w.commitRate == 0 {
		m.writes = stream.run(ctx, r.front, r.engine, func(n int) bool { return n < probeCommits })
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result of one run of one workload: the contract's
// fields plus the conditions and sample counts behind the numbers.
type outcome struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples is the number of timings behind each timing metric.
	Samples map[string]int `json:"samples"`
	// Unresolved names metrics whose sample cannot support them (a p99
	// with fewer than ten samples beyond it in some segment).
	Unresolved []string `json:"unresolved,omitempty"`
	Load       string   `json:"load"` // "closed, 2 clients" / "open, 500 req/s, 2 in flight"
	LateShare  float64  `json:"late_share"`
	FirstError string   `json:"first_error,omitempty"`

	// units maps the metrics this kind of run must emit to their units,
	// as BENCHMARK.json declares them.
	units map[string]string
}

// set reports a metric; its unit is the one BENCHMARK.json declares.
func (o *outcome) set(name string, v float64, samples int) {
	o.Metrics[name] = metric{Value: v, Unit: o.units[name]}
	if samples > 0 {
		o.Samples[name] = samples
	}
}

func (o *outcome) count(attempted, failed int, err error) {
	o.Attempted += attempted
	o.Failed += failed
	if err != nil && o.FirstError == "" {
		o.FirstError = err.Error()
	}
}

func newOutcome(in *instance, declared []metricSpec, seconds float64, trace bool) *outcome {
	o := &outcome{
		Workload: in.w.name, Seed: in.seed, Seconds: seconds, Trace: trace,
		Metrics: map[string]metric{}, Samples: map[string]int{}, units: map[string]string{},
	}
	for _, ms := range declared {
		o.units[ms.Name] = ms.Unit
	}
	if in.w.rate > 0 {
		o.Load = fmt.Sprintf("open loop, %g req/s, at most %d in flight", in.w.rate, in.w.clients)
	} else {
		o.Load = fmt.Sprintf("closed loop, %d clients", in.w.clients)
	}
	if in.w.commitRate > 0 {
		o.Load += fmt.Sprintf(" + 1 writer at %g commits/s + 1 SSE watcher", in.w.commitRate)
	}
	return o
}

// runEndToEnd is one --trace 0 run: the window in five segments, each
// on freshly started and warmed servers, client tracing off, every
// answer checked.
func runEndToEnd(ctx context.Context, e *env, in *instance, declared []metricSpec, seconds float64) (*outcome, error) {
	o := newOutcome(in, declared, seconds, false)
	per := time.Duration(seconds / segments * float64(time.Second))
	vals := map[string][]float64{}
	counts := map[string]int{}
	add := func(name string, v float64, n int) {
		vals[name] = append(vals[name], v)
		counts[name] += n
	}
	var tails [][]float64
	for i := 0; i < segments; i++ {
		m, setup, err := runSegment(ctx, e, in, per)
		if err != nil {
			return nil, err
		}
		o.count(m.reads.attempted, m.reads.failed, m.reads.firstErr)
		o.count(m.writes.attempted, m.writes.failed, m.writes.firstErr)
		o.LateShare += float64(m.reads.late) / float64(max(m.reads.attempted, 1)) / segments

		lat, n := microseconds(m.reads.samples), len(m.reads.samples)
		tails = append(tails, lat)
		add("setup_s", setup.Seconds(), 1)
		add("throughput_qps", float64(n)/m.reads.elapsed.Seconds(), n)
		add("p50_us", percentile(lat, 0.5), n)
		add("commit_p50_us", percentile(microseconds(m.writes.commits), 0.5), len(m.writes.commits))
		add("delta_p50_us", median(m.writes.deltas), len(m.writes.deltas))
		add("peak_rss_mb", m.rssMB, 0)
	}
	for name, v := range vals {
		o.set(name, median(v), counts[name])
	}
	p99, resolved := medianP99(tails)
	o.set("p99_us", p99, counts["p50_us"])
	if !resolved {
		o.Unresolved = append(o.Unresolved, "p99_us")
	}
	o.set("store_bytes_per_xml_byte", in.storeBytesPerXMLByte(), 0)
	o.Correct = o.Failed == 0
	return o, nil
}

// runSegment starts and warms the servers, measures one window of
// length d with the commit probe behind it, and stops them again.
func runSegment(ctx context.Context, e *env, in *instance, d time.Duration) (*measured, time.Duration, error) {
	r, setup, err := setUp(ctx, e, in)
	if err != nil {
		return nil, 0, err
	}
	defer r.close()
	stream := newBidStream(in)
	m, err := r.measure(ctx, d, stream)
	if err != nil {
		return nil, 0, err
	}
	r.probe(ctx, m, stream)
	return m, setup, nil
}
