package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"xqp"
	"xqp/internal/cluster"
)

// inproc stands in for xqd's HTTP handlers during the traced replay: it
// takes the same request bodies, makes the same calls into the engine
// (or the router, for the routed workload) and produces the same
// response bytes, recording a span around each call. cmd/xqd is not
// instrumented; these spans are taken from outside, in the benchmark's
// own process, where there is no HTTP, no second process and no
// scheduler hop between client and server — which is exactly what the
// HTTP residual then measures.
type inproc struct {
	rec     *recorder
	engines []*xqp.Engine   // one for single-node, two shards for routed
	rt      *cluster.Router // non-nil for the routed workload
	watcher *xqp.Watcher    // on engines[0]
	reqs    atomic.Int64    // request ids for spans

	resultBytes atomic.Int64 // Σ bytes of serialized items
	respBytes   atomic.Int64 // Σ bytes of response bodies
	queries     atomic.Int64
}

// newInproc registers the instance's documents the way the spawned
// topology holds them: one engine, or two shard engines behind a
// router with two replicas.
func newInproc(in *instance, rec *recorder) (*inproc, error) {
	p := &inproc{rec: rec}
	if !in.w.routed {
		eng := xqp.NewEngine(xqp.EngineConfig{})
		for _, d := range in.docs {
			if err := eng.RegisterString(d.name, d.xml); err != nil {
				return nil, err
			}
		}
		p.engines = []*xqp.Engine{eng}
	} else {
		p.rt = cluster.New(cluster.Config{Replicas: 2})
		for i := 0; i < 2; i++ {
			eng := xqp.NewEngine(xqp.EngineConfig{})
			p.engines = append(p.engines, eng)
			shard := &tracedShard{LocalShard: cluster.NewLocalShard(fmt.Sprintf("s%d", i), eng), p: p}
			if err := p.rt.AddShard(shard); err != nil {
				return nil, err
			}
		}
		for _, d := range in.docs {
			if err := p.rt.Register(d.name, d.xml); err != nil {
				return nil, err
			}
		}
	}
	p.watcher = xqp.NewWatcher(p.engines[0], xqp.WatchConfig{})
	return p, nil
}

func (p *inproc) close() { p.watcher.Close() }

// The wire shapes of cmd/xqd (main.go, router.go), field for field in
// the order xqd declares them, so decode and encode do the same work.
type wireRequest struct {
	Doc   string `json:"doc"`
	Query string `json:"query"`
	Cost  bool   `json:"cost,omitempty"`
}

type wireResponse struct {
	Items      []string `json:"items"`
	Count      int      `json:"count"`
	Cached     bool     `json:"cached"`
	Generation uint64   `json:"generation"`
	QueueNanos int64    `json:"queue_ns"`
	ExecNanos  int64    `json:"exec_ns"`
}

type wireRouted struct {
	Items      []string `json:"items"`
	Count      int      `json:"count"`
	Cached     bool     `json:"cached"`
	Generation uint64   `json:"generation"`
	ExecNanos  int64    `json:"exec_ns"`
	Shard      string   `json:"shard"`
}

// encode is xqd's writeJSON without the socket.
func encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// spanKey carries the enclosing span through cluster.Router into a
// tracedShard.
type spanKey struct{}

type spanRef struct{ req, parent int }

// tracedShard is cluster.LocalShard with the query path opened up, so
// that the routed replay shows the same engine spans under
// cluster.route that the single-node replay shows under request.
type tracedShard struct {
	*cluster.LocalShard
	p *inproc
}

func (s *tracedShard) Query(ctx context.Context, doc, src string, opts xqp.EngineQueryOptions) (*cluster.ShardResult, error) {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	res, items, err := s.p.engineQuery(ctx, s.Engine(), ref.req, ref.parent, doc, src, opts)
	if err != nil {
		return nil, err
	}
	return &cluster.ShardResult{
		Items: items, Count: len(items), Generation: res.Generation,
		Cached: res.Cached, Shard: s.Name(), ExecNanos: res.ExecTime.Nanoseconds(),
	}, nil
}

// engineQuery is the engine part of a request: engine.query →
// {engine.queue, exec.run}, then xqp.xmlitems. The engine reports queue
// wait and execution as durations, not events: admission wait opens the
// query and plan execution closes it, so what lies between — plan-cache
// lookup or compilation — is engine.query's self time.
func (p *inproc) engineQuery(ctx context.Context, eng *xqp.Engine, id, parent int, doc, src string, opts xqp.EngineQueryOptions) (*xqp.Result, []string, error) {
	s := p.rec.begin(id, parent, "engine.query")
	start := p.rec.now()
	res, err := eng.QueryWith(ctx, doc, src, opts)
	end := p.rec.now()
	p.rec.end(s)
	if err != nil {
		return nil, nil, err
	}
	p.rec.add(id, s.id, "engine.queue", start, start+int64(res.QueueWait))
	p.rec.add(id, s.id, "exec.run", end-int64(res.ExecTime), end)
	s = p.rec.begin(id, parent, "xqp.xmlitems")
	items := res.XMLItems()
	p.rec.end(s)
	return res, items, nil
}

// query is handleQuery: request → {json.decode, engine.query →
// {engine.queue, exec.run}, xqp.xmlitems, json.encode}; on the routed
// workload cluster.route sits between request and the engine spans.
func (p *inproc) query(ctx context.Context, body []byte) ([]byte, error) {
	id := int(p.reqs.Add(1))
	root := p.rec.begin(id, noParent, "request")
	defer p.rec.end(root)

	s := p.rec.begin(id, root.id, "json.decode")
	var req wireRequest
	err := json.Unmarshal(body, &req)
	p.rec.end(s)
	if err != nil {
		return nil, err
	}
	opts := xqp.EngineQueryOptions{CostBased: req.Cost}

	var resp any
	var items []string
	if p.rt != nil {
		s = p.rec.begin(id, root.id, "cluster.route")
		res, err := p.rt.Query(context.WithValue(ctx, spanKey{}, spanRef{id, s.id}), req.Doc, req.Query, opts)
		p.rec.end(s)
		if err != nil {
			return nil, err
		}
		items = res.Items
		resp = wireRouted{res.Items, res.Count, res.Cached, res.Generation, res.ExecNanos, res.Shard}
	} else {
		res, its, err := p.engineQuery(ctx, p.engines[0], id, root.id, req.Doc, req.Query, opts)
		if err != nil {
			return nil, err
		}
		items = its
		resp = wireResponse{items, res.Len(), res.Cached, res.Generation, res.QueueWait.Nanoseconds(), res.ExecTime.Nanoseconds()}
	}

	s = p.rec.begin(id, root.id, "json.encode")
	out, err := encode(resp)
	p.rec.end(s)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, it := range items {
		n += len(it)
	}
	p.resultBytes.Add(int64(n))
	p.respBytes.Add(int64(len(out)))
	p.queries.Add(1)
	return out, nil
}

// apply is handleDocMutation: commit → {commit.decode, engine.apply,
// commit.encode}.
func (p *inproc) apply(ctx context.Context, doc string, body []byte) (uint64, error) {
	id := int(p.reqs.Add(1))
	root := p.rec.begin(id, noParent, "commit")
	defer p.rec.end(root)

	s := p.rec.begin(id, root.id, "commit.decode")
	var muts []xqp.Mutation
	err := json.Unmarshal(body, &muts)
	p.rec.end(s)
	if err != nil {
		return 0, err
	}
	s = p.rec.begin(id, root.id, "engine.apply")
	var res *xqp.ApplyResult
	if p.rt != nil {
		res, err = p.rt.Apply(doc, muts)
	} else {
		res, err = p.engines[0].Apply(doc, muts)
	}
	p.rec.end(s)
	if err != nil {
		return 0, err
	}
	s = p.rec.begin(id, root.id, "commit.encode")
	_, err = encode(res)
	p.rec.end(s)
	return res.Generation, err
}

// watch is serveSSE without the stream: deltas go straight from the
// subscription to the callback.
func (p *inproc) watch(ctx context.Context, doc, query string, onDelta func(xqp.Delta)) error {
	sub, err := p.watcher.Subscribe(doc, query)
	if err != nil {
		return err
	}
	defer sub.Close()
	for {
		select {
		case d, open := <-sub.Deltas():
			if !open {
				return fmt.Errorf("subscription closed (lagged=%v)", sub.Lagged())
			}
			onDelta(d)
		case <-ctx.Done():
			return nil
		}
	}
}
