package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"xqp"
	"xqp/internal/cluster"
)

// routerOptions carries the -router flag set into runRouter.
type routerOptions struct {
	addr         string
	drain        time.Duration
	shards       shardFlags
	replicas     int
	fanout       int
	shardTimeout time.Duration
	partial      string
}

// runRouter serves the cluster-router API: the same /query, /docs and
// /metrics surface as a single-node xqd, but routed over the -shard
// backends — plus /cluster for placement introspection. Queries with
// "docs" fan out and merge; everything else routes to the owning shard.
func runRouter(opts routerOptions) {
	if len(opts.shards) == 0 {
		log.Fatal("xqd: -router needs at least one -shard name=url")
	}
	partial := cluster.PartialFail
	switch opts.partial {
	case "", "fail":
	case "degrade":
		partial = cluster.PartialDegrade
	default:
		log.Fatalf("xqd: unknown -partial %q (fail|degrade)", opts.partial)
	}
	rt := cluster.New(cluster.Config{
		Replicas:     opts.replicas,
		MaxFanOut:    opts.fanout,
		ShardTimeout: opts.shardTimeout,
		Partial:      partial,
	})
	for _, sf := range opts.shards {
		if err := rt.AddShard(cluster.NewHTTPShard(sf.name, sf.url, nil)); err != nil {
			log.Fatalf("xqd: %v", err)
		}
		log.Printf("shard %s at %s", sf.name, sf.url)
	}

	hs := &http.Server{Addr: opts.addr, Handler: newRouterServer(rt)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("xqd router listening on %s (%d shards)", opts.addr, len(opts.shards))
	select {
	case err := <-errc:
		log.Fatalf("xqd: %v", err)
	case <-ctx.Done():
		stop()
		log.Printf("xqd: signal received, draining for up to %s", opts.drain)
		sctx, cancel := context.WithTimeout(context.Background(), opts.drain)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Printf("xqd: drain incomplete: %v", err)
		}
		log.Printf("xqd: shutdown complete")
	}
}

// routerServer is the HTTP API over a cluster.Router.
type routerServer struct {
	rt  *cluster.Router
	mux *http.ServeMux
}

func newRouterServer(rt *cluster.Router) *routerServer {
	s := &routerServer{rt: rt}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/docs", s.handleDocs)
	mux.HandleFunc("/docs/", s.handleDoc)
	mux.HandleFunc("/cluster", s.handleCluster)
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, http.StatusOK, rt.Stats())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		writeRouterPrometheus(w, rt.Stats())
	})
	s.mux = mux
	return s
}

func (s *routerServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// routedResponse is the single-document routed answer: a queryResponse
// plus the answering shard.
type routedResponse struct {
	Items      []string `json:"items"`
	Count      int      `json:"count"`
	Cached     bool     `json:"cached"`
	Generation uint64   `json:"generation"`
	ExecNanos  int64    `json:"exec_ns"`
	Shard      string   `json:"shard"`
}

func (s *routerServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		req.Doc = q.Get("doc")
		if ds := q.Get("docs"); ds != "" {
			for _, d := range strings.Split(ds, ",") {
				if d = strings.TrimSpace(d); d != "" {
					req.Docs = append(req.Docs, d)
				}
			}
		}
		req.Query = q.Get("q")
		req.Strategy = q.Get("strategy")
		req.CostBased = boolParam(q.Get("cost"))
		req.Tenant = q.Get("tenant")
	case http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBody))
		if err != nil {
			httpError(w, bodyStatus(err), "reading body: "+err.Error())
			return
		}
		if err := json.Unmarshal(body, &req); err != nil {
			httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
			return
		}
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or POST only")
		return
	}
	if req.Query == "" || (req.Doc == "") == (len(req.Docs) == 0) {
		httpError(w, http.StatusBadRequest, "query plus exactly one of doc / docs is required")
		return
	}
	if req.Tenant == "" {
		req.Tenant = r.Header.Get("X-Tenant")
	}
	opts := xqp.EngineQueryOptions{
		CostBased: req.CostBased,
		NoCache:   req.NoCache,
		Tenant:    req.Tenant,
	}
	var ok bool
	if opts.Strategy, ok = parseStrategy(req.Strategy); !ok {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("unknown strategy %q", req.Strategy))
		return
	}
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	if len(req.Docs) > 0 {
		res, err := s.rt.Fan(ctx, req.Docs, req.Query, opts)
		if err != nil {
			httpError(w, statusFor(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, res)
		return
	}
	res, err := s.rt.Query(ctx, req.Doc, req.Query, opts)
	if err != nil {
		httpError(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, routedResponse{
		Items:      res.Items,
		Count:      res.Count,
		Cached:     res.Cached,
		Generation: res.Generation,
		ExecNanos:  res.ExecNanos,
		Shard:      res.Shard,
	})
}

func (s *routerServer) handleDocs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.rt.Placements())
}

func (s *routerServer) handleDoc(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/docs/")
	if docName, action, ok := cutLast(name, "/"); ok {
		s.handleDocMutation(w, r, docName, action)
		return
	}
	if name == "" {
		httpError(w, http.StatusNotFound, "bad document name")
		return
	}
	switch r.Method {
	case http.MethodPut:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBody))
		if err != nil {
			httpError(w, bodyStatus(err), "reading body: "+err.Error())
			return
		}
		if err := s.rt.Register(name, string(body)); err != nil {
			httpError(w, statusFor(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"registered": name, "owner": s.rt.Owner(name)})
	case http.MethodDelete:
		if err := s.rt.CloseDoc(name); err != nil {
			httpError(w, statusFor(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"closed": name})
	default:
		httpError(w, http.StatusMethodNotAllowed, "PUT or DELETE only")
	}
}

func (s *routerServer) handleDocMutation(w http.ResponseWriter, r *http.Request, name, action string) {
	if name == "" || strings.Contains(name, "/") || (action != "append" && action != "apply") {
		httpError(w, http.StatusNotFound, "bad document path")
		return
	}
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBody))
	if err != nil {
		httpError(w, bodyStatus(err), "reading body: "+err.Error())
		return
	}
	var res *xqp.ApplyResult
	switch action {
	case "append":
		res, err = s.rt.Append(name, string(body))
	case "apply":
		var muts []xqp.Mutation
		if derr := json.Unmarshal(body, &muts); derr != nil {
			httpError(w, http.StatusBadRequest, "bad mutation JSON: "+derr.Error())
			return
		}
		res, err = s.rt.Apply(name, muts)
	}
	if err != nil {
		httpError(w, mutationStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// clusterResponse is /cluster: the shard map, counters, and placement.
type clusterResponse struct {
	Shards     []string               `json:"shards"`
	Stats      cluster.Stats          `json:"stats"`
	Placements []cluster.DocPlacement `json:"placements"`
}

func (s *routerServer) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, clusterResponse{
		Shards:     s.rt.ShardNames(),
		Stats:      s.rt.Stats(),
		Placements: s.rt.Placements(),
	})
}

// writeRouterPrometheus renders the router counters in the Prometheus
// text exposition format under the xqp_router_* namespace.
func writeRouterPrometheus(w io.Writer, s cluster.Stats) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gauge("xqp_router_map_version", "Shard-map version (bumped on membership changes).", int64(s.MapVersion))
	gauge("xqp_router_shards", "Member shards.", int64(s.Shards))
	gauge("xqp_router_documents", "Documents with routed placement state.", int64(s.Docs))
	counter("xqp_router_routed_total", "Single-document reads routed to a shard.", s.Routed)
	counter("xqp_router_routed_errors_total", "Routed reads failed after exhausting candidates.", s.RoutedErrors)
	counter("xqp_router_replica_retries_total", "Routed reads that needed a failover hop.", s.ReplicaRetries)
	counter("xqp_router_stale_reads_total", "Replica answers rejected below the write-acked generation floor.", s.StaleReads)
	counter("xqp_router_fan_queries_total", "Federated queries.", s.FanQueries)
	counter("xqp_router_fan_docs_total", "Per-document sub-queries inside federated queries.", s.FanDocs)
	counter("xqp_router_fan_degraded_total", "Documents dropped from federated answers under the degrade policy.", s.FanDegraded)
	counter("xqp_router_writes_total", "Replicated write operations.", s.Writes)
	counter("xqp_router_write_errors_total", "Replicated writes failed on some copy.", s.WriteErrors)
	counter("xqp_router_migrated_docs_total", "Document copies moved by membership changes.", s.MigratedDocs)
	counter("xqp_router_migrate_errors_total", "Failed migration steps.", s.MigrateErrors)
}
