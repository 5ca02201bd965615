// Command xqd serves XQuery-subset queries over HTTP: a thin shell over
// the xqp Engine (document catalog, plan cache, admission control,
// per-request deadlines).
//
// Usage:
//
//	xqd -addr :8080 -doc bib=bib.xml -doc site=auction.xml
//
// Endpoints:
//
//	POST /query        {"doc":"bib","query":"//book/title"}  → result JSON
//	GET  /query?doc=bib&q=//book/title                       → same
//	GET  /query?doc=bib&q=//book/title&trace=1               → + execution trace
//	GET  /query?doc=bib&q=//book/title&parallel=4            → partitioned τ execution
//	GET  /docs                                               → catalog listing
//	PUT  /docs/{name}  <XML body>                            → register/replace
//	DELETE /docs/{name}                                      → close
//	POST /docs/{name}/append  <XML fragments>                → streaming ingest (one commit)
//	POST /docs/{name}/apply   [{"op":"insert",...}]          → mutation batch (one commit)
//	GET  /watch?doc=bib&q=//book/title                       → continuous query (SSE stream)
//	GET  /watch?doc=bib&q=//book/title&since=N&wait=10s      → same, long-poll JSON
//	GET  /watch/stats                                        → continuous-query counters
//	GET  /stats                                              → engine counters
//	GET  /metrics                                            → Prometheus text format
//	GET  /debug/vars                                         → expvar (incl. "xqp")
//
// With strategy auto (the default) the cost model picks the physical
// pattern-matching strategy per pattern; the cost parameter and the
// "cost" request field are accepted for compatibility and change
// nothing.
//
// Saturation maps to 503, unknown documents to 404, deadline expiry to
// 504, compile errors and integer overflow (FOAR0002) to 400, request
// bodies over 16 MiB to 413, and unexpected execution failures to 500.
//
// On SIGINT/SIGTERM the daemon stops accepting connections, closes
// watch streams, and drains in-flight requests for up to -drain before
// exiting.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"xqp"
)

func main() {
	fs := flag.NewFlagSet("xqd", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	var docs docFlags
	fs.Var(&docs, "doc", "document to serve as name=path (repeatable)")
	maxConcurrent := fs.Int("max-concurrent", 0, "max concurrently executing queries (0: GOMAXPROCS)")
	queueDepth := fs.Int("queue", 0, "queries allowed to wait for a worker (0: 4x max-concurrent, <0: none)")
	cacheSize := fs.Int("cache", 0, "compiled-plan cache size (0: 256, <0: disabled)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-query deadline (0: none)")
	drain := fs.Duration("drain", 10*time.Second, "shutdown drain deadline for in-flight requests")
	calibFile := fs.String("calibration", "", "calibration state file: restored at startup, written back on shutdown so restarts keep their tuning")
	tenantQuota := fs.Int("tenant-quota", 0, "max in-flight queries per tenant (0: no per-tenant quota); rejections are 429")
	routerMode := fs.Bool("router", false, "run as a cluster router over -shard backends instead of serving a local engine")
	var shards shardFlags
	fs.Var(&shards, "shard", "router mode: shard backend as name=http://host:port (repeatable)")
	replicas := fs.Int("replicas", 1, "router mode: copies per document, including the owner")
	fanout := fs.Int("fanout", 8, "router mode: max concurrently outstanding shard requests per federated query")
	shardTimeout := fs.Duration("shard-timeout", 0, "router mode: per-shard deadline inside a federated query (0: inherit)")
	partial := fs.String("partial", "fail", "router mode: federated partial-failure policy, fail|degrade")
	fs.Parse(os.Args[1:])

	if *routerMode {
		runRouter(routerOptions{
			addr:         *addr,
			drain:        *drain,
			shards:       shards,
			replicas:     *replicas,
			fanout:       *fanout,
			shardTimeout: *shardTimeout,
			partial:      *partial,
		})
		return
	}

	eng := xqp.NewEngine(xqp.EngineConfig{
		MaxConcurrent:  *maxConcurrent,
		QueueDepth:     *queueDepth,
		PlanCacheSize:  *cacheSize,
		DefaultTimeout: *timeout,
		TenantQuota:    *tenantQuota,
	})
	for _, d := range docs {
		f, err := os.Open(d.path)
		if err != nil {
			log.Fatalf("xqd: %v", err)
		}
		err = eng.Register(d.name, f)
		f.Close()
		if err != nil {
			log.Fatalf("xqd: %v", err)
		}
		log.Printf("registered %s from %s", d.name, d.path)
	}
	if *calibFile != "" {
		// Restore after registration (entries target registered docs); a
		// missing file is a fresh start, a corrupt one is a hard error so
		// tuning is never silently discarded.
		data, err := os.ReadFile(*calibFile)
		switch {
		case errors.Is(err, os.ErrNotExist):
			log.Printf("calibration state %s not found, starting fresh", *calibFile)
		case err != nil:
			log.Fatalf("xqd: %v", err)
		default:
			if err := eng.RestoreCalibration(data); err != nil {
				log.Fatalf("xqd: restoring calibration from %s: %v", *calibFile, err)
			}
			log.Printf("restored calibration state from %s", *calibFile)
		}
	}

	srv := newServer(eng)
	hs := newHTTPServer(*addr, srv)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("xqd listening on %s (%d documents)", *addr, len(docs))
	select {
	case err := <-errc:
		log.Fatalf("xqd: %v", err)
	case <-ctx.Done():
		stop() // a second signal kills immediately
		log.Printf("xqd: signal received, draining for up to %s", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Printf("xqd: drain incomplete: %v", err)
		}
		if *calibFile != "" {
			if err := saveCalibration(eng, *calibFile); err != nil {
				log.Printf("xqd: saving calibration: %v", err)
			} else {
				log.Printf("saved calibration state to %s", *calibFile)
			}
		}
		log.Printf("xqd: shutdown complete")
	}
}

// saveCalibration snapshots the engine's calibration state and writes
// it atomically (temp file + rename), so a crash mid-write leaves the
// previous state intact.
func saveCalibration(eng *xqp.Engine, path string) error {
	data, err := eng.CalibrationSnapshot()
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// newHTTPServer wires a server into an http.Server whose Shutdown also
// tears down the watch subsystem, so open SSE and long-poll streams end
// promptly and the drain can complete.
func newHTTPServer(addr string, s *server) *http.Server {
	hs := &http.Server{Addr: addr, Handler: s}
	hs.RegisterOnShutdown(s.watch.Close)
	return hs
}

type docFlag struct{ name, path string }

type docFlags []docFlag

func (f *docFlags) String() string { return fmt.Sprint(*f) }

func (f *docFlags) Set(s string) error {
	name, path, ok := strings.Cut(s, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", s)
	}
	*f = append(*f, docFlag{name, path})
	return nil
}

type shardFlag struct{ name, url string }

type shardFlags []shardFlag

func (f *shardFlags) String() string { return fmt.Sprint(*f) }

func (f *shardFlags) Set(s string) error {
	name, url, ok := strings.Cut(s, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("want name=url, got %q", s)
	}
	*f = append(*f, shardFlag{name, url})
	return nil
}

// maxQueryBody bounds request bodies (queries and uploaded documents).
// Bodies are read through http.MaxBytesReader, so a longer one fails
// with 413 instead of being silently cut short.
const maxQueryBody = 16 << 20

// bodyStatus maps a failure to read or parse a request body: 413 for a
// body over maxQueryBody, otherwise the client's 400.
func bodyStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// server is the HTTP API over an engine plus its continuous-query
// watcher. It implements http.Handler.
type server struct {
	eng   *xqp.Engine
	watch *xqp.Watcher
	mux   *http.ServeMux
}

// newServer builds the HTTP API over an engine.
func newServer(eng *xqp.Engine) *server {
	s := &server{eng: eng, watch: xqp.NewWatcher(eng, xqp.WatchConfig{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) { handleQuery(eng, w, r) })
	mux.HandleFunc("/docs", func(w http.ResponseWriter, r *http.Request) { handleDocs(eng, w, r) })
	mux.HandleFunc("/docs/", s.handleDoc)
	mux.HandleFunc("/watch", s.handleWatch)
	mux.HandleFunc("/watch/stats", s.handleWatchStats)
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, http.StatusOK, eng.Stats())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		writePrometheus(w, eng.Stats())
		writeWatchPrometheus(w, s.watch.Stats())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	publishOnce(eng)
	s.mux = mux
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writePrometheus renders the engine snapshot in the Prometheus text
// exposition format (counters, gauges, and a cumulative latency
// histogram), so the daemon is scrapeable without extra dependencies.
func writePrometheus(w io.Writer, s xqp.EngineStats) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("xqp_served_total", "Queries completed successfully.", s.Served)
	counter("xqp_failed_total", "Queries that ended in an error.", s.Failed)
	counter("xqp_canceled_total", "Queries ended by cancellation or deadline.", s.Canceled)
	counter("xqp_rejected_total", "Queries refused at admission (saturated).", s.Rejected)
	counter("xqp_tenant_rejected_total", "Queries refused at their tenant's quota.", s.TenantRejected)
	counter("xqp_plan_cache_hits_total", "Plan-cache hits.", s.CacheHits)
	counter("xqp_plan_cache_misses_total", "Plan-cache misses.", s.CacheMisses)
	counter("xqp_compilations_total", "Full compile pipeline runs.", s.Compilations)
	counter("xqp_strategy_fallbacks_total", "Tau dispatches where the executed strategy differed from the chooser's pick.", s.StrategyFallbacks)
	counter("xqp_tau_parallel_total", "Tau dispatches that fanned out over partitions.", s.ParallelTau)
	counter("xqp_parallel_fallbacks_total", "Tau dispatches where requested parallelism fell back to serial.", s.ParallelFallbacks)
	counter("xqp_calibration_observations_total", "Tau dispatch records folded into the cost-model calibrators.", s.CalibrationObservations)
	counter("xqp_chooser_regret_total", "Dispatches where the chooser's pick was beaten by the best observed strategy for that shape.", s.ChooserRegret)
	counter("xqp_updates_total", "Committed mutation batches (Apply/Append).", s.Updates)
	counter("xqp_update_nodes_inserted_total", "Nodes inserted by committed mutations.", s.UpdateNodesInserted)
	counter("xqp_update_nodes_deleted_total", "Nodes deleted by committed mutations.", s.UpdateNodesDeleted)
	counter("xqp_update_succinct_dirty_bytes_total", "Succinct-encoding dirty bytes across committed mutations.", s.UpdateSuccinctDirtyBytes)
	counter("xqp_update_interval_dirty_bytes_total", "Interval-encoding dirty bytes across committed mutations.", s.UpdateIntervalDirtyBytes)
	fmt.Fprintf(w, "# HELP xqp_tau_total Tau dispatches by executed strategy.\n# TYPE xqp_tau_total counter\n")
	for _, name := range []string{"nok", "twigstack", "pathstack", "naive", "hybrid"} {
		fmt.Fprintf(w, "xqp_tau_total{strategy=%q} %d\n", name, s.TauByStrategy[name])
	}
	gauge("xqp_in_flight", "Queries currently executing.", int64(s.InFlight))
	gauge("xqp_queued", "Queries waiting for a worker.", int64(s.Queued))
	gauge("xqp_documents", "Registered documents.", int64(s.Documents))
	gauge("xqp_cached_plans", "Compiled plans currently cached.", int64(s.CachedPlans))
	fmt.Fprintf(w, "# HELP xqp_exec_seconds Query execution time.\n# TYPE xqp_exec_seconds histogram\n")
	bounds := xqp.ExecHistBounds()
	var cum int64
	for i, ub := range bounds {
		cum += s.ExecHist[i]
		fmt.Fprintf(w, "xqp_exec_seconds_bucket{le=%q} %d\n", formatSeconds(ub), cum)
	}
	cum += s.ExecHist[len(bounds)]
	fmt.Fprintf(w, "xqp_exec_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "xqp_exec_seconds_sum %g\n", s.ExecTime.Seconds())
	fmt.Fprintf(w, "xqp_exec_seconds_count %d\n", cum)
}

func formatSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

// publishGuard serializes publication on the process-global expvar
// registry; expvar panics on duplicate names, so only the first engine
// is published (relevant in tests that build several servers, possibly
// concurrently).
var publishGuard sync.Once

func publishOnce(eng *xqp.Engine) {
	publishGuard.Do(func() { expvar.Publish("xqp", statsVar{eng}) })
}

type statsVar struct{ eng *xqp.Engine }

func (v statsVar) String() string {
	b, err := json.Marshal(v.eng.Stats())
	if err != nil {
		return "{}"
	}
	return string(b)
}

type queryRequest struct {
	Doc   string `json:"doc"`
	Query string `json:"query"`
	// Strategy: auto|nok|twigstack|pathstack|naive|hybrid.
	Strategy string `json:"strategy,omitempty"`
	// CostBased is a no-op kept for compatibility: auto is cost-chosen.
	CostBased bool `json:"cost,omitempty"`
	// Trace attaches the per-operator execution trace (EXPLAIN ANALYZE)
	// to the response.
	Trace     bool `json:"trace,omitempty"`
	NoCache   bool `json:"no_cache,omitempty"`
	NoRewrite bool `json:"no_rewrites,omitempty"`
	NoAnalyze bool `json:"no_analyze,omitempty"`
	// TimeoutMS tightens (never extends) the server's default deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Parallel is the worker budget for partitioned pattern matching
	// (0 or 1: serial; N>1: up to N workers; -1: one per CPU).
	Parallel int `json:"parallel,omitempty"`
	// Tenant is the multi-tenancy key: it selects the plan-cache
	// partition and the admission-quota bucket. The X-Tenant header and
	// ?tenant= query parameter set it too (the body field wins).
	Tenant string `json:"tenant,omitempty"`
	// Docs federates the query over several documents (router mode
	// only): each document routes to its owning shard and the answers
	// merge in this order. Mutually exclusive with Doc.
	Docs []string `json:"docs,omitempty"`
}

// queryResponse is the shape of a /query answer. writeQueryResponse
// writes it without encoding/json; the type is the reference its output
// is tested against, and what clients decode.
type queryResponse struct {
	Items       []string `json:"items"`
	Count       int      `json:"count"`
	Cached      bool     `json:"cached"`
	Generation  uint64   `json:"generation"`
	QueueNanos  int64    `json:"queue_ns"`
	ExecNanos   int64    `json:"exec_ns"`
	Diagnostics []string `json:"diagnostics,omitempty"`
	// Trace is the per-operator execution trace, present when requested.
	Trace *xqp.TraceSpan `json:"trace,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func handleQuery(eng *xqp.Engine, w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		req.Doc = q.Get("doc")
		req.Query = q.Get("q")
		req.Strategy = q.Get("strategy")
		req.CostBased = boolParam(q.Get("cost"))
		req.Trace = boolParam(q.Get("trace"))
		req.Tenant = q.Get("tenant")
		if p := q.Get("parallel"); p != "" {
			n, err := strconv.Atoi(p)
			if err != nil {
				httpError(w, http.StatusBadRequest, "bad parallel value: "+p)
				return
			}
			req.Parallel = n
		}
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
	if req.Doc == "" || req.Query == "" {
		httpError(w, http.StatusBadRequest, "doc and query are required")
		return
	}
	if req.Tenant == "" {
		req.Tenant = r.Header.Get("X-Tenant")
	}
	opts := xqp.EngineQueryOptions{
		CostBased:       req.CostBased,
		Trace:           req.Trace,
		NoCache:         req.NoCache,
		DisableRewrites: req.NoRewrite,
		DisableAnalyzer: req.NoAnalyze,
		Parallelism:     req.Parallel,
		Tenant:          req.Tenant,
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
	res, err := eng.QueryWith(ctx, req.Doc, req.Query, opts)
	if err != nil {
		httpError(w, statusFor(err), err.Error())
		return
	}
	writeQueryResponse(w, res, req.Trace)
}

// respBufPool recycles the buffers query responses are built in, so
// that once a buffer has grown a response costs a constant number of
// allocations whatever its size.
var respBufPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledRespBuf keeps the buffer of one exceptionally large response
// from staying pooled.
const maxPooledRespBuf = 1 << 20

// writeQueryResponse writes res as a queryResponse, byte for byte what
// json.Encoder.Encode writes for it. The body is built in one pooled
// buffer, items serialized by Result.AppendJSONItems straight from the
// store, and sent in one Write with its Content-Length; encoding/json
// runs only for diagnostics and the trace, when there are any.
func writeQueryResponse(w http.ResponseWriter, res *xqp.Result, trace bool) {
	p := respBufPool.Get().(*[]byte)
	buf := append((*p)[:0], `{"items":`...)
	buf = res.AppendJSONItems(buf)
	buf = append(buf, `,"count":`...)
	buf = strconv.AppendInt(buf, int64(res.Len()), 10)
	buf = append(buf, `,"cached":`...)
	buf = strconv.AppendBool(buf, res.Cached)
	buf = append(buf, `,"generation":`...)
	buf = strconv.AppendUint(buf, res.Generation, 10)
	buf = append(buf, `,"queue_ns":`...)
	buf = strconv.AppendInt(buf, res.QueueWait.Nanoseconds(), 10)
	buf = append(buf, `,"exec_ns":`...)
	buf = strconv.AppendInt(buf, res.ExecTime.Nanoseconds(), 10)
	var err error
	if len(res.Diagnostics) > 0 {
		diags := make([]string, len(res.Diagnostics))
		for i, d := range res.Diagnostics {
			diags[i] = d.String()
		}
		buf, err = appendJSONField(buf, "diagnostics", diags)
	}
	if trace && res.Trace != nil && err == nil {
		buf, err = appendJSONField(buf, "trace", res.Trace)
	}
	buf = append(buf, "}\n"...)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding response: "+err.Error())
	} else {
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(buf)))
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write(buf); err != nil {
			log.Printf("xqd: writing response: %v", err)
		}
	}
	if cap(buf) <= maxPooledRespBuf {
		*p = buf
		respBufPool.Put(p)
	}
}

// appendJSONField appends ,"name": and the encoding/json encoding of v.
func appendJSONField(buf []byte, name string, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return buf, err
	}
	buf = append(buf, ',', '"')
	buf = append(buf, name...)
	buf = append(buf, '"', ':')
	return append(buf, b...), nil
}

// boolParam interprets a query-string flag: "1", "true", "yes" (any
// case) enable it; everything else, including absence, does not.
func boolParam(s string) bool {
	switch strings.ToLower(s) {
	case "1", "true", "yes":
		return true
	}
	return false
}

func handleDocs(eng *xqp.Engine, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, eng.Docs())
}

func (s *server) handleDoc(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/docs/")
	if docName, action, ok := cutLast(name, "/"); ok {
		if action == "xml" {
			s.handleDocXML(w, r, docName)
			return
		}
		s.handleDocMutation(w, r, docName, action)
		return
	}
	if name == "" {
		httpError(w, http.StatusNotFound, "bad document name")
		return
	}
	switch r.Method {
	case http.MethodPut:
		if err := s.eng.Register(name, http.MaxBytesReader(w, r.Body, maxQueryBody)); err != nil {
			httpError(w, bodyStatus(err), err.Error())
			return
		}
		gen, err := s.eng.Generation(name)
		if err != nil {
			httpError(w, statusFor(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"registered": name, "generation": gen})
	case http.MethodDelete:
		if err := s.eng.Close(name); err != nil {
			httpError(w, statusFor(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"closed": name})
	default:
		httpError(w, http.StatusMethodNotAllowed, "PUT or DELETE only")
	}
}

// handleDocXML serves GET /docs/{name}/xml: the document's current
// snapshot serialized as XML, with its generation in the
// X-Xqp-Generation header — the cluster migration transfer format.
func (s *server) handleDocXML(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if name == "" || strings.Contains(name, "/") {
		httpError(w, http.StatusNotFound, "bad document path")
		return
	}
	xml, gen, err := s.eng.DocXML(name)
	if err != nil {
		httpError(w, statusFor(err), err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	w.Header().Set("X-Xqp-Generation", strconv.FormatUint(gen, 10))
	io.WriteString(w, xml)
}

// cutLast splits s at its last sep, returning (before, after, true)
// when sep occurs.
func cutLast(s, sep string) (string, string, bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}

func parseStrategy(s string) (xqp.Strategy, bool) {
	switch s {
	case "", "auto":
		return xqp.Auto, true
	case "nok":
		return xqp.NoK, true
	case "twigstack":
		return xqp.TwigStack, true
	case "pathstack":
		return xqp.PathStack, true
	case "naive":
		return xqp.Naive, true
	case "hybrid":
		return xqp.Hybrid, true
	default:
		return xqp.Auto, false
	}
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, xqp.ErrUnknownDocument):
		return http.StatusNotFound
	case errors.Is(err, xqp.ErrSaturated):
		return http.StatusServiceUnavailable
	case errors.Is(err, xqp.ErrTenantQuota):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	case errors.Is(err, xqp.ErrInvalidQuery), errors.Is(err, xqp.ErrOverflow), errors.Is(err, xqp.ErrDynamic):
		return http.StatusBadRequest
	default:
		// Not a recognizable client mistake: an unexpected execution
		// failure is the server's fault.
		return http.StatusInternalServerError
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("xqd: encoding response: %v", err)
	}
}
