package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"xqp"
)

// Long-poll bounds: a poll with no explicit wait blocks up to
// defaultPollWait; clients cannot pin a handler longer than maxPollWait.
const (
	defaultPollWait = 25 * time.Second
	maxPollWait     = 60 * time.Second
)

// handleDocMutation serves POST /docs/{name}/append (raw XML fragments)
// and POST /docs/{name}/apply (a JSON mutation batch). Both commit one
// new document generation and return its ApplyResult.
func (s *server) handleDocMutation(w http.ResponseWriter, r *http.Request, name, action string) {
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
		res, err = s.eng.AppendString(name, string(body))
	case "apply":
		var muts []xqp.Mutation
		if derr := json.Unmarshal(body, &muts); derr != nil {
			httpError(w, http.StatusBadRequest, "bad mutation JSON: "+derr.Error())
			return
		}
		res, err = s.eng.Apply(name, muts)
	}
	if err != nil {
		httpError(w, mutationStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// mutationStatus maps ingest errors: unknown documents are 404,
// everything else (bad paths, malformed fragments) is the client's
// payload.
func mutationStatus(err error) int {
	if errors.Is(err, xqp.ErrUnknownDocument) {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

// handleWatch serves GET /watch?doc=...&q=...: an SSE delta stream by
// default (or when sse=1), a long-poll JSON exchange when the client
// passes since=N (with optional wait=DURATION).
func (s *server) handleWatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	doc, src := q.Get("doc"), q.Get("q")
	if doc == "" || src == "" {
		httpError(w, http.StatusBadRequest, "doc and q are required")
		return
	}
	if q.Has("since") && !boolParam(q.Get("sse")) {
		s.servePoll(w, r, doc, src)
		return
	}
	s.serveSSE(w, r, doc, src)
}

func (s *server) servePoll(w http.ResponseWriter, r *http.Request, doc, src string) {
	q := r.URL.Query()
	since, err := strconv.ParseUint(q.Get("since"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad since value: "+q.Get("since"))
		return
	}
	wait := defaultPollWait
	if ws := q.Get("wait"); ws != "" {
		if wait, err = time.ParseDuration(ws); err != nil {
			httpError(w, http.StatusBadRequest, "bad wait value: "+ws)
			return
		}
	}
	if wait > maxPollWait {
		wait = maxPollWait
	}
	res, err := s.watch.Poll(r.Context(), doc, src, since, wait)
	if err != nil {
		httpError(w, watchStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *server) serveSSE(w http.ResponseWriter, r *http.Request, doc, src string) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	sub, err := s.watch.Subscribe(doc, src)
	if err != nil {
		httpError(w, watchStatus(err), err.Error())
		return
	}
	defer sub.Close()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// Comment pings keep idle streams alive through proxies.
	ping := time.NewTicker(15 * time.Second)
	defer ping.Stop()
	enc := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			return []byte("{}")
		}
		return b
	}
	for {
		select {
		case d, open := <-sub.Deltas():
			if !open {
				// Document closed, watcher shut down, or this consumer was
				// evicted for lagging; tell the client which before ending.
				fmt.Fprintf(w, "event: end\ndata: {\"lagged\":%v}\n\n", sub.Lagged())
				flusher.Flush()
				return
			}
			fmt.Fprintf(w, "event: delta\ndata: %s\n\n", enc(d))
			flusher.Flush()
		case <-ping.C:
			fmt.Fprint(w, ": ping\n\n")
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func (s *server) handleWatchStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.watch.Stats())
}

// watchStatus maps watch registration errors onto HTTP statuses.
func watchStatus(err error) int {
	switch {
	case errors.Is(err, xqp.ErrUnknownDocument):
		return http.StatusNotFound
	case errors.Is(err, xqp.ErrTooManyWatches):
		return http.StatusServiceUnavailable
	case errors.Is(err, xqp.ErrWatchClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// writeWatchPrometheus renders the continuous-query counters in the
// Prometheus text format, alongside the engine metrics on /metrics.
func writeWatchPrometheus(w io.Writer, s xqp.WatchStats) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gauge("xqp_cq_queries", "Registered continuous queries.", int64(s.Queries))
	gauge("xqp_cq_subscribers", "Attached watch subscribers.", int64(s.Subscribers))
	counter("xqp_cq_commits_total", "Commits processed across all continuous queries.", s.Commits)
	counter("xqp_cq_incremental_total", "Commits served by incremental dirty-region re-evaluation.", s.Incremental)
	counter("xqp_cq_rematch_full_total", "Incremental commits whose re-match ran the full plan filtered to the dirty candidates.", s.RematchFull)
	fmt.Fprintf(w, "# HELP xqp_cq_full_total Full re-evaluations by fallback reason.\n# TYPE xqp_cq_full_total counter\n")
	reasons := make([]string, 0, len(s.FullByReason))
	for reason := range s.FullByReason {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		fmt.Fprintf(w, "xqp_cq_full_total{reason=%q} %d\n", reason, s.FullByReason[reason])
	}
	counter("xqp_cq_deltas_total", "Deltas delivered to subscribers.", s.DeltasDelivered)
	counter("xqp_cq_delta_items_total", "Added plus removed items across delivered deltas.", s.DeltaItems)
	counter("xqp_cq_evicted_subscribers_total", "Subscribers evicted for lagging.", s.EvictedSubscribers)
	counter("xqp_cq_evicted_queries_total", "Idle queries displaced at the registration cap.", s.EvictedQueries)
	counter("xqp_cq_dropped_commits_total", "Commit notifications dropped at the queue.", s.DroppedCommits)
}
