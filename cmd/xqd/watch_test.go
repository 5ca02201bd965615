package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"xqp"
)

func TestAppendAndApplyEndpoints(t *testing.T) {
	srv := newTestServer(t)

	resp, err := http.Post(srv.URL+"/docs/bib/append", "application/xml",
		strings.NewReader(`<book year="2003"><title>New</title><price>20.00</price></book>`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("append status = %d: %s", resp.StatusCode, b)
	}
	var ar xqp.ApplyResult
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	if ar.Generation != 2 || ar.NodesInserted == 0 || ar.SuccinctDirtyBytes == 0 {
		t.Fatalf("append result = %+v", ar)
	}

	var qr queryResponse
	getJSON(t, srv.URL+"/query?doc=bib&q="+`//book/title`, http.StatusOK, &qr)
	if qr.Count != 3 {
		t.Fatalf("titles after append = %d, want 3", qr.Count)
	}

	// A JSON mutation batch through /apply.
	body := `[{"op":"delete","path":"/book[1]"}]`
	resp2, err := http.Post(srv.URL+"/docs/bib/apply", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("apply status = %d", resp2.StatusCode)
	}
	getJSON(t, srv.URL+"/query?doc=bib&q="+`//book/title`, http.StatusOK, &qr)
	if qr.Count != 2 {
		t.Fatalf("titles after delete = %d, want 2", qr.Count)
	}

	// Error mapping: unknown doc 404, bad payloads 400.
	for _, c := range []struct {
		url, ct, body string
		want          int
	}{
		{"/docs/ghost/append", "application/xml", "<x/>", http.StatusNotFound},
		{"/docs/bib/append", "application/xml", "<unclosed>", http.StatusBadRequest},
		{"/docs/bib/apply", "application/json", "not json", http.StatusBadRequest},
		{"/docs/bib/apply", "application/json", `[{"op":"delete","path":"/nope"}]`, http.StatusBadRequest},
		{"/docs/bib/frobnicate", "text/plain", "", http.StatusNotFound},
	} {
		resp, err := http.Post(srv.URL+c.url, c.ct, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("POST %s: status %d, want %d", c.url, resp.StatusCode, c.want)
		}
	}
}

// registerBigDoc PUTs a document large enough that a single-book edit
// stays under the watcher's 25% dirty-region cap, so commits take the
// incremental path.
func registerBigDoc(t *testing.T, base string) {
	t.Helper()
	var b strings.Builder
	b.WriteString("<bib>")
	for i := 0; i < 12; i++ {
		b.WriteString(`<book><title>Seed</title><author><last>L</last></author><price>50.00</price></book>`)
	}
	b.WriteString("</bib>")
	req, _ := http.NewRequest(http.MethodPut, base+"/docs/big", strings.NewReader(b.String()))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("registering big doc: status %d", resp.StatusCode)
	}
}

func TestWatchLongPoll(t *testing.T) {
	srv := newTestServer(t)
	registerBigDoc(t, srv.URL)
	q := "/watch?doc=big&q=" + `//book/title`

	var pr xqp.WatchPollResult
	getJSON(t, srv.URL+q+"&since=0", http.StatusOK, &pr)
	if !pr.Reset || pr.Gen != 1 || len(pr.Items) != 12 {
		t.Fatalf("snapshot poll = %+v", pr)
	}

	// Kick off a waiting poll, then commit: it must return the delta.
	type out struct {
		pr  xqp.WatchPollResult
		err error
	}
	ch := make(chan out, 1)
	go func() {
		resp, err := http.Get(srv.URL + q + "&since=1&wait=10s")
		if err != nil {
			ch <- out{err: err}
			return
		}
		defer resp.Body.Close()
		var pr xqp.WatchPollResult
		err = json.NewDecoder(resp.Body).Decode(&pr)
		ch <- out{pr: pr, err: err}
	}()
	time.Sleep(50 * time.Millisecond)
	resp, err := http.Post(srv.URL+"/docs/big/append", "application/xml",
		strings.NewReader(`<book><title>Woken</title></book>`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	o := <-ch
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.pr.Reset || len(o.pr.Deltas) != 1 || o.pr.Gen != 2 {
		t.Fatalf("woken poll = %+v", o.pr)
	}
	d := o.pr.Deltas[0]
	if d.Full || len(d.Added) != 1 || d.Added[0].XML != "<title>Woken</title>" {
		t.Fatalf("delta = %+v", d)
	}

	// Parameter validation.
	getJSON(t, srv.URL+"/watch?doc=bib", http.StatusBadRequest, nil)
	getJSON(t, srv.URL+q+"&since=banana", http.StatusBadRequest, nil)
	getJSON(t, srv.URL+q+"&since=0&wait=banana", http.StatusBadRequest, nil)
	getJSON(t, srv.URL+"/watch?doc=ghost&q=//a&since=0", http.StatusNotFound, nil)
}

// readSSEEvent scans one "event:/data:" pair from an SSE stream,
// skipping comment pings.
func readSSEEvent(t *testing.T, br *bufio.Reader) (string, string) {
	t.Helper()
	var event, data string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended early: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && event != "":
			return event, data
		}
	}
}

func TestWatchSSE(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/watch?doc=bib&q=" + `//book/title`)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)

	event, data := readSSEEvent(t, br)
	var d xqp.Delta
	if err := json.Unmarshal([]byte(data), &d); err != nil {
		t.Fatalf("bad delta JSON %q: %v", data, err)
	}
	if event != "delta" || !d.Full || d.Reason != "initial" || len(d.Added) != 2 {
		t.Fatalf("initial SSE event %q: %+v", event, d)
	}

	post, err := http.Post(srv.URL+"/docs/bib/append", "application/xml",
		strings.NewReader(`<book><title>Live</title></book>`))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()

	event, data = readSSEEvent(t, br)
	if err := json.Unmarshal([]byte(data), &d); err != nil {
		t.Fatal(err)
	}
	if event != "delta" || d.Gen != 2 || len(d.Added) != 1 || d.Added[0].XML != "<title>Live</title>" {
		t.Fatalf("live SSE event %q: %+v", event, d)
	}
}

func TestWatchMetricsAndStats(t *testing.T) {
	srv := newTestServer(t)
	registerBigDoc(t, srv.URL)
	getJSON(t, srv.URL+"/watch?doc=big&q="+`//book/title`+"&since=0", http.StatusOK, nil)
	resp, err := http.Post(srv.URL+"/docs/big/append", "application/xml",
		strings.NewReader(`<book><title>M</title></book>`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The commit is processed asynchronously; wait for it to land.
	deadline := time.Now().Add(5 * time.Second)
	var ws xqp.WatchStats
	for {
		getJSON(t, srv.URL+"/watch/stats", http.StatusOK, &ws)
		if ws.Commits >= 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ws.Queries != 1 || ws.Commits < 1 {
		t.Fatalf("watch stats = %+v", ws)
	}
	var raw map[string]any
	getJSON(t, srv.URL+"/watch/stats", http.StatusOK, &raw)
	if _, ok := raw["rematch_full"]; !ok {
		t.Errorf("/watch/stats lacks rematch_full: %v", raw)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	b, _ := io.ReadAll(mresp.Body)
	body := string(b)
	for _, want := range []string{
		"xqp_updates_total 1",
		"xqp_update_nodes_inserted_total",
		"xqp_update_succinct_dirty_bytes_total",
		"xqp_update_interval_dirty_bytes_total",
		"xqp_cq_queries 1",
		"xqp_cq_commits_total 1",
		"xqp_cq_incremental_total 1",
		"xqp_cq_rematch_full_total ",
		"xqp_cq_full_total{reason=\"initial\"} 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestGracefulShutdownDrainsSSE exercises the production wiring: an
// http.Server built by newHTTPServer, an open SSE stream, then
// Shutdown. The watcher teardown must end the stream so the drain
// completes well before its deadline.
func TestGracefulShutdownDrainsSSE(t *testing.T) {
	eng := xqp.NewEngine(xqp.EngineConfig{})
	if err := eng.RegisterString("bib", bibXML); err != nil {
		t.Fatal(err)
	}
	s := newServer(eng)
	hs := newHTTPServer("", s)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	url := "http://" + ln.Addr().String()
	resp, err := http.Get(url + "/watch?doc=bib&q=" + `//book/title`)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if event, _ := readSSEEvent(t, br); event != "delta" {
		t.Fatalf("first event = %q", event)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("drain took %s; SSE stream did not end promptly", time.Since(start))
	}
	// The stream must have been terminated with an end event.
	event, data := readSSEEvent(t, br)
	if event != "end" || !strings.Contains(data, `"lagged":false`) {
		t.Fatalf("final event %q data %q", event, data)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
}
