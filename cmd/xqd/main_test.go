package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"xqp"
	"xqp/internal/parser"
)

const bibXML = `<bib>
  <book year="1994"><title>TCP/IP Illustrated</title><price>65.95</price></book>
  <book year="2000"><title>Data on the Web</title><price>39.95</price></book>
</bib>`

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	eng := xqp.NewEngine(xqp.EngineConfig{})
	if err := eng.RegisterString("bib", bibXML); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServer(eng))
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
}

func TestQueryGet(t *testing.T) {
	srv := newTestServer(t)
	var resp queryResponse
	getJSON(t, srv.URL+"/query?doc=bib&q="+`//book/title`, http.StatusOK, &resp)
	if resp.Count != 2 || len(resp.Items) != 2 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Items[0] != "<title>TCP/IP Illustrated</title>" {
		t.Fatalf("items = %q", resp.Items)
	}
	if resp.Cached || resp.Generation != 1 {
		t.Fatalf("cached/gen = %v/%d", resp.Cached, resp.Generation)
	}
	// Second hit is served from the plan cache.
	getJSON(t, srv.URL+"/query?doc=bib&q="+`//book/title`, http.StatusOK, &resp)
	if !resp.Cached {
		t.Fatal("second query not cached")
	}
}

func TestQueryPost(t *testing.T) {
	srv := newTestServer(t)
	body := `{"doc":"bib","query":"//book[price > 40.0]/title","strategy":"twigstack"}`
	resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Count != 1 || qr.Items[0] != "<title>TCP/IP Illustrated</title>" {
		t.Fatalf("resp = %+v", qr)
	}
}

// TestQueryBatchedAccepted: batched execution is the cost model's
// choice, not a request option, but clients that still ask for it with
// ?batched=1 or a "batched":true body get the same answer as without.
func TestQueryBatchedAccepted(t *testing.T) {
	srv := newTestServer(t)
	q := "/query?doc=bib&q=" + url.QueryEscape(`//book[price > 40.0]/title`)
	var want, got queryResponse
	getJSON(t, srv.URL+q, http.StatusOK, &want)
	if want.Count != 1 {
		t.Fatalf("resp = %+v", want)
	}
	getJSON(t, srv.URL+q+"&batched=1", http.StatusOK, &got)
	if strings.Join(got.Items, "") != strings.Join(want.Items, "") {
		t.Fatalf("?batched=1: %q, want %q", got.Items, want.Items)
	}
	body := `{"doc":"bib","query":"//book[price > 40.0]/title","batched":true}`
	resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	got = queryResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got.Items, "") != strings.Join(want.Items, "") {
		t.Fatalf(`"batched":true: %q, want %q`, got.Items, want.Items)
	}
}

func TestQueryErrors(t *testing.T) {
	srv := newTestServer(t)
	var errResp errorResponse
	// Unknown document → 404.
	getJSON(t, srv.URL+"/query?doc=ghost&q=//a", http.StatusNotFound, &errResp)
	if !strings.Contains(errResp.Error, "unknown document") {
		t.Fatalf("error = %q", errResp.Error)
	}
	// Syntax error → 400.
	getJSON(t, srv.URL+"/query?doc=bib&q="+"%2F%2F%5B", http.StatusBadRequest, nil)
	// Missing params → 400.
	getJSON(t, srv.URL+"/query", http.StatusBadRequest, nil)
	// Bad strategy → 400.
	resp, err := http.Post(srv.URL+"/query", "application/json",
		strings.NewReader(`{"doc":"bib","query":"//a","strategy":"quantum"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad strategy status = %d", resp.StatusCode)
	}
}

// TestDeepQuery400: a query nested past parser.MaxDepth is a client's
// syntax error, answered 400, even when it nests far deeper than the
// server's goroutine stack could hold, in a body well under
// maxQueryBody.
func TestDeepQuery400(t *testing.T) {
	srv := newTestServer(t)
	for _, n := range []int{parser.MaxDepth, 2000000} {
		q := strings.Repeat("(", n) + "1" + strings.Repeat(")", n)
		body, _ := json.Marshal(map[string]string{"doc": "bib", "query": q})
		resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "nests deeper than") {
			t.Fatalf("%d levels: status %d, error %q", n, resp.StatusCode, e.Error)
		}
	}
}

// TestStatusFor: client mistakes map to 4xx; anything unrecognized is an
// internal execution failure and must report 500, not blame the client.
func TestStatusFor(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{xqp.ErrUnknownDocument, http.StatusNotFound},
		{xqp.ErrSaturated, http.StatusServiceUnavailable},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, 499},
		{fmt.Errorf("%w: unexpected token", xqp.ErrInvalidQuery), http.StatusBadRequest},
		{fmt.Errorf("%w: 9223372036854775807 * 2", xqp.ErrOverflow), http.StatusBadRequest},
		{errors.New("operator blew up"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := statusFor(c.err); got != c.want {
			t.Errorf("statusFor(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestOversizedBodies413: a body one byte over maxQueryBody is refused
// with 413, not cut to the limit and served. Each body is valid up to
// the limit (a request followed by whitespace), so a silent truncation
// would answer 200.
func TestOversizedBodies413(t *testing.T) {
	pad := func(prefix string) string {
		return prefix + strings.Repeat(" ", maxQueryBody+1-len(prefix))
	}
	query := pad(`{"doc":"bib","query":"//book/title"}`)
	doc := pad(`<bib/>`)
	single := newTestServer(t)
	router, _ := newRouterFixture(t, map[string]string{"bib": bibXML})
	for _, srv := range []struct {
		name string
		url  string
	}{{"single", single.URL}, {"router", router.URL}} {
		for _, c := range []struct {
			method, path, body string
		}{
			{http.MethodPost, "/query", query},
			{http.MethodPut, "/docs/big", doc},
			{http.MethodPost, "/docs/bib/append", pad(`<book/>`)},
			{http.MethodPost, "/docs/bib/apply", pad(`[]`)},
		} {
			req, _ := http.NewRequest(c.method, srv.url+c.path, strings.NewReader(c.body))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s %s %s: %v", srv.name, c.method, c.path, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("%s %s %s with %d bytes: status %d, want 413", srv.name, c.method, c.path, len(c.body), resp.StatusCode)
			}
		}
	}
}

func TestDocsLifecycle(t *testing.T) {
	srv := newTestServer(t)
	var docs []xqp.DocInfo
	getJSON(t, srv.URL+"/docs", http.StatusOK, &docs)
	if len(docs) != 1 || docs[0].Name != "bib" {
		t.Fatalf("docs = %+v", docs)
	}
	// Register a second document.
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/docs/tiny", strings.NewReader(`<a><b/></a>`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT status = %d", resp.StatusCode)
	}
	var qr queryResponse
	getJSON(t, srv.URL+"/query?doc=tiny&q=//b", http.StatusOK, &qr)
	if qr.Count != 1 {
		t.Fatalf("tiny query = %+v", qr)
	}
	// Replace it: generation bumps, results change.
	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/docs/tiny", strings.NewReader(`<a><b/><b/></a>`))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	getJSON(t, srv.URL+"/query?doc=tiny&q=//b", http.StatusOK, &qr)
	if qr.Count != 2 || qr.Generation != 2 || qr.Cached {
		t.Fatalf("after replace: %+v", qr)
	}
	// Delete it.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/docs/tiny", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status = %d", resp.StatusCode)
	}
	getJSON(t, srv.URL+"/query?doc=tiny&q=//b", http.StatusNotFound, nil)
	// Malformed XML rejected.
	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/docs/bad", strings.NewReader(`<a><unclosed>`))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad XML status = %d", resp.StatusCode)
	}
}

func TestStats(t *testing.T) {
	srv := newTestServer(t)
	getJSON(t, srv.URL+"/query?doc=bib&q=//book", http.StatusOK, nil)
	getJSON(t, srv.URL+"/query?doc=bib&q=//book", http.StatusOK, nil)
	var s xqp.EngineStats
	getJSON(t, srv.URL+"/stats", http.StatusOK, &s)
	if s.Served != 2 || s.CacheHits != 1 || s.Compilations != 1 || s.Documents != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// expvar surface is mounted too.
	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status = %d", resp.StatusCode)
	}
}

func TestDocFlagParsing(t *testing.T) {
	var f docFlags
	if err := f.Set("bib=testdata/bib.xml"); err != nil {
		t.Fatal(err)
	}
	if len(f) != 1 || f[0].name != "bib" || f[0].path != "testdata/bib.xml" {
		t.Fatalf("f = %+v", f)
	}
	for _, bad := range []string{"", "nopath", "=x", "n="} {
		if err := f.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
}

func TestQueryTrace(t *testing.T) {
	srv := newTestServer(t)
	var resp queryResponse
	getJSON(t, srv.URL+"/query?doc=bib&q="+`//book/title`+"&trace=1&cost=1", http.StatusOK, &resp)
	if resp.Count != 2 {
		t.Fatalf("count = %d", resp.Count)
	}
	if resp.Trace == nil {
		t.Fatal("trace requested but absent")
	}
	var recs []*xqp.TraceStrategyRecord
	resp.Trace.Visit(func(s *xqp.TraceSpan) { recs = append(recs, s.Strategies...) })
	if len(recs) == 0 {
		t.Fatal("trace carried no strategy records")
	}
	r := recs[0]
	if r.Estimate == nil {
		t.Errorf("strategy record lost the cost estimate: %+v", r)
	}
	if r.Matches != 2 {
		t.Errorf("τ matches = %d, want 2", r.Matches)
	}
	// The raw JSON must spell strategies by name (greppable contract,
	// exercised by the CI smoke test).
	raw, err := http.Get(srv.URL + "/query?doc=bib&q=" + `//book/title` + "&trace=1&cost=1")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	b, _ := io.ReadAll(raw.Body)
	if !strings.Contains(string(b), `"chosen"`) {
		t.Errorf("trace JSON lacks \"chosen\": %s", b)
	}
	// Without trace=1 the response stays lean.
	var lean queryResponse
	getJSON(t, srv.URL+"/query?doc=bib&q="+`//book/title`, http.StatusOK, &lean)
	if lean.Trace != nil {
		t.Error("trace present without trace=1")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := newTestServer(t)
	getJSON(t, srv.URL+"/query?doc=bib&q="+`//book/title`+"&cost=1", http.StatusOK, nil)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	b, _ := io.ReadAll(resp.Body)
	body := string(b)
	for _, want := range []string{
		"xqp_served_total 1",
		"xqp_tau_total{strategy=",
		"xqp_strategy_fallbacks_total",
		"xqp_calibration_observations_total",
		"xqp_chooser_regret_total",
		`xqp_exec_seconds_bucket{le="+Inf"} 1`,
		"xqp_exec_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}
