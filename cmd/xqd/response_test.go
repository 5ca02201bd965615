package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"xqp"
	"xqp/internal/xmark"
)

// escapesXML holds every character the JSON escaping of a response
// treats specially: <, > and & in text, attributes, comments and PIs,
// quotes, a backslash, a tab and the two line separators.
const escapesXML = `<bib><book year="1994" note="a&lt;b &amp; &quot;c&quot; \ &#x2028;">` +
	`<title>TCP/IP &amp; "Illustrated" &lt;1&gt; \ &#x2029;&#9;</title>` +
	`<!-- c "q" \ <x> & --><?pi d="1" \ & <?></book>` +
	`<book year="2000"><title>Data on the Web</title></book></bib>`

// encodeReference is the response encoding/json writes for res: the
// body writeQueryResponse must reproduce byte for byte.
func encodeReference(t *testing.T, res *xqp.Result, trace bool) []byte {
	t.Helper()
	resp := queryResponse{
		Items:      res.XMLItems(),
		Count:      res.Len(),
		Cached:     res.Cached,
		Generation: res.Generation,
		QueueNanos: res.QueueWait.Nanoseconds(),
		ExecNanos:  res.ExecTime.Nanoseconds(),
	}
	for _, d := range res.Diagnostics {
		resp.Diagnostics = append(resp.Diagnostics, d.String())
	}
	if trace {
		resp.Trace = res.Trace
	}
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestQueryResponseMatchesEncodingJSON: the hand-built response body is
// byte-identical to encoding/json's encoding of queryResponse for node,
// attribute, comment, PI and atomic items, an empty result, analyzer
// diagnostics and a trace.
func TestQueryResponseMatchesEncodingJSON(t *testing.T) {
	eng := xqp.NewEngine(xqp.EngineConfig{})
	if err := eng.RegisterString("bib", escapesXML); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		query string
		trace bool
	}{
		{`//book/title`, false},
		{`/bib/book`, false},
		{`//book/@note`, false},
		{`//book/@year`, false},
		{`//book/comment()`, false},
		{`/bib/book[1]/node()`, false},
		{`//book/title/text()`, false},
		{`count(//book)`, false},
		{`('say "hi" & <bye> \', 1.5, 2, //book/@year)`, false},
		{`//nosuch`, false},
		{`/bib/book/@year/x`, false},
		{`//book/title`, true},
		{`/bib/book[@year = 2000]`, true},
	}
	var sawDiagnostics, sawTrace, sawEmpty bool
	for _, c := range cases {
		res, err := eng.QueryWith(context.Background(), "bib", c.query, xqp.EngineQueryOptions{Trace: c.trace})
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		sawDiagnostics = sawDiagnostics || len(res.Diagnostics) > 0
		sawTrace = sawTrace || (c.trace && res.Trace != nil)
		sawEmpty = sawEmpty || res.Len() == 0
		rec := httptest.NewRecorder()
		writeQueryResponse(rec, res, c.trace)
		want := encodeReference(t, res, c.trace)
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("%s (trace %v):\n got %s\nwant %s", c.query, c.trace, got, want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", c.query, cl, rec.Body.Len())
		}
	}
	if !sawDiagnostics || !sawTrace || !sawEmpty {
		t.Fatalf("cases lack coverage: diagnostics %v, trace %v, empty %v", sawDiagnostics, sawTrace, sawEmpty)
	}
}

// TestQueryResponseLengthFramed: over HTTP a /query answer carries its
// Content-Length and is not chunked, and it decodes as a queryResponse.
func TestQueryResponseLengthFramed(t *testing.T) {
	eng := xqp.NewEngine(xqp.EngineConfig{})
	if err := eng.RegisterString("bib", escapesXML); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServer(eng))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/query?doc=bib&q=" + url.QueryEscape("/bib/book"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("status %d, Content-Length %d for %d bytes, Transfer-Encoding %v", resp.StatusCode, resp.ContentLength, len(body), resp.TransferEncoding)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Count != 2 || !strings.Contains(qr.Items[0], `&amp; "Illustrated" &lt;1&gt;`) {
		t.Fatalf("decoded %+v", qr)
	}
}

// TestConcurrentQueryResponses: responses built in pooled buffers by
// concurrent requests never carry each other's bytes.
func TestConcurrentQueryResponses(t *testing.T) {
	eng := xqp.NewEngine(xqp.EngineConfig{})
	if err := eng.RegisterString("bib", escapesXML); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServer(eng))
	defer srv.Close()
	queries := []string{"/bib/book", "//book/@year", "count(//book)"}
	want := make([][]string, len(queries))
	for i, q := range queries {
		res, err := eng.QueryWith(context.Background(), "bib", q, xqp.EngineQueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.XMLItems()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				k := (g + i) % len(queries)
				resp, err := http.Get(srv.URL + "/query?doc=bib&q=" + url.QueryEscape(queries[k]))
				if err != nil {
					t.Error(err)
					return
				}
				var qr queryResponse
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if err != nil || !slices.Equal(qr.Items, want[k]) {
					t.Errorf("%s: items %q (err %v), want %q", queries[k], qr.Items, err, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// discardWriter is a ResponseWriter that keeps nothing of the body.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestQueryResponseAllocations: once its buffer is pooled, writing a
// response costs the same few allocations for one item as for every
// person of Auction(8).
func TestQueryResponseAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	doc := xmark.Auction(8)
	eng := xqp.NewEngine(xqp.EngineConfig{})
	if err := eng.RegisterString("site", doc.XMLString(doc.Root())); err != nil {
		t.Fatal(err)
	}
	res, err := eng.QueryWith(context.Background(), "site", "/site/people/person", xqp.EngineQueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() < 100 {
		t.Fatalf("only %d persons", res.Len())
	}
	one := *res
	one.Seq = res.Seq[:1]
	w := &discardWriter{h: http.Header{}}
	allocs := func(r *xqp.Result) float64 {
		return testing.AllocsPerRun(50, func() { writeQueryResponse(w, r, false) })
	}
	all, single := allocs(res), allocs(&one)
	if all != single || all > 4 {
		t.Fatalf("allocations per response: %v for %d items, %v for one", all, res.Len(), single)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestIntegerOverflow400: FOAR0002 is a property of the query and its
// data, so a single node answers 400 with the code in the error, and a
// router passes that on as 400 without counting a failover.
func TestIntegerOverflow400(t *testing.T) {
	single := newTestServer(t)
	router, _ := newRouterFixture(t, map[string]string{"bib": bibXML})
	for _, srv := range []struct {
		name string
		url  string
	}{{"single", single.URL}, {"router", router.URL}} {
		for _, q := range []string{"9223372036854775807 * 2", "sum((9223372036854775807, count(//book)))"} {
			var e errorResponse
			getJSON(t, srv.url+"/query?doc=bib&q="+url.QueryEscape(q), http.StatusBadRequest, &e)
			if !strings.Contains(e.Error, "FOAR0002") {
				t.Errorf("%s %s: error %q lacks FOAR0002", srv.name, q, e.Error)
			}
		}
	}
	var st struct {
		ReplicaRetries int64 `json:"replica_retries"`
	}
	getJSON(t, router.URL+"/stats", http.StatusOK, &st)
	if st.ReplicaRetries != 0 {
		t.Fatalf("router counted %d failovers", st.ReplicaRetries)
	}
}
