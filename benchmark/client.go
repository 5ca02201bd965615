package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"xqp"
)

// client talks to one xqd (or router) over a connection pool capped at
// the workload's client count, so the benchmark never holds more
// request connections than it has clients.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the body of a 200 response; any
// other status, and any transport error, is an error.
func (c *client) do(ctx context.Context, method, path, ctype string, body []byte) ([]byte, error) {
	ctx, cancel := withDeadline(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

func (c *client) getJSON(ctx context.Context, path string, v any) error {
	body, err := c.do(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

func (c *client) putDoc(ctx context.Context, name, xml string) error {
	_, err := c.do(ctx, http.MethodPut, "/docs/"+name, "application/xml", []byte(xml))
	return err
}

// queryBody is the JSON body of POST /query for one pair.
func queryBody(doc string, q querySpec) []byte {
	b, err := json.Marshal(struct {
		Doc   string `json:"doc"`
		Query string `json:"query"`
		Cost  bool   `json:"cost,omitempty"`
	}{doc, q.src, q.cost})
	if err != nil {
		panic(err) // strings and bools always marshal
	}
	return b
}

func (c *client) query(ctx context.Context, body []byte) ([]byte, error) {
	return c.do(ctx, http.MethodPost, "/query", "application/json", body)
}

// cachedMarker follows the count in both xqd's and the router's query
// response; see expectedPrefix.
var cachedMarker = []byte(`,"cached":`)

// splitResponse cuts a /query response into the answer prefix (items
// and count) and the generation it was computed at.
func splitResponse(body []byte) (prefix []byte, gen uint64, err error) {
	i := bytes.Index(body, cachedMarker)
	if i < 0 {
		return nil, 0, fmt.Errorf("response has no %s field: %.80s", cachedMarker, body)
	}
	var tail struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(append([]byte{'{'}, body[i+1:]...), &tail); err != nil {
		return nil, 0, fmt.Errorf("response tail: %w", err)
	}
	return body[:i], tail.Generation, nil
}

// checkResponse reports whether body answers with exactly the expected
// items and count.
func checkResponse(body []byte, want string) error {
	prefix, _, err := splitResponse(body)
	if err != nil {
		return err
	}
	if string(prefix) != want {
		return fmt.Errorf("wrong answer: got %.120s…, want %.120s…", prefix, want)
	}
	return nil
}

// apply posts one mutation batch and returns the generation it
// committed.
func (c *client) apply(ctx context.Context, doc string, body []byte) (uint64, error) {
	out, err := c.do(ctx, http.MethodPost, "/docs/"+doc+"/apply", "application/json", body)
	if err != nil {
		return 0, err
	}
	var res xqp.ApplyResult
	if err := json.Unmarshal(out, &res); err != nil {
		return 0, fmt.Errorf("apply response: %w", err)
	}
	return res.Generation, nil
}

// watch opens the SSE stream for (doc, query) and calls onDelta for
// every delta event until the stream ends or ctx is cancelled. The
// first delta is the full snapshot of the current result. It returns
// nil when ctx ended the stream.
func (c *client) watch(ctx context.Context, doc, query string, onDelta func(xqp.Delta)) error {
	u := c.base + "/watch?doc=" + url.QueryEscape(doc) + "&q=" + url.QueryEscape(query)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	// Its own transport: the stream is a standing connection beside the
	// request pool, not one of the request clients.
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer hc.CloseIdleConnections()
	resp, err := hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /watch: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20) // the snapshot delta carries the whole result
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			if event == "end" {
				return fmt.Errorf("watch stream ended by server: %s", line)
			}
			if event != "delta" {
				continue
			}
			var d xqp.Delta
			if err := json.Unmarshal([]byte(line[len("data: "):]), &d); err != nil {
				return fmt.Errorf("delta event: %w", err)
			}
			onDelta(d)
		}
	}
	if ctx.Err() != nil {
		return nil
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("watch stream closed by server")
}

// withDeadline is the per-request timeout of every client call: far
// above any latency the workloads produce, so hitting it is a failure,
// not a measurement.
func withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, 20*time.Second)
}
