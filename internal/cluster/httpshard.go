package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"xqp"
)

// HTTPShard adapts a remote xqd instance to the Shard interface: the
// deployment topology, where each shard is its own process (or host)
// and the router is an xqd in -router mode. The wire formats are xqd's
// own JSON endpoints, so a shard is just a stock xqd — no shard-side
// agent.
type HTTPShard struct {
	name   string
	base   string // e.g. "http://127.0.0.1:8081", no trailing slash
	client *http.Client
	tenant string // forwarded as the request tenant when opts carry none
}

// NewHTTPShard wraps the xqd at base (scheme://host:port) as a named
// shard. A nil client uses a dedicated client with sane defaults.
func NewHTTPShard(name, base string, client *http.Client) *HTTPShard {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &HTTPShard{name: name, base: strings.TrimRight(base, "/"), client: client}
}

// Name reports the shard name.
func (s *HTTPShard) Name() string { return s.name }

// Base reports the shard's base URL.
func (s *HTTPShard) Base() string { return s.base }

// shardQueryRequest mirrors xqd's queryRequest wire format.
type shardQueryRequest struct {
	Doc       string `json:"doc"`
	Query     string `json:"query"`
	Strategy  string `json:"strategy,omitempty"`
	CostBased bool   `json:"cost,omitempty"`
	NoCache   bool   `json:"no_cache,omitempty"`
	NoRewrite bool   `json:"no_rewrites,omitempty"`
	NoAnalyze bool   `json:"no_analyze,omitempty"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
	Parallel  int    `json:"parallel,omitempty"`
	Tenant    string `json:"tenant,omitempty"`
}

// shardQueryResponse mirrors xqd's queryResponse wire format.
type shardQueryResponse struct {
	Items      []string `json:"items"`
	Count      int      `json:"count"`
	Cached     bool     `json:"cached"`
	Generation uint64   `json:"generation"`
	ExecNanos  int64    `json:"exec_ns"`
}

// Query POSTs src against doc to the shard's /query endpoint,
// propagating any ctx deadline as the request timeout.
func (s *HTTPShard) Query(ctx context.Context, doc, src string, opts xqp.EngineQueryOptions) (*ShardResult, error) {
	req := shardQueryRequest{
		Doc:       doc,
		Query:     src,
		CostBased: opts.CostBased,
		NoCache:   opts.NoCache,
		NoRewrite: opts.DisableRewrites,
		NoAnalyze: opts.DisableAnalyzer,
		Parallel:  opts.Parallelism,
		Tenant:    opts.Tenant,
	}
	if req.Tenant == "" {
		req.Tenant = s.tenant
	}
	if opts.Strategy != 0 {
		req.Strategy = opts.Strategy.String()
	}
	// Propagate the remaining context deadline to the shard so its own
	// admission/execution honors it even if the transport lingers.
	if dl, ok := ctx.Deadline(); ok {
		ms := int(time.Until(dl).Milliseconds())
		if ms <= 0 {
			return nil, context.DeadlineExceeded
		}
		req.TimeoutMS = ms
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var out shardQueryResponse
	if err := s.do(ctx, http.MethodPost, "/query", "application/json", bytes.NewReader(body), &out); err != nil {
		return nil, err
	}
	return &ShardResult{
		Items:      out.Items,
		Count:      out.Count,
		Generation: out.Generation,
		Cached:     out.Cached,
		Shard:      s.name,
		ExecNanos:  out.ExecNanos,
	}, nil
}

// Register PUTs xml as doc and reports the shard's generation for it.
func (s *HTTPShard) Register(doc, xml string) (uint64, error) {
	var out struct {
		Generation uint64 `json:"generation"`
	}
	err := s.do(context.Background(), http.MethodPut, "/docs/"+doc, "application/xml", strings.NewReader(xml), &out)
	if err != nil {
		return 0, err
	}
	return out.Generation, nil
}

// Append POSTs xml to the shard's append endpoint.
func (s *HTTPShard) Append(doc, xml string) (*xqp.ApplyResult, error) {
	var out xqp.ApplyResult
	err := s.do(context.Background(), http.MethodPost, "/docs/"+doc+"/append", "application/xml", strings.NewReader(xml), &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Apply POSTs muts to the shard's apply endpoint.
func (s *HTTPShard) Apply(doc string, muts []xqp.Mutation) (*xqp.ApplyResult, error) {
	body, err := json.Marshal(muts)
	if err != nil {
		return nil, err
	}
	var out xqp.ApplyResult
	if err := s.do(context.Background(), http.MethodPost, "/docs/"+doc+"/apply", "application/json", bytes.NewReader(body), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CloseDoc DELETEs doc from the shard.
func (s *HTTPShard) CloseDoc(doc string) error {
	return s.do(context.Background(), http.MethodDelete, "/docs/"+doc, "", nil, nil)
}

// Fetch GETs the document snapshot and its generation.
func (s *HTTPShard) Fetch(doc string) (string, uint64, error) {
	req, err := http.NewRequest(http.MethodGet, s.base+"/docs/"+doc+"/xml", nil)
	if err != nil {
		return "", 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return "", 0, fmt.Errorf("%w: %s: %v", ErrShardUnavailable, s.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, s.statusError(resp)
	}
	xml, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, fmt.Errorf("%w: %s: reading body: %v", ErrShardUnavailable, s.name, err)
	}
	gen, _ := strconv.ParseUint(resp.Header.Get("X-Xqp-Generation"), 10, 64)
	return string(xml), gen, nil
}

// Docs lists the shard's catalog.
func (s *HTTPShard) Docs() ([]xqp.DocInfo, error) {
	var out []xqp.DocInfo
	if err := s.do(context.Background(), http.MethodGet, "/docs", "", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// do performs one request against the shard and decodes the JSON
// response into out (ignored when nil). Non-2xx statuses map back to
// the engine error the shard's statusFor mapped from, so errors.Is
// works identically across local and HTTP shards.
func (s *HTTPShard) do(ctx context.Context, method, path, contentType string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, body)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("%w: %s: %v", ErrShardUnavailable, s.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return s.statusError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%w: %s: decoding response: %v", ErrShardUnavailable, s.name, err)
	}
	return nil
}

// statusError inverts xqd's statusFor mapping so router-side errors.Is
// checks hold over the wire.
func (s *HTTPShard) statusError(resp *http.Response) error {
	msg := readErrorMessage(resp.Body)
	var base error
	switch resp.StatusCode {
	case http.StatusNotFound:
		base = xqp.ErrUnknownDocument
	case http.StatusServiceUnavailable:
		base = xqp.ErrSaturated
	case http.StatusTooManyRequests:
		base = xqp.ErrTenantQuota
	case http.StatusBadRequest:
		base = xqp.ErrInvalidQuery
	case http.StatusGatewayTimeout:
		base = context.DeadlineExceeded
	default:
		base = ErrShardUnavailable
	}
	return fmt.Errorf("%w: shard %s: http %d: %s", base, s.name, resp.StatusCode, msg)
}

// readErrorMessage extracts xqd's {"error": ...} body, falling back to
// raw text.
func readErrorMessage(r io.Reader) string {
	raw, err := io.ReadAll(io.LimitReader(r, 4096))
	if err != nil {
		return ""
	}
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(raw))
}
