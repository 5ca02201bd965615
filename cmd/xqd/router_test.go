package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xqp"
	"xqp/internal/cluster"
)

// newRouterFixture boots three in-process shard xqds and a router
// server over them, plus a single-node reference engine; docs register
// on both sides from the same XML.
func newRouterFixture(t *testing.T, docs map[string]string) (*httptest.Server, *xqp.Engine) {
	t.Helper()
	rt := cluster.New(cluster.Config{})
	for i := 1; i <= 3; i++ {
		eng := xqp.NewEngine(xqp.EngineConfig{})
		shardSrv := httptest.NewServer(newServer(eng))
		t.Cleanup(shardSrv.Close)
		if err := rt.AddShard(cluster.NewHTTPShard(fmt.Sprintf("s%d", i), shardSrv.URL, shardSrv.Client())); err != nil {
			t.Fatal(err)
		}
	}
	routerSrv := httptest.NewServer(newRouterServer(rt))
	t.Cleanup(routerSrv.Close)
	single := xqp.NewEngine(xqp.EngineConfig{})
	client := routerSrv.Client()
	for name, xml := range docs {
		req, _ := http.NewRequest(http.MethodPut, routerSrv.URL+"/docs/"+name, strings.NewReader(xml))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("router PUT %s: %d", name, resp.StatusCode)
		}
		if err := single.RegisterString(name, xml); err != nil {
			t.Fatal(err)
		}
	}
	return routerSrv, single
}

// TestRouterBadCallIs400: an unknown function, a wrong arity and an
// untranslatable step predicate are compile errors, and a type error
// and error() are dynamic errors. For each the shard answers 400, and
// the router returns that answer from the first replica instead of
// trying the next one as it would for a dead shard.
func TestRouterBadCallIs400(t *testing.T) {
	rt := cluster.New(cluster.Config{Replicas: 2})
	var queries atomic.Int64
	for i := 1; i <= 2; i++ {
		h := newServer(xqp.NewEngine(xqp.EngineConfig{}))
		shardSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/query" {
				queries.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(shardSrv.Close)
		if err := rt.AddShard(cluster.NewHTTPShard(fmt.Sprintf("s%d", i), shardSrv.URL, shardSrv.Client())); err != nil {
			t.Fatal(err)
		}
	}
	routerSrv := httptest.NewServer(newRouterServer(rt))
	t.Cleanup(routerSrv.Close)
	req, _ := http.NewRequest(http.MethodPut, routerSrv.URL+"/docs/bib", strings.NewReader(routerDocs()["d0.xml"]))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("router PUT: %d", resp.StatusCode)
	}
	for _, c := range []struct{ src, want string }{
		{`//book[foo()]`, "XPST0017"},
		{`count(1, 2)`, "XPST0017"},
		{`for $u in ("a") return //book[doc($u)]`, "doc() requires a string literal"},
		{`exactly-one(())`, "type error"},
		{`error("x")`, "error raised: x"},
	} {
		queries.Store(0)
		resp, err := http.Get(routerSrv.URL + "/query?doc=bib&q=" + url.QueryEscape(c.src))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), c.want) {
			t.Errorf("%s: %d %s, want 400 %s", c.src, resp.StatusCode, body, c.want)
		}
		if n := queries.Load(); n != 1 {
			t.Errorf("%s: %d shard queries, want 1 (no replica retry)", c.src, n)
		}
	}
}

func routerDocs() map[string]string {
	docs := map[string]string{}
	for i := 0; i < 6; i++ {
		docs[fmt.Sprintf("d%d.xml", i)] = fmt.Sprintf(
			`<bib><book year="%d"><title>A%d</title><price>%d</price></book><book year="2001"><title>B%d</title></book></bib>`,
			1990+i, i, 30+10*i, i)
	}
	return docs
}

// TestRouterHTTPDifferential: over the real HTTP transport, the routed
// answer matches the single-node engine byte-for-byte across strategy
// configurations.
func TestRouterHTTPDifferential(t *testing.T) {
	docs := routerDocs()
	routerSrv, single := newRouterFixture(t, docs)
	configs := []struct {
		name string
		body string
		opts xqp.EngineQueryOptions
	}{
		{"nok", `"strategy":"nok"`, xqp.EngineQueryOptions{Strategy: xqp.NoK}},
		{"twigstack", `"strategy":"twigstack"`, xqp.EngineQueryOptions{Strategy: xqp.TwigStack}},
		{"auto-cost", `"cost":true`, xqp.EngineQueryOptions{CostBased: true}},
		// "batched" is no longer a request field; old clients still send it.
		{"nok-batched", `"strategy":"nok","batched":true`, xqp.EngineQueryOptions{Strategy: xqp.NoK}},
	}
	queries := []string{`//book/title`, `/bib/book[price > 40]/title`, `//book/@year`}
	for name := range docs {
		for _, src := range queries {
			for _, cfg := range configs {
				body := fmt.Sprintf(`{"doc":%q,"query":%q,%s}`, name, src, cfg.body)
				resp, err := http.Post(routerSrv.URL+"/query", "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				var routed routedResponse
				if err := json.NewDecoder(resp.Body).Decode(&routed); err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s %s %s: status %d", name, src, cfg.name, resp.StatusCode)
				}
				want, err := single.QueryWith(context.Background(), name, src, cfg.opts)
				if err != nil {
					t.Fatal(err)
				}
				if got, w := strings.Join(routed.Items, ""), strings.Join(want.XMLItems(), ""); got != w {
					t.Fatalf("%s %s %s: routed %q != single %q (shard %s)", name, src, cfg.name, got, w, routed.Shard)
				}
				if routed.Shard == "" {
					t.Fatalf("%s: response names no shard", name)
				}
			}
		}
	}
}

// TestRouterBatchedAccepted: batched execution is the cost model's
// choice, not a request option, but clients that still ask for it with
// ?batched=1 or a "batched":true body get the same answer as without.
func TestRouterBatchedAccepted(t *testing.T) {
	routerSrv, _ := newRouterFixture(t, routerDocs())
	const src = `/bib/book[price > 40]/title`
	items := func(resp *http.Response, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var routed routedResponse
		if err := json.NewDecoder(resp.Body).Decode(&routed); err != nil {
			t.Fatal(err)
		}
		return strings.Join(routed.Items, "")
	}
	get := routerSrv.URL + "/query?doc=d3.xml&q=" + url.QueryEscape(src)
	want := items(http.Get(get))
	if want == "" {
		t.Fatal("no results")
	}
	if got := items(http.Get(get + "&batched=1")); got != want {
		t.Fatalf("?batched=1: %q, want %q", got, want)
	}
	body := fmt.Sprintf(`{"doc":"d3.xml","query":%q,"batched":true}`, src)
	if got := items(http.Post(routerSrv.URL+"/query", "application/json", strings.NewReader(body))); got != want {
		t.Fatalf(`"batched":true: %q, want %q`, got, want)
	}
}

// TestRouterHTTPFederated: docs= fans out and merges in request order.
func TestRouterHTTPFederated(t *testing.T) {
	docs := routerDocs()
	routerSrv, single := newRouterFixture(t, docs)
	order := []string{"d3.xml", "d0.xml", "d5.xml", "d1.xml"}
	body := fmt.Sprintf(`{"docs":["%s"],"query":"//book/title"}`, strings.Join(order, `","`))
	resp, err := http.Post(routerSrv.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var fan cluster.FanResult
	if err := json.NewDecoder(resp.Body).Decode(&fan); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, doc := range order {
		res, err := single.Query(context.Background(), doc, `//book/title`)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res.XMLItems()...)
	}
	if strings.Join(fan.Items, "") != strings.Join(want, "") {
		t.Fatalf("federated items = %v, want %v", fan.Items, want)
	}
	if len(fan.Docs) != len(order) || fan.Docs[0].Doc != "d3.xml" {
		t.Fatalf("per-doc slices = %+v", fan.Docs)
	}
	if fan.MapVersion == 0 {
		t.Fatal("map version missing from federated response")
	}
	// GET form with a comma list answers the same.
	var fan2 cluster.FanResult
	getJSON(t, routerSrv.URL+"/query?docs="+strings.Join(order, ",")+"&q=//book/title", http.StatusOK, &fan2)
	if strings.Join(fan2.Items, "") != strings.Join(fan.Items, "") {
		t.Fatal("GET and POST federated answers diverge")
	}
}

// TestRouterHTTPClusterSurface: /cluster, /stats and /metrics expose
// the routing state.
func TestRouterHTTPClusterSurface(t *testing.T) {
	routerSrv, _ := newRouterFixture(t, routerDocs())
	// Drive a little traffic first.
	getJSON(t, routerSrv.URL+"/query?doc=d0.xml&q=//book", http.StatusOK, nil)

	var cl clusterResponse
	getJSON(t, routerSrv.URL+"/cluster", http.StatusOK, &cl)
	if len(cl.Shards) != 3 {
		t.Fatalf("cluster shards = %v", cl.Shards)
	}
	if len(cl.Placements) != 6 {
		t.Fatalf("placements = %d, want 6", len(cl.Placements))
	}
	for _, p := range cl.Placements {
		if p.Owner == "" || len(p.Shards) == 0 {
			t.Fatalf("placement %+v incomplete", p)
		}
	}
	var stats cluster.Stats
	getJSON(t, routerSrv.URL+"/stats", http.StatusOK, &stats)
	if stats.Routed == 0 || stats.Writes == 0 {
		t.Fatalf("stats = %+v, want routed and write traffic", stats)
	}
	resp, err := http.Get(routerSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{"xqp_router_routed_total", "xqp_router_writes_total", "xqp_router_map_version", "xqp_router_fan_queries_total"} {
		if !bytes.Contains(raw, []byte(metric)) {
			t.Fatalf("metrics missing %s:\n%s", metric, raw)
		}
	}
}

// TestRouterHTTPMutationsAndClose: append/apply/DELETE route through
// to the owning shard and stay readable.
func TestRouterHTTPMutationsAndClose(t *testing.T) {
	routerSrv, _ := newRouterFixture(t, map[string]string{"m.xml": `<log><e/></log>`})
	resp, err := http.Post(routerSrv.URL+"/docs/m.xml/append", "application/xml", strings.NewReader(`<e/><e/>`))
	if err != nil {
		t.Fatal(err)
	}
	var ares xqp.ApplyResult
	if err := json.NewDecoder(resp.Body).Decode(&ares); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ares.Generation != 2 {
		t.Fatalf("append generation = %d, want 2", ares.Generation)
	}
	var routed routedResponse
	getJSON(t, routerSrv.URL+"/query?doc=m.xml&q=count(//e)", http.StatusOK, &routed)
	if len(routed.Items) != 1 || routed.Items[0] != "3" {
		t.Fatalf("count after append = %v", routed.Items)
	}
	req, _ := http.NewRequest(http.MethodDelete, routerSrv.URL+"/docs/m.xml", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", dresp.StatusCode)
	}
	getJSON(t, routerSrv.URL+"/query?doc=m.xml&q=//e", http.StatusNotFound, nil)
}

// TestDocXMLEndpoint: PUT reports the generation, /docs/{name}/xml
// serves the snapshot with its generation header, and both advance on
// mutation.
func TestDocXMLEndpoint(t *testing.T) {
	srv := newTestServer(t)
	put := func(xml string) uint64 {
		req, _ := http.NewRequest(http.MethodPut, srv.URL+"/docs/snap", strings.NewReader(xml))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Registered string `json:"registered"`
			Generation uint64 `json:"generation"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || out.Registered != "snap" {
			t.Fatalf("PUT: %d %+v", resp.StatusCode, out)
		}
		return out.Generation
	}
	if gen := put(`<r><a/></r>`); gen != 1 {
		t.Fatalf("first PUT generation = %d, want 1", gen)
	}
	resp, err := http.Get(srv.URL + "/docs/snap/xml")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET xml status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Xqp-Generation"); got != "1" {
		t.Fatalf("X-Xqp-Generation = %q, want 1", got)
	}
	if !strings.Contains(string(raw), "<a") {
		t.Fatalf("xml body = %q", raw)
	}
	// Replace bumps both the PUT response and the fetch header.
	if gen := put(`<r><b/></r>`); gen != 2 {
		t.Fatalf("replace generation = %d, want 2", gen)
	}
	resp, err = http.Get(srv.URL + "/docs/snap/xml")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Xqp-Generation"); got != "2" {
		t.Fatalf("post-replace X-Xqp-Generation = %q, want 2", got)
	}
	// Unknown documents 404.
	getJSON(t, srv.URL+"/docs/ghost/xml", http.StatusNotFound, nil)
}

// TestTenantQuota429: a tenant at its quota gets 429 while another
// tenant keeps getting 200 — end to end through the HTTP surface.
func TestTenantQuota429(t *testing.T) {
	eng := xqp.NewEngine(xqp.EngineConfig{TenantQuota: 1, MaxConcurrent: 4})
	// A document big enough that one query holds its tenant slot for a
	// while: nested sections with a quadratic FLWOR.
	var sb strings.Builder
	sb.WriteString("<doc>")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "<section><title>t%d</title></section>", i)
	}
	sb.WriteString("</doc>")
	if err := eng.RegisterString("big", sb.String()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServer(eng))
	defer srv.Close()

	slow := `for $a in //section for $b in //section where $a/title = $b/title return <p/>`
	done := make(chan int, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(srv.URL+"/query", "application/json",
			strings.NewReader(fmt.Sprintf(`{"doc":"big","query":%q,"tenant":"A","no_cache":true}`, slow)))
		if err != nil {
			done <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()

	// Probe only once the slow query executes, so that it holds A's only
	// slot (the tenant slot is taken before the worker slot) rather than
	// being refused itself because a probe held the slot.
	deadline := time.After(10 * time.Second)
	for eng.Stats().InFlight == 0 {
		select {
		case code := <-done:
			t.Fatalf("slow query finished with %d before it was seen executing", code)
		case <-deadline:
			t.Fatal("slow query never started executing")
		case <-time.After(time.Millisecond):
		}
	}
	// Probe with quick tenant-A queries until one trips the quota.
	got429 := false
probe:
	for {
		select {
		case code := <-done:
			t.Logf("slow query finished with %d before a probe hit the quota", code)
			break probe
		case <-deadline:
			break probe
		default:
		}
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/query?doc=big&q=/doc/section[1]/title", nil)
		req.Header.Set("X-Tenant", "A")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if code == http.StatusTooManyRequests {
			got429 = true
			// Tenant B is admitted at the same instant A is refused.
			breq, _ := http.NewRequest(http.MethodGet, srv.URL+"/query?doc=big&q=/doc/section[1]/title", nil)
			breq.Header.Set("X-Tenant", "B")
			bresp, err := http.DefaultClient.Do(breq)
			if err != nil {
				t.Fatal(err)
			}
			bcode := bresp.StatusCode
			io.Copy(io.Discard, bresp.Body)
			bresp.Body.Close()
			if bcode != http.StatusOK {
				t.Fatalf("tenant B got %d while A was at quota", bcode)
			}
			break probe
		}
	}
	wg.Wait()
	if !got429 {
		t.Fatal("never observed a 429 for tenant A at quota")
	}
	if eng.Stats().TenantRejected == 0 {
		t.Fatal("TenantRejected counter untouched")
	}
	// The metric surfaces on /metrics.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(raw, []byte("xqp_tenant_rejected_total")) {
		t.Fatal("metrics missing xqp_tenant_rejected_total")
	}
}
