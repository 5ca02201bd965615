package difftest

import (
	"context"
	"fmt"
	"strings"

	"xqp"
	"xqp/internal/cluster"
)

// RouterConfig is one engine-level execution configuration under
// router differential test. The router must be invisible: for every
// configuration, a 3-shard cluster answers byte-identically to a
// single-node engine holding the same documents.
type RouterConfig struct {
	Name string
	Opts xqp.EngineQueryOptions
}

// RouterConfigs returns the execution configurations the router
// differential runs under — a cross-section of the strategy space
// (forced join matcher, forced navigational, the default cost-chosen
// strategy, parallel variants), not the full difftest
// matrix: the router forwards options verbatim, so a handful of
// maximally different plans is what exercises the routing layer.
func RouterConfigs() []RouterConfig {
	return []RouterConfig{
		{Name: "nok", Opts: xqp.EngineQueryOptions{Strategy: xqp.NoK}},
		{Name: "twigstack", Opts: xqp.EngineQueryOptions{Strategy: xqp.TwigStack}},
		{Name: "pathstack-j4", Opts: xqp.EngineQueryOptions{Strategy: xqp.PathStack, Parallelism: 4}},
		{Name: "defaults", Opts: xqp.EngineQueryOptions{}},
		{Name: "nok-j4", Opts: xqp.EngineQueryOptions{Strategy: xqp.NoK, Parallelism: 4}},
	}
}

// RouterHarness pairs a sharded router with a single-node reference
// engine holding the same documents, both fed from identical XML text.
type RouterHarness struct {
	Router *cluster.Router
	Single *xqp.Engine
	Docs   []string
}

// NewRouterHarness builds a shards-wide cluster and a single-node
// reference, registering each named document on both from the same
// serialized XML (so both sides parse identical bytes).
func NewRouterHarness(shards int, docs map[string]string, cfg cluster.Config) (*RouterHarness, error) {
	h := &RouterHarness{
		Router: cluster.New(cfg),
		Single: xqp.NewEngine(xqp.EngineConfig{}),
	}
	for i := 0; i < shards; i++ {
		sh := cluster.NewLocalShard(fmt.Sprintf("shard-%d", i+1), xqp.NewEngine(xqp.EngineConfig{}))
		if err := h.Router.AddShard(sh); err != nil {
			return nil, err
		}
	}
	for name, xml := range docs {
		if err := h.Router.Register(name, xml); err != nil {
			return nil, fmt.Errorf("router register %s: %w", name, err)
		}
		if err := h.Single.RegisterString(name, xml); err != nil {
			return nil, fmt.Errorf("single register %s: %w", name, err)
		}
		h.Docs = append(h.Docs, name)
	}
	return h, nil
}

// CheckRouted runs src against one document on both sides under every
// router configuration and demands byte-identical serialized items.
func (h *RouterHarness) CheckRouted(ctx context.Context, doc, src string) error {
	for _, cfg := range RouterConfigs() {
		want, err := h.Single.QueryWith(ctx, doc, src, cfg.Opts)
		if err != nil {
			return fmt.Errorf("%s: single-node: %w", cfg.Name, err)
		}
		got, err := h.Router.Query(ctx, doc, src, cfg.Opts)
		if err != nil {
			return fmt.Errorf("%s: routed: %w", cfg.Name, err)
		}
		w := strings.Join(want.XMLItems(), "")
		g := strings.Join(got.Items, "")
		if g != w {
			return fmt.Errorf("%s: routed answer for %q on %s diverges:\n  router (via %s): %q\n  single-node:     %q",
				cfg.Name, src, doc, got.Shard, g, w)
		}
	}
	return nil
}

// CheckFederated fans src over docs on the router and compares against
// the single-node answers concatenated in the same document order —
// the federated merge must preserve both document order and per-item
// bytes under every configuration.
func (h *RouterHarness) CheckFederated(ctx context.Context, docs []string, src string) error {
	for _, cfg := range RouterConfigs() {
		var want []string
		for _, doc := range docs {
			res, err := h.Single.QueryWith(ctx, doc, src, cfg.Opts)
			if err != nil {
				return fmt.Errorf("%s: single-node %s: %w", cfg.Name, doc, err)
			}
			want = append(want, res.XMLItems()...)
		}
		got, err := h.Router.Fan(ctx, docs, src, cfg.Opts)
		if err != nil {
			return fmt.Errorf("%s: federated: %w", cfg.Name, err)
		}
		if len(got.Degraded) != 0 {
			return fmt.Errorf("%s: federated query degraded on %v", cfg.Name, got.Degraded)
		}
		w := strings.Join(want, "")
		g := strings.Join(got.Items, "")
		if g != w {
			return fmt.Errorf("%s: federated answer for %q diverges:\n  router:      %q\n  single-node: %q",
				cfg.Name, src, g, w)
		}
	}
	return nil
}
