// Package difftest is the cross-strategy differential harness: it runs
// a corpus of queries over the deterministic xmark generator families
// and checks that every physical configuration — NoK, Hybrid,
// PathStack, TwigStack, naive, the default cost-chosen strategy, the
// partitioned parallel variants of each, and NoK on the compiled batch
// kernels — produces byte-identical serialized results. A metamorphic suite (Toggles) additionally flips
// the logical pipeline stages one at a time against the defaults.
//
// The reference evaluation is the serial naive matcher: it is the
// simplest implementation (memoized structural recursion, no shared
// state, no reordering), so any disagreement points at the optimized
// matcher, not the oracle. The library half (this file) is shared by
// the differential test, the race hammer, and the FuzzMatchEquivalence
// fuzz target.
package difftest

import (
	"fmt"

	"xqp"
	"xqp/internal/exec"
	"xqp/internal/pattern"
	"xqp/internal/rewrite"
	"xqp/internal/storage"
	"xqp/internal/xmark"
)

// Query is one corpus entry.
type Query struct {
	Name string
	Src  string
}

// Config is one execution configuration under differential test.
type Config struct {
	Name string
	Opts xqp.Options
}

// Reference is the oracle configuration every other one must agree
// with: the serial naive matcher.
func Reference() Config {
	return Config{Name: "naive", Opts: xqp.Options{Strategy: xqp.Naive}}
}

// Configs returns the execution configurations compared against the
// reference. Forced strategies rely on the executor's documented
// fallbacks (a join matcher on a non-root-anchored context demotes to
// NoK, PathStack on a branching pattern to TwigStack), so every
// configuration is valid for every corpus query. The parallel variants
// request explicit worker budgets, which the executor honors regardless
// of the host's core count — that keeps the partitioned code paths
// exercised even on single-core CI. The batch kernels have no option:
// the cost model picks them for NoK, so Check drives them directly
// (RunKernels).
func Configs() []Config {
	return []Config{
		{Name: "nok", Opts: xqp.Options{Strategy: xqp.NoK}},
		{Name: "nok-j2", Opts: xqp.Options{Strategy: xqp.NoK, Parallelism: 2}},
		{Name: "nok-j4", Opts: xqp.Options{Strategy: xqp.NoK, Parallelism: 4}},
		{Name: "nok-j8", Opts: xqp.Options{Strategy: xqp.NoK, Parallelism: 8}},
		{Name: "naive-j4", Opts: xqp.Options{Strategy: xqp.Naive, Parallelism: 4}},
		{Name: "hybrid", Opts: xqp.Options{Strategy: xqp.Hybrid}},
		{Name: "twigstack", Opts: xqp.Options{Strategy: xqp.TwigStack}},
		{Name: "twigstack-j4", Opts: xqp.Options{Strategy: xqp.TwigStack, Parallelism: 4}},
		{Name: "pathstack", Opts: xqp.Options{Strategy: xqp.PathStack}},
		{Name: "pathstack-j4", Opts: xqp.Options{Strategy: xqp.PathStack, Parallelism: 4}},
		{Name: "defaults", Opts: xqp.Options{}},
		{Name: "defaults-j4", Opts: xqp.Options{Parallelism: 4}},
		// Calibrated variants: Options.Calibrate feeds every dispatch
		// into the database's calibrator, and under the default auto
		// strategy lets the fitted corrections steer strategy, parallel
		// and batched verdicts. Check runs many queries against one
		// Database, so by the time the later configs run the calibrator
		// has accumulated fits from the forced-strategy sweeps above —
		// exactly the regime where a bad tuner could flip a verdict.
		// Whatever it picks must stay byte-identical to the serial naive
		// oracle.
		{Name: "nok-cal", Opts: xqp.Options{Strategy: xqp.NoK, Calibrate: true}},
		{Name: "naive-cal", Opts: xqp.Options{Strategy: xqp.Naive, Calibrate: true}},
		{Name: "twigstack-cal", Opts: xqp.Options{Strategy: xqp.TwigStack, Calibrate: true}},
		{Name: "pathstack-cal", Opts: xqp.Options{Strategy: xqp.PathStack, Calibrate: true}},
		{Name: "hybrid-cal", Opts: xqp.Options{Strategy: xqp.Hybrid, Calibrate: true}},
		{Name: "nok-cal-j4", Opts: xqp.Options{Strategy: xqp.NoK, Calibrate: true, Parallelism: 4}},
		{Name: "twigstack-cal-j4", Opts: xqp.Options{Strategy: xqp.TwigStack, Calibrate: true, Parallelism: 4}},
		{Name: "defaults-cal", Opts: xqp.Options{Calibrate: true}},
		{Name: "defaults-cal-j4", Opts: xqp.Options{Calibrate: true, Parallelism: 4}},
		{Name: "defaults-cal-j8", Opts: xqp.Options{Calibrate: true, Parallelism: 8}},
	}
}

// Toggles returns the metamorphic configurations: each flips exactly
// one logical pipeline stage off against the defaults — all rewrites,
// the static analyzer, or path fusion alone (so πs-chains run step by
// step through the executor's evalPath instead of as one fused τ). The
// stages are pure optimizations, so every toggle must serialize
// byte-identically to the defaults.
func Toggles() []Config {
	unfused := rewrite.All()
	unfused.PathFusion = false
	return []Config{
		{Name: "no-rewrites", Opts: xqp.Options{DisableRewrites: true}},
		{Name: "no-analyzer", Opts: xqp.Options{DisableAnalyzer: true}},
		{Name: "unfused", Opts: xqp.Options{Rewrites: &unfused}},
	}
}

// CheckToggles runs src under the defaults and under every toggle and
// demands byte-identical output, naming the first toggle that differs.
func CheckToggles(db *xqp.Database, src string) error {
	want, err := Run(db, src, xqp.Options{})
	if err != nil {
		return fmt.Errorf("defaults: %w", err)
	}
	for _, cfg := range Toggles() {
		got, err := Run(db, src, cfg.Opts)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.Name, err)
		}
		if got != want {
			return fmt.Errorf("%s changes the result of %q:\n  %s: %q\n  defaults: %q",
				cfg.Name, src, cfg.Name, got, want)
		}
	}
	return nil
}

// Families lists the generator families with corpora.
var Families = []string{"bib", "auction", "deep", "wide"}

// Store materializes a generator family at a scale. The deep family
// maps scale to more recursive <section> chains at a fixed depth; wide
// maps it to root fan-out.
func Store(family string, scale int) *storage.Store {
	switch family {
	case "bib":
		return xmark.StoreBib(scale)
	case "auction":
		return xmark.StoreAuction(scale)
	case "deep":
		return xmark.StoreDeep(4*scale, 12)
	case "wide":
		return xmark.StoreWide(200 * scale)
	default:
		panic(fmt.Sprintf("difftest: unknown family %q", family))
	}
}

// Queries returns the corpus for a family: absolute and descendant
// paths, structural and value predicates, attribute steps, wildcards,
// and FLWOR expressions.
func Queries(family string) []Query {
	switch family {
	case "bib":
		return []Query{
			{"abs-titles", `/bib/book/title`},
			{"desc-last", `//book/author/last`},
			{"price-pred", `/bib/book[price < 50]/title`},
			{"value-pred", `//book[author/last = "Last1"]/title`},
			{"editor-pred", `/bib/book[editor]/title`},
			{"affiliation", `//editor/affiliation`},
			{"attr-pred", `/bib/book[@year = 1990]/title`},
			{"attr-step", `/bib/book/@year`},
			{"wildcard", `/bib/book/*`},
			{"flwor-where", `for $b in /bib/book where $b/price > 60 return $b/title`},
			{"flwor-ctor", `for $b in /bib/book return <e>{count($b/author)}</e>`},
			{"pos-first", `/bib/book[1]/title`},
			{"pos-last", `/bib/book[last()]/title`},
			{"pred-var", `for $p in /bib/book[1]/price return /bib/book[price = $p]/title`},
			{"dos-tail", `count(/bib/book/descendant-or-self::node())`},
			{"dos-pred", `count(//book[author/descendant-or-self::node() = "Last1"])`},
			{"dos-self-pred", `count(//book[author//self::node() = "Last1"])`},
			{"dos-self-attr", `count(/bib/descendant-or-self::node()/self::node()[@year])`},
		}
	case "auction":
		return []Query{
			{"all-names", `/site/regions//item/name`},
			{"desc-names", `//item/name`},
			{"parlist-text", `//parlist//text`},
			{"nested-listitem", `//listitem//parlist/listitem/text`},
			{"keyword-pred", `//item[location = "asia"]/name`},
			{"profile-pred", `/site/people/person[profile]/name`},
			{"homepage-email", `//person[homepage]/emailaddress`},
			{"bidder-current", `//open_auction[bidder]/current`},
			{"increase", `//bidder/increase`},
			{"initial-path", `/site/open_auctions/open_auction/initial`},
			{"wildcard-region", `/site/regions/*/item/quantity`},
			{"attr-pred", `//item[@id = "item_asia_3"]/name`},
			{"attr-step", `//incategory/@category`},
			{"flwor-where", `for $a in //open_auction where $a/initial > 50 return $a/current`},
			{"flwor-ctor", `for $i in /site/regions//item return <i>{$i/name/text()}</i>`},
			{"exists-not", `//item[payment][not(shipping)]/name`},
			{"not-desc", `//item[not(.//keyword)]/name`},
			{"contains-desc", `//item[contains(description//text, "a")]/name`},
			{"count-pred", `//open_auction[count(bidder) > 3]/current`},
			{"dos-tail", `count(/site/regions/descendant-or-self::node())`},
		}
	case "deep":
		return []Query{
			{"title", `//section/title`},
			{"nested", `//section/section//title`},
			{"anchored", `/doc/section//title`},
			{"level-pred", `//section[@level = "3"]//title`},
		}
	case "wide":
		return []Query{
			{"entries", `/list/entry`},
			{"attr-step", `//entry/@n`},
			{"attr-pred", `/list/entry[@n = "7"]`},
		}
	default:
		panic(fmt.Sprintf("difftest: unknown family %q", family))
	}
}

// Run executes src on db under one configuration and returns the
// serialized result — the byte string compared across configurations.
func Run(db *xqp.Database, src string, opts xqp.Options) (string, error) {
	res, err := db.QueryWith(src, opts)
	if err != nil {
		return "", err
	}
	return res.XML(), nil
}

// kernelWorkers are the worker budgets Check runs the batch kernels
// under: serial, and the partitioned kernels at 2, 4 and 8 workers.
var kernelWorkers = []int{1, 2, 4, 8}

// RunKernels executes src on db with every τ dispatch on NoK's compiled
// batch kernels — a chooser that always asks for them, parallel when
// workers > 1 — and returns the serialized result. The kernels are a
// mode the cost model picks, not an option, so this is how the
// differential reaches them on every query. It fails if any dispatch
// ran interpreted.
func RunKernels(db *xqp.Database, src string, workers int) (string, error) {
	q, err := db.Compile(src, xqp.Options{})
	if err != nil {
		return "", err
	}
	eng := exec.New(db.Store(), exec.Options{
		Parallelism: workers,
		Chooser: func(*storage.Store, *pattern.Graph, bool) exec.Choice {
			return exec.Choice{Strategy: exec.StrategyNoK, Batched: true, Parallel: workers > 1}
		},
	})
	seq, err := eng.Eval(q.Plan, exec.Root())
	if err != nil {
		return "", err
	}
	if m := eng.Metrics; m.BatchedTau != m.TauByStrategy[exec.StrategyNoK] {
		return "", fmt.Errorf("%d of %d τ dispatches ran on the kernels",
			m.BatchedTau, m.TauByStrategy[exec.StrategyNoK])
	}
	return (&xqp.Result{Seq: seq}).XML(), nil
}

// Check runs src under the reference, every configuration and the batch
// kernels at every kernelWorkers budget, and demands byte-identical
// output; the returned error names the first disagreeing configuration
// and shows both serializations. Shared by TestDifferential and the
// FuzzMatchEquivalence target.
func Check(db *xqp.Database, src string) error {
	ref := Reference()
	want, err := Run(db, src, ref.Opts)
	if err != nil {
		return fmt.Errorf("%s: %w", ref.Name, err)
	}
	agree := func(name, got string, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if got != want {
			return fmt.Errorf("%s disagrees with %s on %q:\n  %s: %q\n  %s: %q",
				name, ref.Name, src, name, got, ref.Name, want)
		}
		return nil
	}
	for _, cfg := range Configs() {
		got, err := Run(db, src, cfg.Opts)
		if err := agree(cfg.Name, got, err); err != nil {
			return err
		}
	}
	for _, w := range kernelWorkers {
		got, err := RunKernels(db, src, w)
		if err := agree(fmt.Sprintf("nok-kernels-j%d", w), got, err); err != nil {
			return err
		}
	}
	return nil
}
