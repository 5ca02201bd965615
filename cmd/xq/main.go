// Command xq runs an XQuery-subset query against an XML document.
//
// Usage:
//
//	xq -doc bib.xml 'for $b in /bib/book return $b/title'
//	xq -doc bib.xml -explain '/bib/book[price < 50]'
//	xq -doc bib.xml -check 'for $x in /bib/nosuch return $x'
//	xq -doc site.xml -strategy twigstack '//item/name'
//	xq -doc site.xml -trace '//item/name'
//	xq -doc site.xml -calibrate -trace '//item/name'
//	xq -doc site.xml -j 4 '//item/name'
//	echo '<a><b/></a>' | xq '/a/b'
//	xq -watch http://localhost:8080 -doc bib '//book/title'
//
// Flags select the physical pattern-matching strategy, disable the
// logical rewrites, and print the optimized plan, static-analysis
// diagnostics, or execution metrics. Under -strategy auto (the default)
// the synopsis-driven cost model picks the strategy per pattern; -cost
// is accepted for compatibility and changes nothing.
//
// With -watch, xq subscribes to a continuous query on a running xqd
// daemon instead of evaluating locally: -doc names the server-side
// document, and each result delta is printed as one JSON line as
// commits arrive (the first line is the full initial snapshot). -n
// exits after that many deltas.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"

	"xqp"
)

func main() {
	os.Exit(run(os.Stdin, os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdin io.Reader, stdout, stderr io.Writer, argv []string) int {
	fs := flag.NewFlagSet("xq", flag.ContinueOnError)
	fs.SetOutput(stderr)
	doc := fs.String("doc", "", "XML document file (default: stdin)")
	strategy := fs.String("strategy", "auto", "pattern matching strategy: auto|nok|twigstack|pathstack|naive|hybrid")
	explain := fs.Bool("explain", false, "print the optimized logical plan instead of running")
	check := fs.Bool("check", false, "print static-analysis diagnostics and the annotated plan instead of running")
	noRewrite := fs.Bool("no-rewrites", false, "disable logical optimization")
	noAnalyze := fs.Bool("no-analyze", false, "disable the static analyzer (diagnostics and pruning)")
	costBased := fs.Bool("cost", false, "no effect, kept for compatibility: -strategy auto is always cost-chosen")
	trace := fs.Bool("trace", false, "run the query and print the execution trace (EXPLAIN ANALYZE) instead of results")
	metrics := fs.Bool("metrics", false, "print physical operator counters after the result")
	indent := fs.Bool("indent", false, "pretty-print node results with indentation")
	workers := fs.Int("j", 0, "worker budget for partitioned pattern matching (0 or 1: serial, -1: one per CPU)")
	calib := fs.Bool("calibrate", false, "feed dispatch records into the cost-model calibrator; under -strategy auto the fitted constants tune strategy choice")
	watch := fs.String("watch", "", "subscribe to a continuous query on the xqd daemon at this base URL (-doc names the server document)")
	watchCount := fs.Int("n", 0, "with -watch: exit after this many deltas (0: stream forever)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: xq [flags] <query>")
		fs.Usage()
		return 2
	}
	query := fs.Arg(0)

	fail := func(err error) int {
		fmt.Fprintln(stderr, "xq:", err)
		return 1
	}

	if *watch != "" {
		if *doc == "" {
			return fail(fmt.Errorf("-watch requires -doc <server document name>"))
		}
		return runWatch(stdout, stderr, *watch, *doc, query, *watchCount)
	}

	var db *xqp.Database
	var err error
	if *doc != "" {
		db, err = xqp.OpenFile(*doc)
	} else {
		db, err = xqp.Open(stdin)
	}
	if err != nil {
		return fail(err)
	}

	// StrictDocs: a doc() reference that cannot be resolved is an error,
	// never a silent fallback to the default document.
	opts := xqp.Options{DisableRewrites: *noRewrite, DisableAnalyzer: *noAnalyze, CostBased: *costBased, Trace: *trace, StrictDocs: true, Parallelism: *workers, Calibrate: *calib}
	switch *strategy {
	case "auto":
		opts.Strategy = xqp.Auto
	case "nok":
		opts.Strategy = xqp.NoK
	case "twigstack":
		opts.Strategy = xqp.TwigStack
	case "pathstack":
		opts.Strategy = xqp.PathStack
	case "naive":
		opts.Strategy = xqp.Naive
	case "hybrid":
		opts.Strategy = xqp.Hybrid
	default:
		return fail(fmt.Errorf("unknown strategy %q", *strategy))
	}

	q, err := db.Compile(query, opts)
	if err != nil {
		return fail(err)
	}
	// Resolve doc() references: URIs not registered (the -doc file is)
	// are loaded from disk, and a missing or unreadable file is a clean
	// failure instead of the former silent fallback to -doc.
	for _, uri := range q.DocURIs() {
		if db.HasDocument(uri) {
			continue
		}
		f, err := os.Open(uri)
		if err != nil {
			return fail(fmt.Errorf("query references document %q: %w", uri, err))
		}
		err = db.AddDocument(uri, f)
		f.Close()
		if err != nil {
			return fail(fmt.Errorf("loading document %q: %w", uri, err))
		}
	}
	if *check {
		for _, d := range q.Diagnostics {
			fmt.Fprintln(stdout, d)
		}
		if len(q.Diagnostics) == 0 {
			fmt.Fprintln(stdout, "no diagnostics")
		}
		if q.Pruned > 0 {
			fmt.Fprintf(stdout, "pruned %d provably-empty subplan(s)\n", q.Pruned)
		}
		fmt.Fprintln(stdout, "plan:")
		fmt.Fprint(stdout, q.ExplainAnnotated())
		return 0
	}
	if *explain {
		fmt.Fprint(stdout, q.Explain())
		return 0
	}
	res, err := db.Run(q)
	if err != nil {
		return fail(err)
	}
	if *trace {
		fmt.Fprintf(stdout, "%d item(s)\n", res.Len())
		if res.Trace != nil {
			fmt.Fprint(stdout, res.Trace.Format())
		}
		if *calib {
			observed, regret := db.CalibrationStats()
			fmt.Fprintf(stdout, "calibration: observed=%d regret=%d\n", observed, regret)
		}
		return 0
	}
	if *indent {
		fmt.Fprintln(stdout, res.PrettyXML())
	} else {
		fmt.Fprintln(stdout, res.XML())
	}
	if *metrics {
		m := res.Metrics
		fmt.Fprintf(stderr, "items=%d τ=%d πs=%d joins=%d γ=%d env-bindings=%d preds=%d\n",
			res.Len(), m.TPMCalls, m.StepCalls, m.JoinCalls, m.CtorCalls, m.EnvLeaves, m.PredEvals)
		if *calib {
			observed, regret := db.CalibrationStats()
			fmt.Fprintf(stderr, "calibration: observed=%d regret=%d\n", observed, regret)
		}
	}
	return 0
}

// runWatch streams a continuous query from an xqd daemon's /watch SSE
// endpoint, printing each delta as one JSON line on stdout. It returns
// when the stream ends (document closed or daemon shut down: exit 0;
// evicted for lagging: exit 1) or after n deltas when n > 0.
func runWatch(stdout, stderr io.Writer, server, doc, query string, n int) int {
	u := strings.TrimRight(server, "/") + "/watch?doc=" + url.QueryEscape(doc) + "&q=" + url.QueryEscape(query)
	resp, err := http.Get(u)
	if err != nil {
		fmt.Fprintln(stderr, "xq:", err)
		return 1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		fmt.Fprintf(stderr, "xq: watch: %s: %s\n", resp.Status, strings.TrimSpace(string(body)))
		return 1
	}

	br := bufio.NewReader(resp.Body)
	event, seen := "", 0
	// state accumulates the result sequence by applying each delta; a
	// corrupt or truncated payload is reported as a malformed delta
	// instead of crashing (ApplyChecked validates positions and bounds).
	var state []string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			fmt.Fprintln(stderr, "xq: watch stream ended:", err)
			return 1
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "delta":
				var d xqp.Delta
				if err := json.Unmarshal([]byte(data), &d); err != nil {
					fmt.Fprintf(stderr, "xq: malformed delta: %v\n", err)
					return 1
				}
				next, err := d.ApplyChecked(state)
				if err != nil {
					fmt.Fprintf(stderr, "xq: malformed delta: %v\n", err)
					return 1
				}
				if d.Size != 0 || len(d.Added) > 0 || len(d.Removed) > 0 {
					if len(next) != d.Size {
						fmt.Fprintf(stderr, "xq: malformed delta: gen %d applies to %d items but declares size %d\n", d.Gen, len(next), d.Size)
						return 1
					}
				}
				state = next
				fmt.Fprintln(stdout, data)
				seen++
				if n > 0 && seen >= n {
					return 0
				}
			case "end":
				if strings.Contains(data, `"lagged":true`) {
					fmt.Fprintln(stderr, "xq: watch ended: subscriber lagged, state incomplete")
					return 1
				}
				fmt.Fprintln(stderr, "xq: watch ended")
				return 0
			}
		}
	}
}
