// Command benchmark is the repository's one end-to-end benchmark: it
// builds cmd/xqd from the checkout, spawns real xqd processes, drives
// them over HTTP from this one client process, checks every answer
// against the serial naive oracle, and reports the metrics BENCHMARK.json
// names. See README.md for the workloads, the metrics and how to read
// the per-layer table.
//
//	benchmark -workload W -seed N -seconds S -trace 0|1   one run; the last stdout line is its result
//	benchmark [-seed N] [-seconds S] [-repeat R] [-out F] the whole suite: every workload, timed and traced
//	benchmark compare A.json B.json                       two suite files against BENCHMARK.json's bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	root := fs.String("root", "", "repository root (default: nearest ancestor holding BENCHMARK.json)")
	name := fs.String("workload", "", "run only this workload and print its result as the last line")
	seed := fs.Int64("seed", 1, "seed for request order, document sizes and mutation targets")
	seconds := fs.Float64("seconds", 0, "length of the measured window (default: BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, client tracing off; 1: per-layer metrics from a traced pass")
	repeat := fs.Int("repeat", 1, "suite mode: run the whole suite this many times")
	out := fs.String("out", "", "suite mode: also write the suite document to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	e, err := newEnv(*root)
	if err != nil {
		return err
	}
	sp, err := loadSpec(e.root)
	if err != nil {
		return err
	}
	if fs.Arg(0) == "compare" {
		if fs.NArg() != 3 {
			return fmt.Errorf("usage: benchmark compare A.json B.json")
		}
		return compareFiles(sp, fs.Arg(1), fs.Arg(2))
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	// A signal cancels the run; every spawned xqd is still stopped and
	// reaped on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := e.buildXqd(); err != nil {
		return err
	}
	if *name == "" {
		return runSuite(ctx, e, sp, *seed, *seconds, *repeat, *out)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	o, err := runOne(ctx, e, sp, w, *seed, *seconds, *trace != 0)
	if err != nil {
		return err
	}
	// The contract's result line: exactly these four keys.
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, o.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runOne performs one run of one workload and checks that it emitted
// exactly the metrics BENCHMARK.json declares for that kind of run,
// each finite.
func runOne(ctx context.Context, e *env, sp *spec, w *workload, seed int64, seconds float64, trace bool) (*outcome, error) {
	in, err := newInstance(w, seed)
	if err != nil {
		return nil, err
	}
	var o *outcome
	want := sp.EndToEnd
	if trace {
		want = sp.PerLayer
		o, err = runTraced(ctx, e, in, want, seconds)
	} else {
		o, err = runEndToEnd(ctx, e, in, want, seconds)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if o.Failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed, first: %s\n", w.name, o.Failed, o.Attempted, o.FirstError)
	}
	for _, name := range o.Unresolved {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s unresolved: some segment keeps fewer than %d samples beyond it\n", w.name, name, minBeyond)
	}
	if len(o.Metrics) != len(want) {
		return nil, fmt.Errorf("%s: emitted %d metrics, BENCHMARK.json declares %d", w.name, len(o.Metrics), len(want))
	}
	for _, ms := range want {
		m, ok := o.Metrics[ms.Name]
		switch {
		case !ok:
			return nil, fmt.Errorf("%s: metric %s not emitted", w.name, ms.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return nil, fmt.Errorf("%s: metric %s is not finite (no samples?); first error: %s", w.name, ms.Name, o.FirstError)
		}
	}
	return o, nil
}
