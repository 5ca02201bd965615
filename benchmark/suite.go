package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
)

// conditions are the circumstances a suite's numbers were taken under;
// they travel with the numbers.
type conditions struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Repeat     int     `json:"repeat"`
}

// suiteDoc is the document suite mode prints: every run of every
// workload, timed and traced, with the conditions and the bounds the
// numbers are to be compared under. The benchmark claims no gain.
type suiteDoc struct {
	Conditions conditions   `json:"conditions"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	Runs       []*outcome   `json:"runs"`
	Claim      *string      `json:"claim"`
}

// commitID names the checkout's commit when it is a git checkout.
func commitID(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runSuite runs every workload, timed then traced, repeat times over,
// and prints one JSON document with every metric by name and unit.
func runSuite(ctx context.Context, e *env, sp *spec, seed int64, seconds float64, repeat int, out string) error {
	doc := &suiteDoc{
		Conditions: conditions{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commitID(e.root), Seed: seed, Seconds: seconds, Repeat: repeat,
		},
		EndToEnd: sp.EndToEnd,
	}
	for rep := 0; rep < repeat; rep++ {
		for i := range workloads {
			for _, trace := range []bool{false, true} {
				o, err := runOne(ctx, e, sp, &workloads[i], seed, seconds, trace)
				if err != nil {
					return err
				}
				doc.Runs = append(doc.Runs, o)
			}
		}
	}
	printSummary(doc, sp)
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if out != "" {
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Println(string(b))
	for _, o := range doc.Runs {
		if !o.Correct {
			return fmt.Errorf("%s: %d of %d operations failed", o.Workload, o.Failed, o.Attempted)
		}
	}
	return nil
}

// printSummary writes the end-to-end metrics of the timed runs as a
// table to standard error: one row per run, sample counts beside the
// timings, failures against attempts.
func printSummary(doc *suiteDoc, sp *spec) {
	tw := tabwriter.NewWriter(os.Stderr, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "workload\t")
	for _, m := range sp.EndToEnd {
		fmt.Fprintf(tw, "%s [%s]\t", m.Name, m.Unit)
	}
	fmt.Fprintln(tw, "failed/attempted\tlate\tunresolved\t")
	for _, o := range doc.Runs {
		if o.Trace {
			continue
		}
		fmt.Fprintf(tw, "%s\t", o.Workload)
		for _, m := range sp.EndToEnd {
			if n := o.Samples[m.Name]; n > 0 {
				fmt.Fprintf(tw, "%.4g (n=%d)\t", o.Metrics[m.Name].Value, n)
			} else {
				fmt.Fprintf(tw, "%.4g\t", o.Metrics[m.Name].Value)
			}
		}
		fmt.Fprintf(tw, "%d/%d\t%.3f\t%s\t\n", o.Failed, o.Attempted, o.LateShare, strings.Join(o.Unresolved, ","))
	}
	tw.Flush()
}
