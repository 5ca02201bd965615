package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so
// spreads computed here agree with anyone checking them by hand.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// verdict compares a metric's values in two sets of runs under its
// bound: worse when B's median is worse than A's by more than the bound;
// otherwise unresolved when either side's run-to-run spread is wider
// than the bound (or its sample could not support the metric), because
// then "no worse" cannot be told from noise; otherwise same.
func verdict(ms metricSpec, a, b []float64, flagged bool) (status string, change float64) {
	ma, mb := median(a), median(b)
	change = (mb - ma) / ma
	worse := change
	if ms.Better == "higher" {
		worse = -change
	}
	switch {
	case worse > ms.Bound:
		return "worse", change
	case flagged || spread(a) > ms.Bound || spread(b) > ms.Bound:
		return "unresolved", change
	default:
		return "same", change
	}
}

func loadSuite(path string) (*suiteDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc suiteDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// values collects one metric's values over a suite's timed runs of one
// workload, and whether any of those runs flagged it unresolved.
func (d *suiteDoc) values(workload, name string) (vals []float64, flagged bool) {
	for _, o := range d.Runs {
		if o.Trace || o.Workload != workload {
			continue
		}
		if m, ok := o.Metrics[name]; ok {
			vals = append(vals, m.Value)
		}
		for _, u := range o.Unresolved {
			flagged = flagged || u == name
		}
	}
	return vals, flagged
}

// compareFiles prints one row per (workload, end-to-end metric) and
// fails when any is worse; a failed operation on either side is worse
// than any latency.
func compareFiles(sp *spec, pathA, pathB string) error {
	a, err := loadSuite(pathA)
	if err != nil {
		return err
	}
	b, err := loadSuite(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tchange\tbound\tA spread\tB spread\truns\tverdict")
	nWorse := 0
	for _, w := range workloads {
		for _, ms := range sp.EndToEnd {
			va, fa := a.values(w.name, ms.Name)
			vb, fb := b.values(w.name, ms.Name)
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("%s %s: missing from one of the files", w.name, ms.Name)
			}
			status, change := verdict(ms, va, vb, fa || fb)
			if status == "worse" {
				nWorse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%d/%d\t%s\n",
				w.name, ms.Name, median(va), median(vb), 100*change, 100*ms.Bound, 100*spread(va), 100*spread(vb), len(va), len(vb), status)
		}
	}
	for _, d := range []*suiteDoc{a, b} {
		for _, o := range d.Runs {
			if o.Failed > 0 {
				fmt.Fprintf(tw, "%s\tfailed\t\t\t\t\t\t\t\t%d of %d operations failed (trace=%v): worse\n", o.Workload, o.Failed, o.Attempted, o.Trace)
				nWorse++
			}
		}
	}
	tw.Flush()
	if nWorse > 0 {
		return fmt.Errorf("%d rows are worse", nWorse)
	}
	return nil
}
