package experiments

import (
	"strings"
	"testing"
	"time"
	"xqp/internal/core"
)

func TestTableFormat(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Columns: []string{"a", "bee"}}
	tab.AddRow(1, "x")
	tab.AddRow(2.5, 90*time.Microsecond)
	tab.Notes = append(tab.Notes, "a note")
	out := tab.Format()
	for _, want := range []string{"== X: demo ==", "bee", "2.50", "90.0µs", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{500 * time.Nanosecond, "500ns"},
		{12_300 * time.Nanosecond, "12.3µs"},
		{45 * time.Millisecond, "45.00ms"},
		{2 * time.Second, "2.00s"},
	}
	for _, c := range cases {
		if got := formatDuration(c.d); got != c.want {
			t.Errorf("formatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestVerifyAllStrategiesAgree(t *testing.T) {
	if err := VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// Smoke-run every experiment at minimal scale: the harness must produce a
// non-empty table without panicking.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is slow")
	}
	runs := []struct {
		name string
		f    func() *Table
	}{
		{"T1", T1Operators},
		{"E1", func() *Table { return E1StorageSize([]int{1}) }},
		{"E2", func() *Table { return E2Scaling([]int{1}) }},
		{"E3", func() *Table { return E3PathLength(2) }},
		{"E5", E5Twig},
		{"E6", func() *Table { return E6Exponential(3) }},
		{"E7", func() *Table { return E7RewriteAblation(2) }},
		{"E8", func() *Table { return E8Streaming(1) }},
		{"E9", func() *Table { return E9PageTouches(1) }},
		{"E10", func() *Table { return E10UseCases(2) }},
		{"E11", func() *Table { return E11UpdateLocality([]int{1}) }},
		{"E12", func() *Table { return E12ContentIndex(2) }},
		{"E13", E13HybridStrategy},
		{"E14", func() *Table { return E14AnalyzerPruning(1) }},
		{"E17", func() *Table { return E17Parallel([]int{1}, 2) }},
		{"E18", func() *Table { return E18BidWatch(1, 4) }},
		{"E19", func() *Table { return E19Batched([]int{1}) }},
		{"E20", func() *Table { return E20Calibration(1) }},
	}
	for _, r := range runs {
		r := r
		t.Run(r.name, func(t *testing.T) {
			tab := r.f()
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", r.name)
			}
			if !strings.Contains(tab.Format(), tab.ID) {
				t.Fatalf("%s table malformed", r.name)
			}
		})
	}
}

func TestMustGraphPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustPattern on invalid input did not panic")
		}
	}()
	core.MustPattern("for $x in")
}
