package calibrate

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xqp/internal/exec"
	"xqp/internal/tally"
)

// goldenCalibrator builds a calibrator with every kind of state
// populated, deterministically.
func goldenCalibrator(t testing.TB) *Calibrator {
	t.Helper()
	c := New()
	path := graphOf(t, "/bib/book")
	twig := graphOf(t, "//person[profile]/homepage")
	est := &exec.CostEstimate{NoK: 100, Join: 40, Hybrid: 80}
	for i := 0; i < 4; i++ {
		c.Observe(path, rec(exec.StrategyNoK, est, 250))
		c.Observe(twig, func() *exec.StrategyRecord {
			r := rec(exec.StrategyTwigStack, est, 0)
			r.Actual = tally.Counters{StreamElems: 8, Solutions: 2}
			return r
		}())
	}
	// A fallback record lands on the executed (naive) arm.
	fb := rec(exec.StrategyNaive, est, 90)
	fb.Chosen = exec.StrategyTwigStack
	fb.Fallback = true
	c.Observe(path, fb)
	// Batched-speed observations on both sides of the NoK family.
	for i := 0; i < minObservations; i++ {
		r := rec(exec.StrategyNoK, nil, 100)
		r.Dur = 1000 * time.Nanosecond
		c.Observe(path, r)
		b := rec(exec.StrategyNoK, nil, 100)
		b.Dur = 300 * time.Nanosecond
		b.Batched = true
		c.Observe(path, b)
	}
	// Parallel-degree observations for one budget.
	for i := 0; i < minObservations; i++ {
		r := rec(exec.StrategyNoK, nil, 100)
		r.Parallel = true
		r.Workers = 8
		r.Partitions = []tally.Partition{{Dur: 900}, {Dur: 900}, {Dur: 900}}
		c.Observe(path, r)
	}
	return c
}

// TestSnapshotGolden pins the encoded snapshot byte-for-byte: the state
// format is persisted across daemon restarts, so accidental encoding
// drift must fail loudly (bump StateVersion on intentional changes and
// regenerate with -run TestSnapshotGolden -update-golden).
func TestSnapshotGolden(t *testing.T) {
	data, err := goldenCalibrator(t).Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "state_golden.json")
	if len(os.Args) > 0 && os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("snapshot encoding drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", data, want)
	}
}

// TestSnapshotRestoreRoundTrip proves a snapshot carries the full
// tuning state: a fresh calibrator restored from it must encode
// byte-identically and serve identical fits.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	orig := goldenCalibrator(t)
	data, err := orig.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	fresh := New()
	if err := fresh.Restore(s); err != nil {
		t.Fatal(err)
	}
	again, err := fresh.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("round trip drifted:\n%s\nvs\n%s", data, again)
	}
	g := graphOf(t, "/bib/book")
	n1, j1, h1 := orig.Scale(g)
	n2, j2, h2 := fresh.Scale(g)
	if n1 != n2 || j1 != j2 || h1 != h2 {
		t.Fatalf("restored fits differ: %v %v %v vs %v %v %v", n1, j1, h1, n2, j2, h2)
	}
	if a, b := orig.EffectiveWorkers(8), fresh.EffectiveWorkers(8); a != b {
		t.Fatalf("restored degree differs: %d vs %d", a, b)
	}
	o1, r1 := orig.Stats()
	o2, r2 := fresh.Stats()
	if o1 != o2 || r1 != r2 {
		t.Fatalf("restored counters differ: %d/%d vs %d/%d", o1, r1, o2, r2)
	}
}

func TestDecodeStateRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":             `{`,
		"wrong version":        `{"version":2,"observed":0,"regret":0}`,
		"negative observed":    `{"version":1,"observed":-1,"regret":0}`,
		"empty shape key":      `{"version":1,"observed":0,"regret":0,"shapes":{"":{"arms":[]}}}`,
		"auto arm":             `{"version":1,"observed":0,"regret":0,"shapes":{"Ra":{"arms":[{"strategy":"auto","count":1,"est_sum":1,"act_sum":1}]}}}`,
		"unknown arm":          `{"version":1,"observed":0,"regret":0,"shapes":{"Ra":{"arms":[{"strategy":"warp","count":1,"est_sum":1,"act_sum":1}]}}}`,
		"duplicate arm":        `{"version":1,"observed":0,"regret":0,"shapes":{"Ra":{"arms":[{"strategy":"nok","count":1,"est_sum":1,"act_sum":1},{"strategy":"nok","count":1,"est_sum":1,"act_sum":1}]}}}`,
		"negative arm count":   `{"version":1,"observed":0,"regret":0,"shapes":{"Ra":{"arms":[{"strategy":"nok","count":-1,"est_sum":1,"act_sum":1}]}}}`,
		"negative arm sum":     `{"version":1,"observed":0,"regret":0,"shapes":{"Ra":{"arms":[{"strategy":"nok","count":1,"est_sum":-1,"act_sum":1}]}}}`,
		"unknown batch family": `{"version":1,"observed":0,"regret":0,"batch":{"gpu":{}}}`,
		"negative batch count": `{"version":1,"observed":0,"regret":0,"batch":{"nok":{"interp_count":-1}}}`,
		"negative stream sum":  `{"version":1,"observed":0,"regret":0,"batch":{"stream":{"batch_ns":-1}}}`,
		"bad parallel key":     `{"version":1,"observed":0,"regret":0,"parallel":{"zero":{"sum":1,"count":1}}}`,
		"parallel budget 1":    `{"version":1,"observed":0,"regret":0,"parallel":{"1":{"sum":1,"count":1}}}`,
		"huge parallel budget": `{"version":1,"observed":0,"regret":0,"parallel":{"9999":{"sum":1,"count":1}}}`,
		"degree above budget":  `{"version":1,"observed":0,"regret":0,"parallel":{"4":{"sum":100,"count":2}}}`,
	}
	for name, src := range cases {
		if _, err := DecodeState([]byte(src)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestRestoreDropsStreamFamily: snapshots written by builds that also
// fitted a batched join-stream factor carry a "stream" batch family.
// They must still decode and restore; the family is dropped, and the
// NoK fit comes from the "nok" family alone.
func TestRestoreDropsStreamFamily(t *testing.T) {
	const src = `{"version":1,"observed":12,"regret":0,"batch":{` +
		`"nok":{"interp_ns":3000,"interp_work":300,"interp_count":3,"batch_ns":600,"batch_work":300,"batch_count":3},` +
		`"stream":{"interp_ns":3000,"interp_work":300,"interp_count":3,"batch_ns":9000,"batch_work":300,"batch_count":3}}}`
	s, err := DecodeState([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	if err := c.Restore(s); err != nil {
		t.Fatal(err)
	}
	if f := c.BatchFactor(); f < 0.199 || f > 0.201 {
		t.Fatalf("restored NoK factor = %v, want 0.2", f)
	}
	data, err := c.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"stream"`) {
		t.Fatalf("re-encoded snapshot kept the stream family:\n%s", data)
	}
	if !strings.Contains(string(data), `"nok"`) {
		t.Fatalf("re-encoded snapshot lost the nok family:\n%s", data)
	}
}

// TestRestoreRejectsWithoutClobbering proves an invalid snapshot leaves
// existing tuning untouched.
func TestRestoreRejectsWithoutClobbering(t *testing.T) {
	c := goldenCalibrator(t)
	before, _ := c.Snapshot().Encode()
	bad := State{Version: StateVersion + 1}
	if err := c.Restore(bad); err == nil {
		t.Fatal("version mismatch accepted")
	}
	after, _ := c.Snapshot().Encode()
	if !bytes.Equal(before, after) {
		t.Fatal("rejected restore mutated state")
	}
	if !strings.Contains(string(after), `"version": 1`) {
		t.Fatalf("unexpected snapshot shape:\n%s", after)
	}
}
