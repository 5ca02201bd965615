package cq

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xqp/internal/compile"
	"xqp/internal/engine"
	"xqp/internal/exec"
)

// freshResult evaluates the query from scratch against the document's
// current snapshot — the ground truth every accumulated delta state
// must be byte-identical to.
func freshResult(t testing.TB, e *engine.Engine, doc, src string, strat exec.Strategy) []string {
	t.Helper()
	st, syn, _, err := e.Snapshot(doc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := engine.Prepare(src, compile.Options{}, st, syn)
	if err != nil {
		t.Fatal(err)
	}
	items, err := fullEval(doc, st, p, strat, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.xml
	}
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// genDoc builds a bib document with n books, each with exactly one
// title, one price, and one author (the mutation generator preserves
// that shape so paths stay resolvable).
func genDoc(rng *rand.Rand, n int) string {
	var b strings.Builder
	b.WriteString("<bib>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<book year="%d"><title>seed-%d</title><author><last>L%d</last></author><price>%d</price></book>`,
			1990+rng.Intn(20), i, rng.Intn(50), 10+rng.Intn(140))
	}
	b.WriteString("</bib>")
	return b.String()
}

// randomMutation produces one valid mutation batch against a document
// that currently has *books element children of <bib>, updating the
// count. Each batch is one commit.
func randomMutation(rng *rand.Rand, seq int, books *int) []engine.Mutation {
	switch op := rng.Intn(10); {
	case op < 4 || *books <= 1: // insert a new book
		*books++
		return []engine.Mutation{{
			Op: engine.MutationInsert, Path: "/",
			XML: fmt.Sprintf(`<book year="%d"><title>new-%d</title><author><last>N%d</last></author><price>%d</price></book>`,
				1990+rng.Intn(20), seq, rng.Intn(50), 10+rng.Intn(140)),
		}}
	case op < 6: // delete a random book
		k := 1 + rng.Intn(*books)
		*books--
		return []engine.Mutation{{Op: engine.MutationDelete, Path: fmt.Sprintf("/book[%d]", k)}}
	case op < 8: // reprice a random book (may flip price predicates)
		k := 1 + rng.Intn(*books)
		return []engine.Mutation{
			{Op: engine.MutationDelete, Path: fmt.Sprintf("/book[%d]/price", k)},
			{Op: engine.MutationInsert, Path: fmt.Sprintf("/book[%d]", k),
				XML: fmt.Sprintf(`<price>%d</price>`, 10+rng.Intn(140))},
		}
	default: // add an author to a random book
		k := 1 + rng.Intn(*books)
		return []engine.Mutation{{
			Op: engine.MutationInsert, Path: fmt.Sprintf("/book[%d]", k),
			XML: fmt.Sprintf(`<author><last>A%d</last></author>`, seq),
		}}
	}
}

// TestDifferentialIncrementalVsFull drives random mutation sequences
// and checks, after every commit and for every watched query, that the
// state accumulated purely from deltas is byte-identical to a fresh
// from-scratch evaluation of the new snapshot. Configurations cover the
// incremental path, the threshold-full ref-join path, and multiple
// physical strategies for the full re-runs.
func TestDifferentialIncrementalVsFull(t *testing.T) {
	queries := []string{
		`//book/title`,
		`/bib/book[price < 80]/title`,
		`//book[price < 80]`,
		`//author/last`,
		`count(//book)`, // ineligible: always full, exercises diffLCS
	}
	configs := []Config{
		{Strategy: exec.StrategyAuto},                             // default 25% region cap
		{Strategy: exec.StrategyNoK, MaxFullFraction: 1.0},        // incremental whenever tracked
		{Strategy: exec.StrategyTwigStack, MaxFullFraction: 1e-9}, // always threshold-full (ref-join diff)
	}
	const steps = 40

	for ci, cfg := range configs {
		cfg := cfg
		t.Run(fmt.Sprintf("config%d_%s", ci, cfg.Strategy), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(42 + ci)))
			e := engine.New(engine.Config{})
			books := 6
			if err := e.Register("bib.xml", strings.NewReader(genDoc(rng, books))); err != nil {
				t.Fatal(err)
			}
			r := New(e, cfg)
			defer r.Close()

			subs := make([]*Subscription, len(queries))
			states := make([][]string, len(queries))
			for i, src := range queries {
				sub, err := r.Subscribe("bib.xml", src)
				if err != nil {
					t.Fatalf("subscribe %q: %v", src, err)
				}
				subs[i] = sub
				states[i] = recv(t, sub).Apply(nil)
				if want := freshResult(t, e, "bib.xml", src, cfg.Strategy); !sameStrings(states[i], want) {
					t.Fatalf("initial state for %q:\n got %q\nwant %q", src, states[i], want)
				}
			}

			for step := 0; step < steps; step++ {
				muts := randomMutation(rng, step, &books)
				if _, err := e.Apply("bib.xml", muts); err != nil {
					t.Fatalf("step %d (%+v): %v", step, muts, err)
				}
				// Every commit yields exactly one delta per subscriber, so the
				// receive is the synchronization point.
				for i, src := range queries {
					d := recv(t, subs[i])
					states[i] = d.Apply(states[i])
					if d.Size != len(states[i]) {
						t.Fatalf("step %d %q: delta Size %d but accumulated %d items",
							step, src, d.Size, len(states[i]))
					}
					want := freshResult(t, e, "bib.xml", src, cfg.Strategy)
					if !sameStrings(states[i], want) {
						t.Fatalf("step %d %q (delta full=%v reason=%q):\n got %q\nwant %q",
							step, src, d.Full, d.Reason, states[i], want)
					}
				}
			}

			s := r.Stats()
			t.Logf("config %d: commits=%d incremental=%d full=%d byReason=%v",
				ci, s.Commits, s.Incremental, s.FullRuns, s.FullByReason)
			if cfg.MaxFullFraction == 1.0 && s.Incremental == 0 {
				t.Fatal("permissive config never took the incremental path")
			}
			if cfg.MaxFullFraction == 1e-9 && s.FullByReason["dirty-region-threshold"] == 0 {
				t.Fatal("restrictive config never hit the threshold fallback")
			}
		})
	}
}
