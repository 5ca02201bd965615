package analyze

// Tests for purity.go and annotation.go: impure builtins must poison
// every enclosing annotation (or pruning would eliminate observable
// failures), and the EstCard annotation must round-trip from the
// analyzer through pattern.Graph into the cost model.

import (
	"testing"

	"xqp/internal/core"
	"xqp/internal/cost"
	"xqp/internal/parser"
)

// TestImpurePropagation: an error()-style call anywhere in the subtree
// must make the root annotation impure; pure counterparts stay pure.
func TestImpurePropagation(t *testing.T) {
	cases := []struct {
		query string
		pure  bool
	}{
		{`1 + 2`, true},
		{`count(/bib/book)`, true},
		{`error("boom")`, false},
		{`(1, 2, error("boom"))`, false},
		{`1 + error("boom")`, false},
		{`concat("a", error("boom"))`, false},
		{`for $b in /bib/book return error("boom")`, false},
		{`for $b in /bib/book where error("boom") return $b`, false},
		{`let $x := error("boom") return 1`, false},
		{`some $x in (1, 2) satisfies error("boom")`, false},
		{`if (error("boom")) then 1 else 2`, false},
		{`if (true()) then 1 else 2`, true},
		{`<a>{error("boom")}</a>`, false},
		{`<a>{1 + 2}</a>`, true},
		{`-error("boom")`, false},
		{`/bib/book[error("boom")]`, false},
		{`/bib/book[price < 50]`, true},
	}
	for _, tc := range cases {
		r := Analyze(plan(t, tc.query), Options{})
		ann, ok := r.AnnotationOf(r.Plan)
		if !ok {
			t.Errorf("%q: no annotation", tc.query)
			continue
		}
		if ann.Pure != tc.pure {
			t.Errorf("%q: Pure = %v, want %v", tc.query, ann.Pure, tc.pure)
		}
		if got := Pure(r.Plan); got != tc.pure {
			t.Errorf("%q: Pure(plan) = %v, want %v", tc.query, got, tc.pure)
		}
	}
}

// TestPureExpr covers purity inside step predicates, which are ordinary
// subplans of their πs-chain: the plan walk and the analyzer's
// annotation both see them, including the doc()/document() special case
// (they translate to DocOp, not to an unknown-function call). An unknown
// function fails to translate, so it never reaches the check.
func TestPureExpr(t *testing.T) {
	cases := []struct {
		expr string
		pure bool
	}{
		{`price < 50`, true},
		{`doc("bib.xml")//book`, true},
		{`document("bib.xml")//book`, true},
		{`error("boom")`, false},
		{`count(error("boom"))`, false},
	}
	for _, tc := range cases {
		p := plan(t, "/bib/book["+tc.expr+"]")
		if got := Pure(p); got != tc.pure {
			t.Errorf("Pure(/bib/book[%s]) = %v, want %v", tc.expr, got, tc.pure)
		}
		r := Analyze(p, Options{})
		if ann, _ := r.AnnotationOf(r.Plan); ann.Pure != tc.pure {
			t.Errorf("/bib/book[%s]: annotated Pure = %v, want %v", tc.expr, ann.Pure, tc.pure)
		}
	}
	e, err := parser.Parse(`/bib/book[mystery-function(1)]`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Translate(e); err == nil {
		t.Error("unknown function in a predicate translated")
	}
}

// TestEstCardRoundTrip: the estimate stamped by AnnotateGraphs must
// survive Clone and be consumed verbatim by the cost model instead of a
// fresh synopsis walk.
func TestEstCardRoundTrip(t *testing.T) {
	st, syn := load(t)
	p := plan(t, `//title`)
	po, ok := p.(*core.PathOp)
	if !ok {
		t.Fatalf("plan is %T", p)
	}
	g, err := core.BuildPattern(po.Rooted, po.Steps)
	if err != nil {
		t.Fatal(err)
	}
	if g.EstCard >= 0 {
		t.Fatalf("fresh graph carries EstCard %f, want the -1 sentinel", g.EstCard)
	}

	tpm := &core.TPMOp{Input: &core.DocOp{}, Graph: g}
	if n := AnnotateGraphs(tpm, st, syn); n != 1 {
		t.Fatalf("annotated %d graphs, want 1", n)
	}
	if g.EstCard != 2 {
		t.Fatalf("EstCard = %f, want 2 (two <title> elements)", g.EstCard)
	}
	if c := g.Clone(); c.EstCard != g.EstCard {
		t.Fatalf("Clone dropped EstCard: %f != %f", c.EstCard, g.EstCard)
	}

	// The model must prefer the stamped annotation over re-estimation:
	// plant a value the synopsis would never produce and read it back.
	g.EstCard = 7
	m := cost.NewModelWith(st, syn)
	if est := m.Estimate(g); est.OutputCard != 7 {
		t.Fatalf("cost model re-estimated: OutputCard = %f, want the stamped 7", est.OutputCard)
	}

	// Unannotated graphs fall back to the synopsis walk.
	fresh, err := core.BuildPattern(po.Rooted, po.Steps)
	if err != nil {
		t.Fatal(err)
	}
	if est := m.Estimate(fresh); est.OutputCard != 2 {
		t.Fatalf("fallback estimate OutputCard = %f, want 2", est.OutputCard)
	}
}

// TestAnnotationStrings pins the human-readable renderings used in
// EXPLAIN output and diagnostics.
func TestAnnotationStrings(t *testing.T) {
	if s := (Annotation{Kind: KindNumber, Card: CardOne, Pure: true}).String(); s != "number one" {
		t.Errorf("annotation string = %q", s)
	}
	if s := (Annotation{Kind: KindNode, Card: CardMany}).String(); s != "node many impure" {
		t.Errorf("impure annotation string = %q", s)
	}
	if CardZeroOrOne.String() != "zero-or-one" || KindBool.String() != "boolean" {
		t.Error("card/kind strings drifted")
	}
}
