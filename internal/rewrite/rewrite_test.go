package rewrite

import (
	"strings"
	"testing"

	"xqp/internal/core"
	"xqp/internal/parser"
	"xqp/internal/value"
)

func plan(t *testing.T, src string) core.Op {
	t.Helper()
	e, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	op, err := core.Translate(e)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func countType[T core.Op](op core.Op) int {
	return core.Count(op, func(o core.Op) bool { _, ok := o.(T); return ok })
}

func TestPathFusion(t *testing.T) {
	p := plan(t, "/bib/book[price < 50]/title")
	out, stats := Rewrite(p, All())
	if stats.PathsFused != 1 {
		t.Fatalf("fused = %d", stats.PathsFused)
	}
	if countType[*core.PathOp](out) != 0 {
		t.Fatalf("PathOp remains:\n%s", core.Explain(out))
	}
	if countType[*core.TPMOp](out) != 1 {
		t.Fatalf("no TPM:\n%s", core.Explain(out))
	}
}

func TestPathFusionDisabled(t *testing.T) {
	p := plan(t, "/bib/book/title")
	out, stats := Rewrite(p, Options{})
	if stats.PathsFused != 0 || countType[*core.PathOp](out) != 1 {
		t.Fatal("fusion ran while disabled")
	}
}

func TestPartialFusion(t *testing.T) {
	// parent:: is not pattern-expressible; the prefix should fuse.
	p := plan(t, "/bib/book/title/parent::book")
	out, stats := Rewrite(p, All())
	if stats.PartialFusions != 1 {
		t.Fatalf("partial fusions = %d\n%s", stats.PartialFusions, core.Explain(out))
	}
	if countType[*core.TPMOp](out) != 1 || countType[*core.PathOp](out) != 1 {
		t.Fatalf("expected TPM+PathOp:\n%s", core.Explain(out))
	}
}

func TestPositionalPredicateNotFused(t *testing.T) {
	p := plan(t, "/bib/book[1]")
	out, _ := Rewrite(p, All())
	// book[1] cannot enter a pattern; whole path stays navigational.
	if countType[*core.PathOp](out) != 1 {
		t.Fatalf("positional predicate wrongly fused:\n%s", core.Explain(out))
	}
}

// TestPredicatePathsFuse: a step whose predicate the pattern builder
// cannot capture stays πs (behind the fused prefix /bib), and the
// rewriter recurses into its predicates, where a relative path fuses
// into τ anchored at the context item and constants fold.
func TestPredicatePathsFuse(t *testing.T) {
	out, stats := Rewrite(plan(t, `/bib/book[not(.//last)][price > 10 + 5]/title`), All())
	path, ok := out.(*core.PathOp)
	if !ok || len(path.Steps) != 2 || stats.PartialFusions != 1 {
		t.Fatalf("want /bib fused and book[…]/title kept πs:\n%s", core.Explain(out))
	}
	preds := path.Steps[0].Preds
	inner := core.Count(preds[0], func(o core.Op) bool {
		tpm, ok := o.(*core.TPMOp)
		if !ok {
			return false
		}
		_, ctx := tpm.Input.(*core.ContextOp)
		return ctx && !tpm.Graph.Rooted
	})
	if inner != 1 || stats.PathsFused != 1 {
		t.Fatalf("predicate path .//last not fused (fused %d):\n%s", stats.PathsFused, core.Explain(out))
	}
	if c, ok := preds[1].(*core.CompareOp); !ok || !isConst(c.R) {
		t.Fatalf("10 + 5 not folded inside the predicate:\n%s", core.Explain(out))
	}
}

func TestPredicatePushdownComparison(t *testing.T) {
	p := plan(t, `for $b in /bib/book where $b/price < 50 return $b/title`)
	out, stats := Rewrite(p, All())
	if stats.PredsPushed != 1 {
		t.Fatalf("preds pushed = %d\n%s", stats.PredsPushed, core.Explain(out))
	}
	f := findFLWOR(out)
	if f == nil || f.Where != nil {
		t.Fatalf("where not removed:\n%s", core.Explain(out))
	}
	// The clause pattern must now contain the price predicate.
	tpm, ok := f.Clauses[0].Expr.(*core.TPMOp)
	if !ok {
		t.Fatalf("clause not a TPM:\n%s", core.Explain(out))
	}
	if !strings.Contains(tpm.Graph.String(), "price") {
		t.Fatalf("price not in pattern:\n%s", tpm.Graph)
	}
}

func TestPredicatePushdownExistence(t *testing.T) {
	p := plan(t, `for $b in /bib/book where $b/author return $b/title`)
	out, stats := Rewrite(p, All())
	if stats.PredsPushed != 1 {
		t.Fatalf("preds pushed = %d\n%s", stats.PredsPushed, core.Explain(out))
	}
	f := findFLWOR(out)
	if f.Where != nil {
		t.Fatal("where not removed")
	}
}

func TestPredicatePushdownConjunction(t *testing.T) {
	p := plan(t, `for $b in /bib/book where $b/price < 50 and $b/author and count($b/author) > 1 return $b`)
	out, stats := Rewrite(p, All())
	if stats.PredsPushed != 2 {
		t.Fatalf("preds pushed = %d, want 2\n%s", stats.PredsPushed, core.Explain(out))
	}
	f := findFLWOR(out)
	if f.Where == nil {
		t.Fatal("count() conjunct wrongly pushed")
	}
}

func TestPushdownRespectsLet(t *testing.T) {
	// let-bound variables must not receive pattern predicates (their
	// cardinality semantics differ).
	p := plan(t, `for $x in /a/b let $y := $x/c where $y/d = 1 return $x`)
	out, _ := Rewrite(p, All())
	f := findFLWOR(out)
	if f.Where == nil {
		t.Fatalf("predicate over let-var was pushed:\n%s", core.Explain(out))
	}
}

func TestPushdownFlippedLiteral(t *testing.T) {
	p := plan(t, `for $b in /bib/book where 50 > $b/price return $b`)
	out, stats := Rewrite(p, All())
	if stats.PredsPushed != 1 {
		t.Fatalf("flipped literal not pushed:\n%s", core.Explain(out))
	}
	f := findFLWOR(out)
	tpm := f.Clauses[0].Expr.(*core.TPMOp)
	if !strings.Contains(tpm.Graph.String(), "<") {
		t.Fatalf("flip wrong:\n%s", tpm.Graph)
	}
}

func TestConstFold(t *testing.T) {
	p := plan(t, "1 + 2 * 3")
	out, stats := Rewrite(p, All())
	if stats.ConstsFolded != 2 {
		t.Fatalf("folds = %d", stats.ConstsFolded)
	}
	c, ok := out.(*core.ConstOp)
	if !ok || c.Seq[0] != value.Int(7) {
		t.Fatalf("folded to %v", core.Explain(out))
	}
	// Comparison folding inside if.
	p2 := plan(t, `if (1 < 2) then "a" else "b"`)
	out2, _ := Rewrite(p2, All())
	if c2, ok := out2.(*core.ConstOp); !ok || c2.Seq[0] != value.Str("a") {
		t.Fatalf("if not folded: %s", core.Explain(out2))
	}
	// Division by zero is not folded (kept as a runtime error).
	p3 := plan(t, "1 idiv 0")
	out3, _ := Rewrite(p3, All())
	if _, ok := out3.(*core.ConstOp); ok {
		t.Fatal("idiv 0 folded")
	}
}

func TestLetElimination(t *testing.T) {
	p := plan(t, `for $b in /a let $unused := $b/x return $b`)
	out, stats := Rewrite(p, All())
	if stats.LetsEliminated != 1 {
		t.Fatalf("lets eliminated = %d", stats.LetsEliminated)
	}
	f := findFLWOR(out)
	if len(f.Clauses) != 1 {
		t.Fatalf("clauses = %d", len(f.Clauses))
	}
	// Used lets stay.
	p2 := plan(t, `for $b in /a let $t := $b/x return $t`)
	out2, stats2 := Rewrite(p2, All())
	if stats2.LetsEliminated != 0 || len(findFLWOR(out2).Clauses) != 2 {
		t.Fatal("used let eliminated")
	}
	// Lets referenced only from step predicates stay.
	p3 := plan(t, `for $b in /a let $m := 5 return /a/b[price < $m]`)
	out3, stats3 := Rewrite(p3, All())
	if stats3.LetsEliminated != 0 {
		t.Fatalf("predicate-referenced let eliminated:\n%s", core.Explain(out3))
	}
}

func TestLetEliminationKeepsImpureBindings(t *testing.T) {
	// An unused let whose binding may raise must survive: dropping it
	// would silently swallow the error.
	p := plan(t, `for $b in /a let $chk := error("bad doc") return $b`)
	out, stats := Rewrite(p, All())
	if stats.LetsEliminated != 0 {
		t.Fatalf("impure let eliminated:\n%s", core.Explain(out))
	}
	if len(findFLWOR(out).Clauses) != 2 {
		t.Fatalf("clauses = %d, want 2", len(findFLWOR(out).Clauses))
	}
	// An unknown function never reaches the rewriter: it is XPST0017 at
	// translation.
	e, err := parser.Parse(`for $b in /a let $x := frobnicate($b) return $b`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Translate(e); err == nil || !strings.Contains(err.Error(), "XPST0017 at line 1, column 24") {
		t.Fatalf("unknown function translated: err = %v", err)
	}
	// A pure unused let inside a larger binding expression still goes.
	p3 := plan(t, `for $b in /a let $u := count($b/x) + 1 return $b`)
	_, stats3 := Rewrite(p3, All())
	if stats3.LetsEliminated != 1 {
		t.Fatalf("pure unused let kept: eliminated = %d", stats3.LetsEliminated)
	}
}

func TestRewriteInsideConstructor(t *testing.T) {
	p := plan(t, `<r>{/bib/book/title}</r>`)
	out, stats := Rewrite(p, All())
	if stats.PathsFused != 1 {
		t.Fatalf("constructor content not rewritten:\n%s", core.Explain(out))
	}
}

func TestRewriteInsideQuantifier(t *testing.T) {
	p := plan(t, `some $x in /a/b satisfies $x/c = 1`)
	_, stats := Rewrite(p, All())
	if stats.PathsFused < 1 {
		t.Fatal("quantifier bindings not rewritten")
	}
}

func findFLWOR(op core.Op) *core.FLWOROp {
	var f *core.FLWOROp
	core.Walk(op, func(o core.Op) bool {
		if ff, ok := o.(*core.FLWOROp); ok && f == nil {
			f = ff
		}
		return true
	})
	return f
}
