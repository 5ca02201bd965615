package analyze

import (
	"strings"
	"testing"

	"xqp/internal/core"
	"xqp/internal/exec"
	"xqp/internal/parser"
	"xqp/internal/stats"
	"xqp/internal/storage"
	"xqp/internal/value"
)

const testDoc = `<bib>
  <book id="1"><title>TCP/IP</title><price>65</price><author>S</author></book>
  <book id="2"><title>Data</title><price>40</price></book>
</bib>`

func load(t *testing.T) (*storage.Store, *stats.Synopsis) {
	t.Helper()
	st, err := storage.LoadReader(strings.NewReader(testDoc))
	if err != nil {
		t.Fatal(err)
	}
	return st, stats.Build(st)
}

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

func codes(r *Result) []string {
	out := make([]string, len(r.Diagnostics))
	for i, d := range r.Diagnostics {
		out[i] = d.Code
	}
	return out
}

func hasCode(r *Result, code string) bool {
	for _, d := range r.Diagnostics {
		if d.Code == code {
			return true
		}
	}
	return false
}

// TestDiagnosticCodes exercises every documented code with at least one
// positive and one negative query.
func TestDiagnosticCodes(t *testing.T) {
	cases := []struct {
		name  string
		query string
		code  string
		want  bool // the code should (not) be reported
	}{
		// XQA001: structurally empty navigation below childless node kinds.
		{"attr-child", `/bib/book/@id/x`, CodeEmptyAxis, true},
		{"attr-descendant", `/bib/book/@id//x`, CodeEmptyAxis, true},
		{"text-child", `/bib/book/title/text()/x`, CodeEmptyAxis, true},
		{"comment-child", `/bib/book/comment()/x`, CodeEmptyAxis, true},
		{"attr-then-parent", `/bib/book/@id/..`, CodeEmptyAxis, false},
		{"plain-path", `/bib/book/title`, CodeEmptyAxis, false},

		// XQA002: synopsis-unmatchable paths (store-bound cases below
		// run with the synopsis; this one checks the no-store negative).
		{"no-store-no-synopsis", `/bib/nosuch`, CodeEmptyPath, false},

		// XQA003: for clause over a statically empty sequence.
		{"for-over-empty", `for $x in () return $x`, CodeEmptyFor, true},
		{"for-over-path", `for $x in /bib/book return $x`, CodeEmptyFor, false},

		// XQA004: unused variables.
		{"unused-let", `for $b in /bib/book let $u := 1 return $b`, CodeUnusedVar, true},
		{"unused-for", `for $b in /bib/book return 1`, CodeUnusedVar, true},
		{"unused-quant", `some $x in /bib/book satisfies true()`, CodeUnusedVar, true},
		{"used-in-predicate", `let $p := 50 return /bib/book[price < $p]`, CodeUnusedVar, false},
		{"all-used", `for $b in /bib/book return $b/title`, CodeUnusedVar, false},

		// XQA005: shadowed variables.
		{"shadow-nested-for", `for $b in /bib/book return for $b in $b/author return $b`, CodeShadowedVar, true},
		{"shadow-let-rebind", `let $x := 1 let $x := 2 return $x`, CodeShadowedVar, true},
		{"shadow-quantifier", `for $b in /bib/book return some $b in $b/author satisfies $b`, CodeShadowedVar, true},
		{"distinct-vars", `for $b in /bib/book let $t := $b/title return $t`, CodeShadowedVar, false},

		// XQA006: comparison decided by static types.
		{"count-vs-string", `for $b in /bib/book where count($b/author) = "none" return $b`, CodeCmpType, true},
		{"sum-vs-string-flip", `for $b in /bib/book where "none" < sum($b/price) return $b`, CodeCmpType, true},
		{"count-vs-numeric-string", `for $b in /bib/book where count($b/author) = "2" return $b`, CodeCmpType, false},
		{"count-vs-number", `for $b in /bib/book where count($b/author) = 2 return $b`, CodeCmpType, false},
		{"string-vs-string", `for $b in /bib/book where $b/title = "Data" return $b`, CodeCmpType, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := Analyze(plan(t, tc.query), Options{})
			if got := hasCode(r, tc.code); got != tc.want {
				t.Errorf("query %q: %s reported=%v want %v (diagnostics: %v)",
					tc.query, tc.code, got, tc.want, codes(r))
			}
		})
	}
}

// TestSynopsisUnmatchable covers XQA002 positives and negatives, which
// need a bound store.
func TestSynopsisUnmatchable(t *testing.T) {
	st, syn := load(t)
	opts := Options{Store: st, Synopsis: syn}
	cases := []struct {
		name  string
		query string
		want  bool
	}{
		{"missing-tag", `/bib/nosuch`, true},
		{"wrong-nesting", `/bib/title`, true},
		{"missing-descendant", `//nosuch`, true},
		{"missing-attr", `/bib/book/@missing`, true},
		{"present-path", `/bib/book/title`, false},
		{"present-descendant", `//title`, false},
		{"present-attr", `/bib/book/@id`, false},
		{"relative-present", `for $b in /bib/book return $b/title`, false},
		{"relative-missing", `for $b in /bib/book return $b/nosuch`, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := Analyze(plan(t, tc.query), opts)
			if got := hasCode(r, CodeEmptyPath); got != tc.want {
				t.Errorf("query %q: XQA002 reported=%v want %v (diagnostics: %v)",
					tc.query, got, tc.want, codes(r))
			}
		})
	}
}

// TestNoFalsePruningOnForeignNodes: synopsis facts must not apply to
// constructed nodes, whose paths the document synopsis knows nothing
// about.
func TestNoFalsePruningOnForeignNodes(t *testing.T) {
	st, syn := load(t)
	r := Analyze(plan(t, `for $x in <wrap><nosuch>1</nosuch></wrap> return $x/nosuch`),
		Options{Store: st, Synopsis: syn, Prune: true})
	if hasCode(r, CodeEmptyPath) {
		t.Fatalf("synopsis applied to constructed nodes: %v", codes(r))
	}
	if r.Pruned != 0 {
		t.Fatalf("pruned %d subplans of a constructed tree", r.Pruned)
	}
}

func TestPruneReplacesEmptySubplans(t *testing.T) {
	st, syn := load(t)
	r := Analyze(plan(t, `(/bib/book/title, /bib/nosuch)`),
		Options{Store: st, Synopsis: syn, Prune: true})
	if r.Pruned != 1 {
		t.Fatalf("pruned = %d, want 1\n%s", r.Pruned, core.Explain(r.Plan))
	}
	seq, ok := r.Plan.(*core.SeqOp)
	if !ok || len(seq.Items) != 2 {
		t.Fatalf("unexpected plan shape:\n%s", core.Explain(r.Plan))
	}
	c, ok := seq.Items[1].(*core.ConstOp)
	if !ok || len(c.Seq) != 0 {
		t.Fatalf("second branch not pruned to const ():\n%s", core.Explain(r.Plan))
	}
}

func TestPruneCascadesThroughFLWOR(t *testing.T) {
	st, syn := load(t)
	r := Analyze(plan(t, `for $x in /bib/nosuch return $x/title`),
		Options{Store: st, Synopsis: syn, Prune: true})
	if c, ok := r.Plan.(*core.ConstOp); !ok || len(c.Seq) != 0 {
		t.Fatalf("FLWOR over empty for-clause not pruned:\n%s", core.Explain(r.Plan))
	}
	if !hasCode(r, CodeEmptyFor) {
		t.Fatalf("missing XQA003: %v", codes(r))
	}
}

// TestImpureNotPruned: subplans that may raise must survive, even when
// provably empty.
func TestImpureNotPruned(t *testing.T) {
	st, syn := load(t)
	r := Analyze(plan(t, `for $x in /bib/nosuch return error("boom")`),
		Options{Store: st, Synopsis: syn, Prune: true})
	// The for-clause expression itself is pure and empty: pruning the
	// whole FLWOR is fine because the return never runs. But a plan whose
	// *empty* part is impure must stay.
	r2 := Analyze(plan(t, `(error("boom"), /bib/nosuch)[1]`),
		Options{Store: st, Synopsis: syn, Prune: true})
	_ = r
	if countConst(r2.Plan) > 0 && core.Count(r2.Plan, func(o core.Op) bool {
		f, ok := o.(*core.FnOp)
		return ok && f.Fn.Name == "error"
	}) == 0 {
		t.Fatalf("error() call eliminated:\n%s", core.Explain(r2.Plan))
	}
}

func countConst(op core.Op) int {
	return core.Count(op, func(o core.Op) bool {
		c, ok := o.(*core.ConstOp)
		return ok && len(c.Seq) == 0
	})
}

func TestAnnotationInference(t *testing.T) {
	cases := []struct {
		query string
		kind  Kind
		card  Card
	}{
		{`1 + 2`, KindNumber, CardOne},
		{`count(/bib/book)`, KindNumber, CardOne},
		{`"a" = "b"`, KindBool, CardOne},
		{`()`, KindAny, CardEmpty},
		{`(1, 2)`, KindNumber, CardMany},
		{`/bib/book`, KindNode, CardMany},
		{`<a/>`, KindNode, CardOne},
		{`if (true()) then 1 else 2`, KindNumber, CardOne},
		{`1 + ()`, KindNumber, CardEmpty},
		{`some $x in (1,2) satisfies $x = 1`, KindBool, CardOne},
	}
	for _, tc := range cases {
		p := plan(t, tc.query)
		r := Analyze(p, Options{})
		ann, ok := r.AnnotationOf(r.Plan)
		if !ok {
			t.Errorf("%q: no annotation", tc.query)
			continue
		}
		if ann.Kind != tc.kind || ann.Card != tc.card {
			t.Errorf("%q: annotation %s, want %s %s", tc.query, ann, tc.kind, tc.card)
		}
	}
}

func TestPureGatesOnPredicates(t *testing.T) {
	pure := plan(t, `/bib/book[price < 50]/title`)
	if !Pure(pure) {
		t.Error("literal-predicate path should be pure")
	}
	impure := plan(t, `/bib/book[error()]/title`)
	if Pure(impure) {
		t.Error("error() inside a step predicate must make the plan impure")
	}
}

func TestAnnotateGraphs(t *testing.T) {
	st, syn := load(t)
	// Build a TPM plan via the pattern package.
	e, err := parser.Parse(`//title`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.Translate(e)
	if err != nil {
		t.Fatal(err)
	}
	po, ok := p.(*core.PathOp)
	if !ok {
		t.Fatalf("plan is %T", p)
	}
	g, err := core.BuildPattern(po.Rooted, po.Steps)
	if err != nil {
		t.Fatal(err)
	}
	tpm := &core.TPMOp{Input: &core.DocOp{}, Graph: g}
	if g.EstCard >= 0 {
		t.Fatalf("fresh graph already annotated: %f", g.EstCard)
	}
	if n := AnnotateGraphs(tpm, st, syn); n != 1 {
		t.Fatalf("annotated %d graphs, want 1", n)
	}
	if g.EstCard != 2 { // two <title> elements in testDoc
		t.Fatalf("EstCard = %f, want 2", g.EstCard)
	}
}

// TestWhereFalse covers XQA007: a where clause whose condition is
// statically empty is always false. The warning fires exactly when the
// dead loop survives analysis (impure body, or pruning disabled);
// a pure FLWOR under pruning is replaced by () silently, since XQA002
// already points at the unmatchable condition.
func TestWhereFalse(t *testing.T) {
	st, syn := load(t)
	const deadWhere = `for $b in /bib/book where /bib/nosuch return $b`
	const deadWhereImpure = `for $b in /bib/book where /bib/nosuch return error("boom")`

	// Impure body, pruning on: loop kept, XQA007 reported.
	r := Analyze(plan(t, deadWhereImpure), Options{Store: st, Synopsis: syn, Prune: true})
	if !hasCode(r, CodeWhereFalse) {
		t.Errorf("impure dead-where loop: missing XQA007 (diagnostics: %v)", codes(r))
	}
	if _, isConst := r.Plan.(*core.ConstOp); isConst {
		t.Error("FLWOR with impure return was pruned")
	}

	// Pure body, pruning on: replaced by () without the extra warning.
	r = Analyze(plan(t, deadWhere), Options{Store: st, Synopsis: syn, Prune: true})
	if hasCode(r, CodeWhereFalse) {
		t.Errorf("pruned pure loop still warns XQA007 (diagnostics: %v)", codes(r))
	}
	if !hasCode(r, CodeEmptyPath) {
		t.Errorf("unmatchable where condition lost its XQA002 (diagnostics: %v)", codes(r))
	}
	if c, ok := r.Plan.(*core.ConstOp); !ok || len(c.Seq) != 0 {
		t.Fatalf("pure dead-where FLWOR not pruned to ():\n%s", core.Explain(r.Plan))
	}

	// Pure body, pruning off: loop kept, XQA007 reported.
	r = Analyze(plan(t, deadWhere), Options{Store: st, Synopsis: syn})
	if !hasCode(r, CodeWhereFalse) {
		t.Errorf("diagnostics-only run missing XQA007 (diagnostics: %v)", codes(r))
	}

	// A statically empty where condition needs no synopsis at all.
	r = Analyze(plan(t, `for $b in (1, 2) where () return $b`), Options{})
	if !hasCode(r, CodeWhereFalse) {
		t.Errorf("where () missing XQA007 (diagnostics: %v)", codes(r))
	}

	// Matchable condition: no warning.
	r = Analyze(plan(t, `for $b in /bib/book where $b/price return $b`),
		Options{Store: st, Synopsis: syn, Prune: true})
	if hasCode(r, CodeWhereFalse) {
		t.Errorf("live where clause flagged XQA007 (diagnostics: %v)", codes(r))
	}
}

func TestEmptyConstEvaluates(t *testing.T) {
	st, syn := load(t)
	r := Analyze(plan(t, `/bib/nosuch`), Options{Store: st, Synopsis: syn, Prune: true})
	eng := exec.New(st, exec.Options{})
	seq, err := eng.Eval(r.Plan, exec.Root())
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 0 {
		t.Fatalf("pruned plan returned %v", seq)
	}
	_ = value.Sequence(nil)
}

// TestPredicatesAnalyzed: step predicates are subplans the analyzer
// visits with the context item typed as one node. Each gets a static
// type, structural emptiness inside one is diagnosed and pruned, and a
// variable read only inside a predicate counts as used; the synopsis is
// not consulted there (the candidate is not known to lie on a path).
func TestPredicatesAnalyzed(t *testing.T) {
	st, syn := load(t)
	opts := Options{Store: st, Synopsis: syn, Prune: true}
	r := Analyze(plan(t, `/bib/book[count(author) > 1][@year/x]`), opts)
	path := r.Plan.(*core.PathOp)
	preds := path.Steps[1].Preds
	if ann, ok := r.AnnotationOf(preds[0]); !ok || ann.Kind != KindBool || ann.Card != CardOne {
		t.Errorf("count(author) > 1: annotation %+v (found %v), want boolean one", ann, ok)
	}
	if c, ok := preds[1].(*core.ConstOp); !ok || len(c.Seq) != 0 || !hasCode(r, CodeEmptyAxis) {
		t.Errorf("@year/x not pruned with XQA001: %v\n%s", codes(r), core.Explain(r.Plan))
	}
	r = Analyze(plan(t, `for $m in (1, 2) return /bib/book[price > $m]`), opts)
	if hasCode(r, CodeUnusedVar) {
		t.Errorf("variable read in a predicate reported unused: %v", codes(r))
	}
	r = Analyze(plan(t, `/bib/book[not(nosuch)]`), opts)
	if len(r.Diagnostics) != 0 || r.Pruned != 0 {
		t.Errorf("synopsis applied inside a predicate: %v, pruned %d", codes(r), r.Pruned)
	}
}
