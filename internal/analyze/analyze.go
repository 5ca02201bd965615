// Package analyze implements the compile-time static analysis pass that
// runs between translation (package core) and rewriting (package rewrite).
// It infers a static type and cardinality annotation for every operator,
// checks path and pattern operators against the structural axioms of the
// data model (attributes, text, comments and processing instructions have
// no children) and against the bound document's path synopsis (package
// stats), replaces provably-empty subplans with the empty-sequence
// constant, and emits structured diagnostics for queries that are almost
// certainly wrong: unused or shadowed variables, dead branches, and
// comparisons decided by static types alone.
//
// Pruning is gated on purity (see Pure): a subplan that may call an
// impure builtin such as error() is never eliminated, so observable
// failures survive optimization.
package analyze

import (
	"fmt"
	"strconv"
	"strings"

	"xqp/internal/ast"
	"xqp/internal/builtin"
	"xqp/internal/core"
	"xqp/internal/pattern"
	"xqp/internal/stats"
	"xqp/internal/storage"
	"xqp/internal/value"
)

// Options configures an analysis run.
type Options struct {
	// Store is the document the query is compiled against; nil when the
	// query is analyzed without a bound store (structural checks only).
	Store *storage.Store
	// Synopsis is the store's path synopsis; both Store and Synopsis must
	// be set for synopsis-based unmatchability checks.
	Synopsis *stats.Synopsis
	// Prune replaces provably-empty pure subplans with the empty-sequence
	// constant. Disable for diagnostics-only runs (xq -check keeps it on
	// so the explain output shows the pruned plan).
	Prune bool
}

// Result is the outcome of an analysis pass.
type Result struct {
	// Plan is the analyzed plan; with Options.Prune it has provably-empty
	// subplans replaced by empty-sequence constants.
	Plan core.Op
	// Diagnostics lists the findings in plan order.
	Diagnostics []Diagnostic
	// Pruned counts subplans replaced by the empty-sequence constant.
	Pruned int

	ann map[core.Op]Annotation
}

// AnnotationOf returns the inferred annotation of an operator of the
// analyzed plan.
func (r *Result) AnnotationOf(op core.Op) (Annotation, bool) {
	a, ok := r.ann[op]
	return a, ok
}

// Errors reports whether any diagnostic has Error severity.
func (r *Result) Errors() bool {
	for _, d := range r.Diagnostics {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Analyze runs the static analysis pass over a logical plan.
func Analyze(plan core.Op, opts Options) *Result {
	a := &analyzer{opts: opts, res: &Result{ann: map[core.Op]Annotation{}}}
	p, _ := a.visit(plan, nil)
	a.res.Plan = p
	return a.res
}

type analyzer struct {
	opts Options
	res  *Result
	// ctx annotates the context item while a step predicate is visited
	// (inPred).
	ctx    Annotation
	inPred bool
}

func (a *analyzer) diag(code string, sev Severity, span, format string, args ...any) {
	a.res.Diagnostics = append(a.res.Diagnostics, Diagnostic{
		Code: code, Severity: sev, Span: span, Message: fmt.Sprintf(format, args...),
	})
}

// scope is a lexical chain of variable annotations with usage tracking.
type scope struct {
	parent *scope
	vars   map[string]*varInfo
}

type varInfo struct {
	ann  Annotation
	used bool
}

func (s *scope) child() *scope { return &scope{parent: s, vars: map[string]*varInfo{}} }

func (s *scope) define(name string, ann Annotation) *varInfo {
	vi := &varInfo{ann: ann}
	s.vars[name] = vi
	return vi
}

// lookup finds a binding and marks it used.
func (s *scope) lookup(name string) (Annotation, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if vi, ok := sc.vars[name]; ok {
			vi.used = true
			return vi.ann, true
		}
	}
	return Annotation{}, false
}

// defined reports visibility without marking usage.
func (s *scope) defined(name string) bool {
	for sc := s; sc != nil; sc = sc.parent {
		if _, ok := sc.vars[name]; ok {
			return true
		}
	}
	return false
}

// finish records the annotation and applies the generic pruning rule:
// a provably-empty pure subplan becomes the empty-sequence constant.
func (a *analyzer) finish(op core.Op, ann Annotation) (core.Op, Annotation) {
	if a.opts.Prune && ann.Card == CardEmpty && ann.Pure {
		if c, isConst := op.(*core.ConstOp); !isConst || len(c.Seq) > 0 {
			a.res.Pruned++
			op = &core.ConstOp{}
		}
	}
	a.res.ann[op] = ann
	return op, ann
}

func (a *analyzer) visit(op core.Op, sc *scope) (core.Op, Annotation) {
	switch o := op.(type) {
	case *core.ConstOp:
		return a.finish(o, constAnnotation(o.Seq))
	case *core.VarOp:
		if sc != nil {
			if ann, ok := sc.lookup(o.Name); ok {
				return a.finish(o, ann)
			}
		}
		// Unbound at analysis time: the executor will raise; never prune.
		return a.finish(o, Annotation{Kind: KindAny, Card: CardMany})
	case *core.ContextOp:
		if a.inPred {
			return a.finish(o, a.ctx)
		}
		// The top-level context item is undefined in this engine; keep
		// context-dependent subplans impure so pruning preserves the
		// runtime error.
		return a.finish(o, Annotation{Kind: KindAny, Card: CardOne})
	case *core.DocOp:
		return a.finish(o, Annotation{Kind: KindNode, Card: CardOne, Pure: true, FromDoc: a.isBoundDoc(o.URI)})
	case *core.SeqOp:
		items := make([]core.Op, len(o.Items))
		ann := Annotation{Kind: KindAny, Card: CardEmpty, Pure: true, FromDoc: true}
		first := true
		for i, c := range o.Items {
			nc, ca := a.visit(c, sc)
			items[i] = nc
			ann.Pure = ann.Pure && ca.Pure
			ann.FromDoc = ann.FromDoc && ca.FromDoc
			ann.Card = concatCard(ann.Card, ca.Card)
			if first {
				ann.Kind = ca.Kind
				first = false
			} else {
				ann.Kind = unifyKind(ann.Kind, ca.Kind)
			}
		}
		return a.finish(&core.SeqOp{Items: items}, ann)
	case *core.NegOp:
		nx, xa := a.visit(o.X, sc)
		return a.finish(&core.NegOp{X: nx}, Annotation{Kind: KindNumber, Card: numericCard(xa.Card, xa.Card), Pure: xa.Pure})
	case *core.ArithOp:
		nl, la := a.visit(o.L, sc)
		nr, ra := a.visit(o.R, sc)
		return a.finish(&core.ArithOp{Op: o.Op, L: nl, R: nr},
			Annotation{Kind: KindNumber, Card: numericCard(la.Card, ra.Card), Pure: la.Pure && ra.Pure})
	case *core.CompareOp:
		return a.visitCompare(o, sc)
	case *core.LogicOp:
		nl, la := a.visit(o.L, sc)
		nr, ra := a.visit(o.R, sc)
		return a.finish(&core.LogicOp{Kind: o.Kind, L: nl, R: nr},
			Annotation{Kind: KindBool, Card: CardOne, Pure: la.Pure && ra.Pure})
	case *core.UnionOp:
		return a.visitUnion(o, sc)
	case *core.RangeOp:
		nl, la := a.visit(o.L, sc)
		nr, ra := a.visit(o.R, sc)
		card := CardMany
		if la.Card == CardEmpty || ra.Card == CardEmpty {
			card = CardEmpty
		}
		return a.finish(&core.RangeOp{L: nl, R: nr},
			Annotation{Kind: KindNumber, Card: card, Pure: la.Pure && ra.Pure})
	case *core.IfOp:
		nc, ca := a.visit(o.Cond, sc)
		nt, ta := a.visit(o.Then, sc)
		ne, ea := a.visit(o.Else, sc)
		return a.finish(&core.IfOp{Cond: nc, Then: nt, Else: ne}, Annotation{
			Kind:    unifyKind(ta.Kind, ea.Kind),
			Card:    unifyCard(ta.Card, ea.Card),
			Pure:    ca.Pure && ta.Pure && ea.Pure,
			FromDoc: ta.FromDoc && ea.FromDoc,
		})
	case *core.FnOp:
		return a.visitFn(o, sc)
	case *core.QuantOp:
		return a.visitQuant(o, sc)
	case *core.FLWOROp:
		return a.visitFLWOR(o, sc)
	case *core.PathOp:
		return a.visitPath(o, sc)
	case *core.TPMOp:
		return a.visitTPM(o, sc)
	case *core.ConstructOp:
		return a.visitConstruct(o, sc)
	}
	// Unknown operator kinds pass through unannotated and unprunable.
	return op, Annotation{Kind: KindAny, Card: CardMany}
}

// isBoundDoc reports whether a doc() URI resolves to the analysis store.
func (a *analyzer) isBoundDoc(uri string) bool {
	if a.opts.Store == nil {
		return false
	}
	return uri == "" || uri == a.opts.Store.URI
}

func (a *analyzer) visitCompare(o *core.CompareOp, sc *scope) (core.Op, Annotation) {
	nl, la := a.visit(o.L, sc)
	nr, ra := a.visit(o.R, sc)
	n := o
	if nl != o.L || nr != o.R {
		n = &core.CompareOp{Op: o.Op, L: nl, R: nr}
	}
	// A numeric expression compared against a non-numeric string literal
	// goes through NaN and is decided by types alone (const-const pairs
	// are left to the rewriter's constant folding).
	if la.Kind == KindNumber && !isConst(nl) {
		if lit, ok := nonNumericStringLit(nr); ok {
			a.diagCmpType(o, lit)
		}
	} else if ra.Kind == KindNumber && !isConst(nr) {
		if lit, ok := nonNumericStringLit(nl); ok {
			a.diagCmpType(o, lit)
		}
	}
	return a.finish(n, Annotation{Kind: KindBool, Card: CardOne, Pure: la.Pure && ra.Pure})
}

func (a *analyzer) diagCmpType(o *core.CompareOp, lit string) {
	outcome := "false"
	if o.Op == value.CmpNe {
		outcome = "true"
	}
	a.diag(CodeCmpType, Warning, spanOf(o),
		"comparison of a numeric expression with the non-numeric string %q is always %s", lit, outcome)
}

func (a *analyzer) visitUnion(o *core.UnionOp, sc *scope) (core.Op, Annotation) {
	nl, la := a.visit(o.L, sc)
	nr, ra := a.visit(o.R, sc)
	var card Card
	switch o.Kind {
	case core.SetIntersect:
		card = CardMany
		if la.Card == CardEmpty || ra.Card == CardEmpty {
			card = CardEmpty
		}
	case core.SetExcept:
		card = CardMany
		if la.Card == CardEmpty {
			card = CardEmpty
		}
	default: // union
		card = CardMany
		if la.Card == CardEmpty && ra.Card == CardEmpty {
			card = CardEmpty
		} else if la.Card == CardEmpty {
			card = ra.Card
		} else if ra.Card == CardEmpty {
			card = la.Card
		}
	}
	return a.finish(&core.UnionOp{Kind: o.Kind, L: nl, R: nr},
		Annotation{Kind: KindNode, Card: card, Pure: la.Pure && ra.Pure, FromDoc: la.FromDoc && ra.FromDoc})
}

func (a *analyzer) visitFn(o *core.FnOp, sc *scope) (core.Op, Annotation) {
	args := make([]core.Op, len(o.Args))
	types := make([]builtin.Type, len(o.Args))
	pure := !o.Fn.Impure
	for i, arg := range o.Args {
		var ann Annotation
		args[i], ann = a.visit(arg, sc)
		pure = pure && ann.Pure
		types[i] = builtin.Type{Kind: ann.Kind, Card: ann.Card, FromDoc: ann.FromDoc}
	}
	var t builtin.Type // a builtin without a rule: any kind, any cardinality
	if o.Fn.Result != nil {
		t = o.Fn.Result(types)
	}
	return a.finish(&core.FnOp{Fn: o.Fn, Args: args}, Annotation{Kind: t.Kind, Card: t.Card, Pure: pure, FromDoc: t.FromDoc})
}

func (a *analyzer) visitQuant(o *core.QuantOp, sc *scope) (core.Op, Annotation) {
	inner := scopeChild(sc)
	n := &core.QuantOp{Every: o.Every}
	pure := true
	type declared struct {
		name string
		vi   *varInfo
	}
	var decls []declared
	for _, b := range o.Bindings {
		ne, ea := a.visit(b.Expr, inner)
		pure = pure && ea.Pure
		if inner.defined(b.Var) {
			a.diag(CodeShadowedVar, Warning, "$"+b.Var,
				"quantifier variable $%s shadows an outer binding of the same name", b.Var)
		}
		vi := inner.define(b.Var, Annotation{Kind: ea.Kind, Card: CardOne, Pure: true, FromDoc: ea.FromDoc})
		decls = append(decls, declared{b.Var, vi})
		n.Bindings = append(n.Bindings, core.Bind{Kind: b.Kind, Var: b.Var, PosVar: b.PosVar, Expr: ne})
	}
	ns, sa := a.visit(o.Satisfies, inner)
	n.Satisfies = ns
	pure = pure && sa.Pure
	for _, d := range decls {
		if !d.vi.used {
			a.diag(CodeUnusedVar, Warning, "$"+d.name,
				"quantifier variable $%s is never used", d.name)
		}
	}
	return a.finish(n, Annotation{Kind: KindBool, Card: CardOne, Pure: pure})
}

func (a *analyzer) visitFLWOR(o *core.FLWOROp, sc *scope) (core.Op, Annotation) {
	inner := scopeChild(sc)
	n := &core.FLWOROp{}
	pure := true
	iterCard := CardOne // product of the for-clause cardinalities
	emptyFor := ""
	type declared struct {
		name string
		kind core.BindKind
		vi   *varInfo
	}
	var decls []declared
	for _, c := range o.Clauses {
		ne, ea := a.visit(c.Expr, inner)
		pure = pure && ea.Pure
		if inner.defined(c.Var) {
			a.diag(CodeShadowedVar, Warning, "$"+c.Var,
				"clause rebinds $%s, shadowing the outer binding", c.Var)
		}
		var bindAnn Annotation
		if c.Kind == core.BindFor {
			iterCard = mulCard(iterCard, ea.Card)
			if ea.Card == CardEmpty && emptyFor == "" {
				emptyFor = c.Var
			}
			bindAnn = Annotation{Kind: ea.Kind, Card: CardOne, Pure: true, FromDoc: ea.FromDoc}
		} else {
			bindAnn = ea
			bindAnn.Pure = true // referencing a bound value has no effect
		}
		vi := inner.define(c.Var, bindAnn)
		decls = append(decls, declared{c.Var, c.Kind, vi})
		if c.PosVar != "" {
			inner.define(c.PosVar, Annotation{Kind: KindNumber, Card: CardOne, Pure: true})
		}
		n.Clauses = append(n.Clauses, core.Bind{Kind: c.Kind, Var: c.Var, PosVar: c.PosVar, Expr: ne})
	}
	whereFalse := false
	if o.Where != nil {
		nw, wa := a.visit(o.Where, inner)
		n.Where = nw
		pure = pure && wa.Pure
		// An empty condition sequence has effective boolean value false on
		// every iteration: the filter rejects everything.
		whereFalse = wa.Card == CardEmpty
	}
	for _, k := range o.OrderBy {
		nk, ka := a.visit(k.Key, inner)
		pure = pure && ka.Pure
		n.OrderBy = append(n.OrderBy, core.OrderKey{Key: nk, Descending: k.Descending, EmptyLeast: k.EmptyLeast})
	}
	nr, ra := a.visit(o.Return, inner)
	n.Return = nr
	pure = pure && ra.Pure
	for _, d := range decls {
		if !d.vi.used {
			kw := "for"
			if d.kind == core.BindLet {
				kw = "let"
			}
			a.diag(CodeUnusedVar, Warning, fmt.Sprintf("%s $%s", kw, d.name),
				"variable $%s is bound but never used", d.name)
		}
	}
	ann := Annotation{Kind: ra.Kind, Pure: pure, FromDoc: ra.FromDoc}
	ann.Card = mulCard(iterCard, ra.Card)
	if n.Where != nil && ann.Card == CardOne {
		ann.Card = CardZeroOrOne // the filter may drop the only binding
	}
	if emptyFor != "" {
		a.diag(CodeEmptyFor, Warning, "for $"+emptyFor,
			"for clause $%s iterates a statically empty sequence; the FLWOR expression yields ()", emptyFor)
		ann.Card = CardEmpty
	}
	if whereFalse {
		ann.Card = CardEmpty
		// When the whole FLWOR is pure and pruning is on, finish replaces
		// it with () and the inner XQA002 diagnostic already points at the
		// unmatchable condition; warn only when the dead loop survives.
		if !(a.opts.Prune && ann.Pure) {
			a.diag(CodeWhereFalse, Warning, "where",
				"where clause is provably false (its condition is statically empty); the FLWOR expression yields ()")
		}
	}
	return a.finish(n, ann)
}

func (a *analyzer) visitPath(o *core.PathOp, sc *scope) (core.Op, Annotation) {
	nin, ia := a.visit(o.Input, sc)
	ann := Annotation{Kind: KindNode, Card: CardMany, Pure: ia.Pure, FromDoc: ia.FromDoc}
	steps := o.Steps // copied on the first predicate the visit replaces
	copied := false
	outer, outerIn := a.ctx, a.inPred
	for i, st := range o.Steps {
		if len(st.Preds) == 0 {
			continue
		}
		// Inside a predicate the context item is the candidate: one node,
		// or any item for a filter step (E[p]) over a mixed sequence. It
		// is not known to lie on a synopsis path (FromDoc false), so no
		// synopsis pruning happens inside predicates.
		a.ctx, a.inPred = Annotation{Kind: KindNode, Card: CardOne, Pure: true}, true
		if st.Axis == ast.AxisSelf && st.Test.Kind == ast.TestNode {
			a.ctx.Kind = KindAny
		}
		for j, p := range st.Preds {
			np, pa := a.visit(p, sc)
			ann.Pure = ann.Pure && pa.Pure
			if np == p {
				continue
			}
			if !copied {
				steps, copied = append([]core.Step(nil), o.Steps...), true
			}
			if &steps[i].Preds[0] == &st.Preds[0] {
				steps[i].Preds = append([]core.Op(nil), st.Preds...)
			}
			steps[i].Preds[j] = np
		}
	}
	a.ctx, a.inPred = outer, outerIn
	n := o // an unchanged path is kept, not copied
	if nin != o.Input || copied {
		n = &core.PathOp{Input: nin, Rooted: o.Rooted, Steps: steps}
	}
	if ia.Card == CardEmpty {
		ann.Card = CardEmpty
		return a.finish(n, ann)
	}
	if reason, empty := emptySteps(o.Steps); empty {
		a.diag(CodeEmptyAxis, Warning, o.PathString(), "path can never match: %s", reason)
		ann.Card = CardEmpty
		return a.finish(n, ann)
	}
	if a.unmatchablePath(o, nin, ia) {
		a.diag(CodeEmptyPath, Warning, o.PathString(),
			"path matches no node of the document (path synopsis)")
		ann.Card = CardEmpty
	}
	return a.finish(n, ann)
}

// unmatchablePath checks a πs-chain against the synopsis: the path must be
// pattern-expressible and anchored at (or known to navigate within) the
// bound document. The pattern is built from the steps as translated.
func (a *analyzer) unmatchablePath(o *core.PathOp, input core.Op, ia Annotation) bool {
	if a.opts.Synopsis == nil || a.opts.Store == nil || !ia.FromDoc {
		return false
	}
	g, err := core.BuildPattern(o.Rooted, o.Steps)
	if err != nil {
		return false // not expressible; the step executor handles it
	}
	if !g.Rooted {
		// A path whose input is the document node itself (doc("x")/a/b)
		// anchors at the root; other inputs anchor at arbitrary document
		// nodes and need the anchored-anywhere check.
		if _, isDoc := input.(*core.DocOp); isDoc {
			g.Rooted = true
		}
	}
	return !a.opts.Synopsis.Matchable(a.opts.Store, g)
}

func (a *analyzer) visitTPM(o *core.TPMOp, sc *scope) (core.Op, Annotation) {
	nin, ia := a.visit(o.Input, sc)
	n := &core.TPMOp{Input: nin, Graph: o.Graph}
	ann := Annotation{Kind: KindNode, Card: CardMany, Pure: ia.Pure, FromDoc: ia.FromDoc}
	if ia.Card == CardEmpty {
		ann.Card = CardEmpty
		return a.finish(n, ann)
	}
	if reason, empty := emptyGraph(o.Graph); empty {
		a.diag(CodeEmptyAxis, Warning, spanOf(o), "pattern can never match: %s", reason)
		ann.Card = CardEmpty
		return a.finish(n, ann)
	}
	if a.opts.Synopsis != nil && a.opts.Store != nil && ia.FromDoc {
		g := o.Graph
		if !g.Rooted {
			if _, isDoc := nin.(*core.DocOp); isDoc {
				g = g.Clone()
				g.Rooted = true
			}
		}
		if !a.opts.Synopsis.Matchable(a.opts.Store, g) {
			a.diag(CodeEmptyPath, Warning, spanOf(o),
				"pattern matches no node of the document (path synopsis)")
			ann.Card = CardEmpty
		}
	}
	return a.finish(n, ann)
}

func (a *analyzer) visitConstruct(o *core.ConstructOp, sc *scope) (core.Op, Annotation) {
	pure := true
	var walk func(n *core.SchemaNode) *core.SchemaNode
	walk = func(n *core.SchemaNode) *core.SchemaNode {
		nn := *n
		if n.Expr != nil {
			ne, ea := a.visit(n.Expr, sc)
			nn.Expr = ne
			pure = pure && ea.Pure
		}
		if len(n.Parts) > 0 {
			nn.Parts = make([]core.SchemaPart, len(n.Parts))
			for i, p := range n.Parts {
				nn.Parts[i] = p
				if p.Expr != nil {
					ne, ea := a.visit(p.Expr, sc)
					nn.Parts[i].Expr = ne
					pure = pure && ea.Pure
				}
			}
		}
		if len(n.Children) > 0 {
			nn.Children = make([]*core.SchemaNode, len(n.Children))
			for i, c := range n.Children {
				nn.Children[i] = walk(c)
			}
		}
		return &nn
	}
	schema := o.Schema
	if schema != nil && schema.Root != nil {
		schema = &core.SchemaTree{Root: walk(schema.Root)}
	}
	// Constructed nodes live in a fresh store: never FromDoc.
	return a.finish(&core.ConstructOp{Schema: schema}, Annotation{Kind: KindNode, Card: CardOne, Pure: pure})
}

// emptySteps applies the structural axioms of the data model to a step
// sequence: attributes, text nodes, comments and processing instructions
// have no children and no attributes, so downward navigation below them is
// statically empty.
func emptySteps(steps []core.Step) (string, bool) {
	leaf := false
	leafWhat := ""
	for _, st := range steps {
		if st.Axis == ast.AxisDescendantOrSelf && st.Test.Kind == ast.TestNode && len(st.Preds) == 0 {
			continue // the "//" abbreviation is transparent for this check
		}
		downward := st.Axis == ast.AxisChild || st.Axis == ast.AxisDescendant || st.Axis == ast.AxisAttribute
		if leaf && downward {
			return fmt.Sprintf("step %s navigates below %s nodes, which have no children or attributes", st.Src, leafWhat), true
		}
		if st.Axis == ast.AxisSelf {
			continue // self keeps the current node kind
		}
		switch {
		case st.Axis == ast.AxisAttribute:
			leaf, leafWhat = true, "attribute"
		case st.Test.Kind == ast.TestText:
			leaf, leafWhat = true, "text()"
		case st.Test.Kind == ast.TestComment:
			leaf, leafWhat = true, "comment()"
		case st.Test.Kind == ast.TestPI:
			leaf, leafWhat = true, "processing-instruction()"
		default:
			leaf = false
		}
	}
	return "", false
}

// emptyGraph applies the same structural axioms to a pattern graph: a
// vertex matching only childless node kinds cannot have sub-pattern edges.
func emptyGraph(g *pattern.Graph) (string, bool) {
	for v := range g.Vertices {
		vx := &g.Vertices[v]
		leafKind := vx.Attribute || vx.Test.Kind == ast.TestText ||
			vx.Test.Kind == ast.TestComment || vx.Test.Kind == ast.TestPI
		if leafKind && len(g.Children[v]) > 0 {
			return fmt.Sprintf("vertex %s requires children, but its node kind never has any", vx.Label()), true
		}
	}
	return "", false
}

// AnnotateGraphs stamps every τ pattern anchored at the bound document
// with the synopsis's output-cardinality estimate (pattern.Graph.EstCard),
// so the cost model's strategy chooser reuses the compile-time annotation
// instead of re-walking the synopsis on every execution. Returns the
// number of graphs annotated.
func AnnotateGraphs(plan core.Op, st *storage.Store, syn *stats.Synopsis) int {
	if st == nil || syn == nil {
		return 0
	}
	n := 0
	core.Walk(plan, func(o core.Op) bool {
		t, ok := o.(*core.TPMOp)
		if !ok {
			return true
		}
		if !t.Graph.Rooted {
			// EstimatePattern anchors at the document root; a relative
			// pattern qualifies only when its input is the document node.
			d, isDoc := t.Input.(*core.DocOp)
			if !isDoc || (d.URI != "" && d.URI != st.URI) {
				return true
			}
		}
		t.Graph.EstCard = syn.EstimatePattern(st, t.Graph)
		n++
		return true
	})
	return n
}

// --- small helpers ---

func scopeChild(sc *scope) *scope {
	if sc == nil {
		return &scope{vars: map[string]*varInfo{}}
	}
	return sc.child()
}

func constAnnotation(seq value.Sequence) Annotation {
	ann := Annotation{Kind: KindAny, Pure: true}
	switch len(seq) {
	case 0:
		ann.Card = CardEmpty
		ann.FromDoc = true // vacuously: no nodes to mislead the synopsis
		return ann
	case 1:
		ann.Card = CardOne
	default:
		ann.Card = CardMany
	}
	for i, it := range seq {
		k := itemKind(it)
		if i == 0 {
			ann.Kind = k
		} else {
			ann.Kind = unifyKind(ann.Kind, k)
		}
	}
	return ann
}

func itemKind(it value.Item) Kind {
	switch it.(type) {
	case value.Str:
		return KindString
	case value.Int, value.Dbl:
		return KindNumber
	case value.Bool:
		return KindBool
	case value.Node:
		return KindNode
	}
	return KindAny
}

func unifyKind(a, b Kind) Kind {
	if a == b {
		return a
	}
	return KindAny
}

// concatCard combines cardinalities under sequence concatenation.
func concatCard(a, b Card) Card {
	switch {
	case a == CardEmpty:
		return b
	case b == CardEmpty:
		return a
	default:
		return CardMany
	}
}

// unifyCard combines the cardinalities of alternative branches.
func unifyCard(a, b Card) Card {
	if a == b {
		return a
	}
	if a != CardMany && b != CardMany {
		return CardZeroOrOne
	}
	return CardMany
}

// mulCard combines cardinalities under iteration (for-clause nesting).
func mulCard(a, b Card) Card {
	switch {
	case a == CardEmpty || b == CardEmpty:
		return CardEmpty
	case a == CardOne:
		return b
	case b == CardOne:
		return a
	case a == CardZeroOrOne && b == CardZeroOrOne:
		return CardZeroOrOne
	default:
		return CardMany
	}
}

// numericCard is the cardinality of arithmetic: empty operands propagate,
// singletons stay singleton.
func numericCard(a, b Card) Card {
	switch {
	case a == CardEmpty || b == CardEmpty:
		return CardEmpty
	case a == CardOne && b == CardOne:
		return CardOne
	default:
		return CardZeroOrOne
	}
}

func isConst(op core.Op) bool {
	_, ok := op.(*core.ConstOp)
	return ok
}

// nonNumericStringLit recognizes a singleton string constant that does not
// parse as a number.
func nonNumericStringLit(op core.Op) (string, bool) {
	c, ok := op.(*core.ConstOp)
	if !ok || len(c.Seq) != 1 {
		return "", false
	}
	s, ok := c.Seq[0].(value.Str)
	if !ok {
		return "", false
	}
	if _, err := strconv.ParseFloat(strings.TrimSpace(string(s)), 64); err == nil {
		return "", false
	}
	return string(s), true
}

// spanOf renders an operator for diagnostics.
func spanOf(op core.Op) string { return op.Label() }
