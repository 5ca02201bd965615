// Package rewrite implements the logical optimization rules over the
// algebra of package core, the paper's Section 3 agenda:
//
//   - path fusion: πs-chains (PathOp) become τ operators (TPMOp) whenever
//     the path is expressible as a pattern graph, eliminating the
//     structural joins a join-based plan would need — the paper's central
//     optimization (a single TPM operator evaluates the whole list
//     comprehension in one scan);
//   - predicate pushdown: where-clauses of FLWOR expressions that compare
//     a path from a for-variable against a literal (or test existence)
//     are folded into the variable's pattern graph as value predicates;
//   - constant folding over arithmetic, comparisons and conditionals;
//   - dead-let elimination.
//
// Rules are applied bottom-up in one pass per fixpoint round.
package rewrite

import (
	"xqp/internal/analyze"
	"xqp/internal/ast"
	"xqp/internal/core"
	"xqp/internal/pattern"
	"xqp/internal/value"
)

// Options enables individual rules; the zero value disables everything
// (useful for ablation experiments).
type Options struct {
	PathFusion        bool
	PredicatePushdown bool
	ConstFold         bool
	LetElimination    bool
}

// All enables every rule.
func All() Options {
	return Options{PathFusion: true, PredicatePushdown: true, ConstFold: true, LetElimination: true}
}

// Stats counts rule applications.
type Stats struct {
	PathsFused     int
	PartialFusions int
	PredsPushed    int
	ConstsFolded   int
	LetsEliminated int
}

// Rewrite optimizes a plan, returning the new plan and statistics.
func Rewrite(op core.Op, opts Options) (core.Op, *Stats) {
	r := &rewriter{opts: opts, stats: &Stats{}}
	return r.rewrite(op), r.stats
}

type rewriter struct {
	opts  Options
	stats *Stats
}

func (r *rewriter) rewrite(op core.Op) core.Op {
	if op == nil {
		return nil
	}
	switch o := op.(type) {
	case *core.ConstOp, *core.VarOp, *core.ContextOp, *core.DocOp:
		return op
	case *core.SeqOp:
		items := make([]core.Op, len(o.Items))
		for i, c := range o.Items {
			items[i] = r.rewrite(c)
		}
		return &core.SeqOp{Items: items}
	case *core.NegOp:
		return &core.NegOp{X: r.rewrite(o.X)}
	case *core.ArithOp:
		n := &core.ArithOp{Op: o.Op, L: r.rewrite(o.L), R: r.rewrite(o.R)}
		return r.foldArith(n)
	case *core.CompareOp:
		n := &core.CompareOp{Op: o.Op, L: r.rewrite(o.L), R: r.rewrite(o.R)}
		return r.foldCompare(n)
	case *core.LogicOp:
		return &core.LogicOp{Kind: o.Kind, L: r.rewrite(o.L), R: r.rewrite(o.R)}
	case *core.UnionOp:
		return &core.UnionOp{Kind: o.Kind, L: r.rewrite(o.L), R: r.rewrite(o.R)}
	case *core.RangeOp:
		return &core.RangeOp{L: r.rewrite(o.L), R: r.rewrite(o.R)}
	case *core.IfOp:
		n := &core.IfOp{Cond: r.rewrite(o.Cond), Then: r.rewrite(o.Then), Else: r.rewrite(o.Else)}
		if r.opts.ConstFold {
			if c, ok := n.Cond.(*core.ConstOp); ok {
				if b, err := value.EBV(c.Seq); err == nil {
					r.stats.ConstsFolded++
					if b {
						return n.Then
					}
					return n.Else
				}
			}
		}
		return n
	case *core.FnOp:
		args := make([]core.Op, len(o.Args))
		for i, a := range o.Args {
			args[i] = r.rewrite(a)
		}
		return &core.FnOp{Fn: o.Fn, Args: args}
	case *core.QuantOp:
		n := &core.QuantOp{Every: o.Every, Satisfies: r.rewrite(o.Satisfies)}
		for _, b := range o.Bindings {
			n.Bindings = append(n.Bindings, core.Bind{Kind: b.Kind, Var: b.Var, PosVar: b.PosVar, Expr: r.rewrite(b.Expr)})
		}
		return n
	case *core.TPMOp:
		return &core.TPMOp{Input: r.rewrite(o.Input), Graph: o.Graph}
	case *core.PathOp:
		return r.rewritePath(o)
	case *core.FLWOROp:
		return r.rewriteFLWOR(o)
	case *core.ConstructOp:
		return &core.ConstructOp{Schema: r.rewriteSchema(o.Schema)}
	}
	return op
}

func (r *rewriter) rewriteSchema(t *core.SchemaTree) *core.SchemaTree {
	if t == nil || t.Root == nil {
		return t
	}
	var walk func(n *core.SchemaNode) *core.SchemaNode
	walk = func(n *core.SchemaNode) *core.SchemaNode {
		nn := *n
		if n.Expr != nil {
			nn.Expr = r.rewrite(n.Expr)
		}
		if len(n.Parts) > 0 {
			nn.Parts = make([]core.SchemaPart, len(n.Parts))
			for i, p := range n.Parts {
				nn.Parts[i] = p
				if p.Expr != nil {
					nn.Parts[i].Expr = r.rewrite(p.Expr)
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
	return &core.SchemaTree{Root: walk(t.Root)}
}

func (r *rewriter) foldArith(o *core.ArithOp) core.Op {
	if !r.opts.ConstFold {
		return o
	}
	l, lok := o.L.(*core.ConstOp)
	rc, rok := o.R.(*core.ConstOp)
	if !lok || !rok {
		return o
	}
	res, err := value.Arith(o.Op, l.Seq, rc.Seq)
	if err != nil {
		return o // keep runtime error at runtime
	}
	r.stats.ConstsFolded++
	return &core.ConstOp{Seq: res}
}

func (r *rewriter) foldCompare(o *core.CompareOp) core.Op {
	if !r.opts.ConstFold {
		return o
	}
	l, lok := o.L.(*core.ConstOp)
	rc, rok := o.R.(*core.ConstOp)
	if !lok || !rok {
		return o
	}
	res, err := value.CompareGeneral(o.Op, l.Seq, rc.Seq)
	if err != nil {
		return o
	}
	r.stats.ConstsFolded++
	return &core.ConstOp{Seq: value.Singleton(value.Bool(res))}
}

// rewritePath fuses a πs-chain into a τ operator, falling back to fusing
// the longest expressible prefix.
func (r *rewriter) rewritePath(o *core.PathOp) core.Op {
	input := r.rewrite(o.Input)
	if !r.opts.PathFusion {
		return &core.PathOp{Input: input, Path: o.Path}
	}
	// A relative single child/attribute step with no predicates is
	// already a single navigation; the τ machinery would only add
	// overhead. Leave it as a πs step.
	if !o.Path.Rooted && len(o.Path.Steps) == 1 {
		st := o.Path.Steps[0]
		if (st.Axis == ast.AxisChild || st.Axis == ast.AxisAttribute) && len(st.Preds) == 0 {
			return &core.PathOp{Input: input, Path: o.Path}
		}
	}
	if g, err := pattern.FromPath(o.Path); err == nil {
		r.stats.PathsFused++
		return &core.TPMOp{Input: input, Graph: g}
	}
	// Longest expressible prefix: trailing steps remain a PathOp.
	for cut := len(o.Path.Steps) - 1; cut >= 1; cut-- {
		prefix := &ast.PathExpr{Rooted: o.Path.Rooted, Steps: o.Path.Steps[:cut]}
		g, err := pattern.FromPath(prefix)
		if err != nil {
			continue
		}
		r.stats.PartialFusions++
		rest := &ast.PathExpr{Steps: o.Path.Steps[cut:]}
		return &core.PathOp{
			Input: &core.TPMOp{Input: input, Graph: g},
			Path:  rest,
		}
	}
	return &core.PathOp{Input: input, Path: o.Path}
}

// rewriteFLWOR rewrites clause bodies, then pushes expressible where
// conjuncts into the pattern graph of the for-variable they filter.
func (r *rewriter) rewriteFLWOR(o *core.FLWOROp) core.Op {
	n := &core.FLWOROp{Return: r.rewrite(o.Return)}
	for _, c := range o.Clauses {
		n.Clauses = append(n.Clauses, core.Bind{Kind: c.Kind, Var: c.Var, PosVar: c.PosVar, Expr: r.rewrite(c.Expr)})
	}
	if o.Where != nil {
		n.Where = r.rewrite(o.Where)
	}
	for _, k := range o.OrderBy {
		n.OrderBy = append(n.OrderBy, core.OrderKey{Key: r.rewrite(k.Key), Descending: k.Descending, EmptyLeast: k.EmptyLeast})
	}
	if r.opts.PredicatePushdown && n.Where != nil {
		n.Where = r.pushWhere(n)
	}
	if r.opts.LetElimination {
		r.eliminateLets(n)
	}
	return n
}

// whereConjuncts splits an and-tree into conjunct plans. Since the where
// clause was translated from AST, we recover pushable shapes from the
// operator structure.
func whereConjuncts(op core.Op) []core.Op {
	if l, ok := op.(*core.LogicOp); ok && l.Kind == core.LogicAnd {
		return append(whereConjuncts(l.L), whereConjuncts(l.R)...)
	}
	return []core.Op{op}
}

// pushWhere moves expressible conjuncts into clause pattern graphs and
// returns the remaining where plan (nil if everything was pushed).
func (r *rewriter) pushWhere(f *core.FLWOROp) core.Op {
	conjuncts := whereConjuncts(f.Where)
	var kept []core.Op
	for _, c := range conjuncts {
		if r.tryPush(f, c) {
			r.stats.PredsPushed++
			continue
		}
		kept = append(kept, c)
	}
	if len(kept) == 0 {
		return nil
	}
	out := kept[0]
	for _, c := range kept[1:] {
		out = &core.LogicOp{Kind: core.LogicAnd, L: out, R: c}
	}
	return out
}

// tryPush attempts to fold one conjunct into the τ pattern of the
// for-clause binding its variable. Supported shapes:
//
//	compare(PathOp($v ...), const-literal)  and the mirrored form
//	PathOp($v ...) used as an existence test
func (r *rewriter) tryPush(f *core.FLWOROp, conj core.Op) bool {
	switch c := conj.(type) {
	case *core.CompareOp:
		if p, lit, op, ok := pathCmpLit(c); ok {
			return r.pushPred(f, p, predExprFromCmp(op, p, lit))
		}
		// Path fusion may have turned the path side into a τ already.
		if t, lit, op, ok := tpmCmpLit(c); ok {
			return r.pushTPM(f, t, &pattern.ValuePred{Op: op, Lit: lit})
		}
	case *core.PathOp:
		// Existence predicate: where $b/author
		if varOfPath(c) != "" {
			return r.pushPred(f, c, &ast.PathExpr{Steps: c.Path.Steps})
		}
	case *core.TPMOp:
		// Fused existence predicate: where $b/author
		if varOfTPM(c) != "" {
			return r.pushTPM(f, c, nil)
		}
	}
	return false
}

// tpmCmpLit recognizes compare(TPMOp($v, g), Const) in either order.
func tpmCmpLit(c *core.CompareOp) (*core.TPMOp, value.Item, value.CmpOp, bool) {
	if t, ok := c.L.(*core.TPMOp); ok && varOfTPM(t) != "" {
		if k, ok := constLiteral(c.R); ok {
			return t, k, c.Op, true
		}
	}
	if t, ok := c.R.(*core.TPMOp); ok && varOfTPM(t) != "" {
		if k, ok := constLiteral(c.L); ok {
			return t, k, flipCmp(c.Op), true
		}
	}
	return nil, nil, 0, false
}

// varOfTPM returns the variable a relative τ is anchored at, or "".
func varOfTPM(t *core.TPMOp) string {
	if t.Graph.Rooted {
		return ""
	}
	v, ok := t.Input.(*core.VarOp)
	if !ok {
		return ""
	}
	return v.Name
}

// pushTPM grafts a relative τ sub-pattern (and an optional value
// predicate on its output vertex) into the clause pattern binding its
// variable.
func (r *rewriter) pushTPM(f *core.FLWOROp, t *core.TPMOp, vp *pattern.ValuePred) bool {
	varName := varOfTPM(t)
	for i, c := range f.Clauses {
		if c.Var != varName || c.Kind != core.BindFor {
			continue
		}
		tpm, ok := c.Expr.(*core.TPMOp)
		if !ok {
			return false
		}
		for _, later := range f.Clauses[i+1:] {
			if later.Var == varName {
				return false
			}
		}
		g := tpm.Graph.Clone()
		leaf := g.Graft(g.Output, t.Graph)
		if vp != nil {
			target := leaf
			if target < 0 {
				target = g.Output
			}
			g.Vertices[target].Preds = append(g.Vertices[target].Preds, *vp)
		}
		f.Clauses[i].Expr = &core.TPMOp{Input: tpm.Input, Graph: g}
		return true
	}
	return false
}

// pathCmpLit recognizes compare(PathOp($v...), Const) in either order.
func pathCmpLit(c *core.CompareOp) (*core.PathOp, value.Item, value.CmpOp, bool) {
	if p, ok := c.L.(*core.PathOp); ok && varOfPath(p) != "" {
		if k, ok := constLiteral(c.R); ok {
			return p, k, c.Op, true
		}
	}
	if p, ok := c.R.(*core.PathOp); ok && varOfPath(p) != "" {
		if k, ok := constLiteral(c.L); ok {
			return p, k, flipCmp(c.Op), true
		}
	}
	return nil, nil, 0, false
}

func flipCmp(op value.CmpOp) value.CmpOp {
	switch op {
	case value.CmpLt:
		return value.CmpGt
	case value.CmpLe:
		return value.CmpGe
	case value.CmpGt:
		return value.CmpLt
	case value.CmpGe:
		return value.CmpLe
	}
	return op
}

func constLiteral(op core.Op) (value.Item, bool) {
	c, ok := op.(*core.ConstOp)
	if !ok || len(c.Seq) != 1 {
		return nil, false
	}
	return c.Seq[0], true
}

// varOfPath returns the variable name a PathOp navigates from ("" when
// the input is not a VarOp or the path is rooted).
func varOfPath(p *core.PathOp) string {
	if p.Path.Rooted {
		return ""
	}
	v, ok := p.Input.(*core.VarOp)
	if !ok {
		return ""
	}
	return v.Name
}

// predExprFromCmp builds the AST predicate "steps op literal" for
// pattern.AttachPredicate.
func predExprFromCmp(op value.CmpOp, p *core.PathOp, lit value.Item) ast.Expr {
	var litExpr ast.Expr
	switch l := lit.(type) {
	case value.Int:
		litExpr = &ast.NumberLit{Val: float64(l), IsInt: true, Int: int64(l)}
	case value.Dbl:
		litExpr = &ast.NumberLit{Val: float64(l)}
	default:
		litExpr = &ast.StringLit{Val: lit.String()}
	}
	astOps := map[value.CmpOp]ast.BinOp{
		value.CmpEq: ast.OpEq, value.CmpNe: ast.OpNe, value.CmpLt: ast.OpLt,
		value.CmpLe: ast.OpLe, value.CmpGt: ast.OpGt, value.CmpGe: ast.OpGe,
	}
	return &ast.Binary{Op: astOps[op], L: &ast.PathExpr{Steps: p.Path.Steps}, R: litExpr}
}

// pushPred grafts pred onto the τ pattern of the for-clause binding the
// path's variable.
func (r *rewriter) pushPred(f *core.FLWOROp, p *core.PathOp, pred ast.Expr) bool {
	varName := varOfPath(p)
	for i, c := range f.Clauses {
		if c.Var != varName || c.Kind != core.BindFor {
			continue
		}
		tpm, ok := c.Expr.(*core.TPMOp)
		if !ok {
			return false
		}
		// A later clause must not rebind the same name (shadowing).
		for _, later := range f.Clauses[i+1:] {
			if later.Var == varName {
				return false
			}
		}
		g := tpm.Graph.Clone()
		if err := pattern.AttachPredicate(g, g.Output, pred); err != nil {
			return false
		}
		f.Clauses[i].Expr = &core.TPMOp{Input: tpm.Input, Graph: g}
		return true
	}
	return false
}

// eliminateLets removes let-clauses whose variable is never used later.
// A dead let is only dropped when its binding expression is pure: a
// binding that may raise (an impure builtin such as error()) has an
// observable effect even when the variable itself is never read.
func (r *rewriter) eliminateLets(f *core.FLWOROp) {
	used := map[string]bool{}
	mark := func(op core.Op) {
		core.Walk(op, func(o core.Op) bool {
			if v, ok := o.(*core.VarOp); ok {
				used[v.Name] = true
			}
			// Predicate ASTs inside PathOps reference variables too.
			if p, ok := o.(*core.PathOp); ok {
				for _, st := range p.Path.Steps {
					for _, pr := range st.Preds {
						for _, name := range ast.FreeVars(pr) {
							used[name] = true
						}
					}
				}
			}
			return true
		})
	}
	for _, c := range f.Clauses {
		mark(c.Expr)
	}
	if f.Where != nil {
		mark(f.Where)
	}
	for _, k := range f.OrderBy {
		mark(k.Key)
	}
	mark(f.Return)
	var kept []core.Bind
	for _, c := range f.Clauses {
		if c.Kind == core.BindLet && !used[c.Var] && analyze.Pure(c.Expr) {
			r.stats.LetsEliminated++
			continue
		}
		kept = append(kept, c)
	}
	if len(kept) > 0 {
		f.Clauses = kept
	}
}
