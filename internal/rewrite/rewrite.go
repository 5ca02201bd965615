// Package rewrite implements the logical optimization rules over the
// algebra of package core, the paper's Section 3 agenda:
//
//   - path fusion: πs-chains (PathOp) become τ operators (TPMOp) whenever
//     the path is expressible as a pattern graph, eliminating the
//     structural joins a join-based plan would need — the paper's central
//     optimization (a single TPM operator evaluates the whole list
//     comprehension in one scan). The pattern builder (core.BuildPattern)
//     reads the steps' predicate plans as translated; the predicates of
//     steps that stay πs are rewritten like any other subplan, so their
//     relative paths fuse into τ anchored at the context item;
//   - predicate pushdown: where-clauses of FLWOR expressions that compare
//     a path from a for-variable against a literal (or test existence)
//     are folded into the variable's pattern graph as value predicates,
//     by the same builder (core.AttachPredicate);
//   - constant folding over arithmetic, comparisons and conditionals;
//   - dead-let elimination.
//
// Rules are applied bottom-up in one pass per fixpoint round.
package rewrite

import (
	"xqp/internal/analyze"
	"xqp/internal/ast"
	"xqp/internal/core"
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
// the longest expressible prefix. Fusion reads the predicate plans as
// translated; only the predicates of steps that stay πs are rewritten
// in turn (where their own relative paths may fuse).
func (r *rewriter) rewritePath(o *core.PathOp) core.Op {
	input := r.rewrite(o.Input)
	if !r.opts.PathFusion {
		return &core.PathOp{Input: input, Rooted: o.Rooted, Steps: r.rewriteSteps(o.Steps)}
	}
	// A relative single child/attribute step with no predicates is
	// already a single navigation; the τ machinery would only add
	// overhead. Leave it as a πs step.
	if !o.Rooted && len(o.Steps) == 1 {
		st := o.Steps[0]
		if (st.Axis == ast.AxisChild || st.Axis == ast.AxisAttribute) && len(st.Preds) == 0 {
			return &core.PathOp{Input: input, Steps: o.Steps}
		}
	}
	if g, err := core.BuildPattern(o.Rooted, o.Steps); err == nil {
		r.stats.PathsFused++
		return &core.TPMOp{Input: input, Graph: g}
	}
	// Longest expressible prefix: trailing steps remain a PathOp.
	for cut := len(o.Steps) - 1; cut >= 1; cut-- {
		g, err := core.BuildPattern(o.Rooted, o.Steps[:cut])
		if err != nil {
			continue
		}
		r.stats.PartialFusions++
		return &core.PathOp{
			Input: &core.TPMOp{Input: input, Graph: g},
			Steps: r.rewriteSteps(o.Steps[cut:]),
		}
	}
	return &core.PathOp{Input: input, Rooted: o.Rooted, Steps: r.rewriteSteps(o.Steps)}
}

// rewriteSteps rewrites the predicate plans of steps that stay πs.
func (r *rewriter) rewriteSteps(steps []core.Step) []core.Step {
	out := make([]core.Step, len(steps))
	for i, st := range steps {
		out[i] = st
		if len(st.Preds) > 0 {
			out[i].Preds = make([]core.Op, len(st.Preds))
			for j, p := range st.Preds {
				out[i].Preds[j] = r.rewrite(p)
			}
		}
	}
	return out
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
// for-clause binding its variable. Supported shapes, where path is a
// πs-chain or a relative τ over $v:
//
//	compare(path, const-literal)  and the mirrored form
//	path used as an existence test
func (r *rewriter) tryPush(f *core.FLWOROp, conj core.Op) bool {
	path := conj
	if c, ok := conj.(*core.CompareOp); ok {
		switch {
		case isConst(c.R):
			path = c.L
		case isConst(c.L):
			path = c.R
		default:
			return false
		}
	}
	v := varOf(path)
	return v != "" && r.pushPred(f, v, conj)
}

func isConst(op core.Op) bool {
	_, ok := op.(*core.ConstOp)
	return ok
}

// varOf returns the variable a relative πs-chain or τ navigates from, or
// "" for any other operator.
func varOf(op core.Op) string {
	var in core.Op
	switch p := op.(type) {
	case *core.PathOp:
		if p.Rooted {
			return ""
		}
		in = p.Input
	case *core.TPMOp:
		if p.Graph.Rooted {
			return ""
		}
		in = p.Input
	}
	if v, ok := in.(*core.VarOp); ok {
		return v.Name
	}
	return ""
}

// pushPred grafts the conjunct onto the τ pattern of the for-clause
// binding varName, through the pattern builder with $varName as the
// anchor.
func (r *rewriter) pushPred(f *core.FLWOROp, varName string, conj core.Op) bool {
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
		isVar := func(op core.Op) bool {
			v, ok := op.(*core.VarOp)
			return ok && v.Name == varName
		}
		if err := core.AttachPredicate(g, g.Output, conj, isVar); err != nil {
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
