package analyze

import (
	"xqp/internal/ast"
	"xqp/internal/builtin"
	"xqp/internal/core"
)

// Pure reports whether evaluating op can have no observable effect besides
// its value: the subtree calls no impure builtin, either as a plan
// operator or inside the predicate ASTs that πs-chains carry. The
// rewriter's dead-let elimination and the analyzer's empty-subplan
// pruning are gated on this.
func Pure(op core.Op) bool {
	pure := true
	core.Walk(op, func(o core.Op) bool {
		switch x := o.(type) {
		case *core.FnOp:
			if x.Fn.Impure {
				pure = false
			}
		case *core.PathOp:
			if !pureSteps(x.Path.Steps) {
				pure = false
			}
		}
		return pure
	})
	return pure
}

// pureSteps checks the predicate expressions embedded in path steps.
func pureSteps(steps []ast.Step) bool {
	for _, st := range steps {
		for _, p := range st.Preds {
			if !PureExpr(p) {
				return false
			}
		}
	}
	return true
}

// PureExpr is the AST-level counterpart of Pure, for predicate expressions
// that are evaluated without ever being translated to plan operators.
func PureExpr(e ast.Expr) bool {
	pure := true
	ast.Walk(e, func(x ast.Expr) bool {
		if f, ok := x.(*ast.FuncCall); ok {
			if fn := builtin.Lookup(f.Name); fn == nil || fn.Impure {
				pure = false
			}
		}
		return pure
	})
	return pure
}
