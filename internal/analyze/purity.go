package analyze

import (
	"xqp/internal/core"
)

// Pure reports whether evaluating op can have no observable effect besides
// its value: the subtree calls no impure builtin. Step predicates are
// ordinary subplans of their πs-chain, so the walk covers them too. The
// rewriter's dead-let elimination and the analyzer's empty-subplan
// pruning are gated on this.
func Pure(op core.Op) bool {
	pure := true
	core.Walk(op, func(o core.Op) bool {
		if x, ok := o.(*core.FnOp); ok && x.Fn.Impure {
			pure = false
		}
		return pure
	})
	return pure
}
