package core

import (
	"fmt"

	"xqp/internal/ast"
	"xqp/internal/builtin"
	"xqp/internal/value"
)

// Translate compiles an XQuery AST into a logical plan. The translation
// is syntax-directed and unoptimized: every path becomes a πs-chain
// (PathOp), every constructor a γ over the extracted SchemaTree, every
// FLWOR an Env-building operator. Package rewrite improves the result.
func Translate(e ast.Expr) (Op, error) {
	switch x := e.(type) {
	case *ast.StringLit:
		return &ConstOp{Seq: value.Singleton(value.Str(x.Val))}, nil
	case *ast.NumberLit:
		if x.IsInt {
			return &ConstOp{Seq: value.Singleton(value.Int(x.Int))}, nil
		}
		return &ConstOp{Seq: value.Singleton(value.Dbl(x.Val))}, nil
	case *ast.EmptySeq:
		return &ConstOp{}, nil
	case *ast.VarRef:
		return &VarOp{Name: x.Name}, nil
	case *ast.ContextItem:
		return &ContextOp{}, nil
	case *ast.SequenceExpr:
		op := &SeqOp{}
		for _, it := range x.Items {
			c, err := Translate(it)
			if err != nil {
				return nil, err
			}
			op.Items = append(op.Items, c)
		}
		return op, nil
	case *ast.Unary:
		inner, err := Translate(x.X)
		if err != nil {
			return nil, err
		}
		if !x.Neg {
			return inner, nil
		}
		return &NegOp{X: inner}, nil
	case *ast.Binary:
		return translateBinary(x)
	case *ast.FuncCall:
		fn, err := builtin.Resolve(x)
		if err != nil {
			return nil, err
		}
		if x.Name == "doc" || x.Name == "document" {
			uri := ""
			if len(x.Args) == 1 {
				lit, ok := x.Args[0].(*ast.StringLit)
				if !ok {
					return nil, fmt.Errorf("core: %s() requires a string literal argument", x.Name)
				}
				uri = lit.Val
			}
			return &DocOp{URI: uri}, nil
		}
		op := &FnOp{Fn: fn}
		for _, a := range x.Args {
			c, err := Translate(a)
			if err != nil {
				return nil, err
			}
			op.Args = append(op.Args, c)
		}
		return op, nil
	case *ast.If:
		c, err := Translate(x.Cond)
		if err != nil {
			return nil, err
		}
		t, err := Translate(x.Then)
		if err != nil {
			return nil, err
		}
		el, err := Translate(x.Else)
		if err != nil {
			return nil, err
		}
		return &IfOp{Cond: c, Then: t, Else: el}, nil
	case *ast.Quantified:
		op := &QuantOp{Every: x.Kind == ast.QuantEvery}
		for _, b := range x.Bindings {
			in, err := Translate(b.In)
			if err != nil {
				return nil, err
			}
			op.Bindings = append(op.Bindings, Bind{Kind: BindFor, Var: b.Var, Expr: in})
		}
		sat, err := Translate(x.Satisfies)
		if err != nil {
			return nil, err
		}
		op.Satisfies = sat
		return op, nil
	case *ast.FLWOR:
		op := &FLWOROp{}
		for _, c := range x.Clauses {
			in, err := Translate(c.Expr)
			if err != nil {
				return nil, err
			}
			kind := BindFor
			if c.Kind == ast.ClauseLet {
				kind = BindLet
			}
			op.Clauses = append(op.Clauses, Bind{Kind: kind, Var: c.Var, PosVar: c.PosVar, Expr: in})
		}
		if x.Where != nil {
			w, err := Translate(x.Where)
			if err != nil {
				return nil, err
			}
			op.Where = w
		}
		for _, o := range x.OrderBy {
			k, err := Translate(o.Key)
			if err != nil {
				return nil, err
			}
			op.OrderBy = append(op.OrderBy, OrderKey{Key: k, Descending: o.Descending, EmptyLeast: o.EmptyLeast})
		}
		r, err := Translate(x.Return)
		if err != nil {
			return nil, err
		}
		op.Return = r
		return op, nil
	case *ast.PathExpr:
		return translatePath(x)
	case *ast.ElementCtor:
		root, err := schemaFromCtor(x)
		if err != nil {
			return nil, err
		}
		return &ConstructOp{Schema: &SchemaTree{Root: root}}, nil
	case *ast.ComputedCtor:
		return translateComputedCtor(x)
	}
	return nil, fmt.Errorf("core: cannot translate %T", e)
}

func translateBinary(x *ast.Binary) (Op, error) {
	l, err := Translate(x.L)
	if err != nil {
		return nil, err
	}
	r, err := Translate(x.R)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case ast.OpOr:
		return &LogicOp{Kind: LogicOr, L: l, R: r}, nil
	case ast.OpAnd:
		return &LogicOp{Kind: LogicAnd, L: l, R: r}, nil
	case ast.OpEq:
		return &CompareOp{Op: value.CmpEq, L: l, R: r}, nil
	case ast.OpNe:
		return &CompareOp{Op: value.CmpNe, L: l, R: r}, nil
	case ast.OpLt:
		return &CompareOp{Op: value.CmpLt, L: l, R: r}, nil
	case ast.OpLe:
		return &CompareOp{Op: value.CmpLe, L: l, R: r}, nil
	case ast.OpGt:
		return &CompareOp{Op: value.CmpGt, L: l, R: r}, nil
	case ast.OpGe:
		return &CompareOp{Op: value.CmpGe, L: l, R: r}, nil
	case ast.OpAdd:
		return &ArithOp{Op: value.OpAdd, L: l, R: r}, nil
	case ast.OpSub:
		return &ArithOp{Op: value.OpSub, L: l, R: r}, nil
	case ast.OpMul:
		return &ArithOp{Op: value.OpMul, L: l, R: r}, nil
	case ast.OpDiv:
		return &ArithOp{Op: value.OpDiv, L: l, R: r}, nil
	case ast.OpIDiv:
		return &ArithOp{Op: value.OpIDiv, L: l, R: r}, nil
	case ast.OpMod:
		return &ArithOp{Op: value.OpMod, L: l, R: r}, nil
	case ast.OpUnion:
		return &UnionOp{Kind: SetUnion, L: l, R: r}, nil
	case ast.OpIntersect:
		return &UnionOp{Kind: SetIntersect, L: l, R: r}, nil
	case ast.OpExcept:
		return &UnionOp{Kind: SetExcept, L: l, R: r}, nil
	case ast.OpTo:
		return &RangeOp{L: l, R: r}, nil
	}
	return nil, fmt.Errorf("core: unknown binary operator %v", x.Op)
}

func translatePath(x *ast.PathExpr) (Op, error) {
	var input Op
	switch {
	case x.Base != nil:
		b, err := Translate(x.Base)
		if err != nil {
			return nil, err
		}
		input = b
	case x.Rooted:
		input = &DocOp{URI: ""}
	default:
		input = &ContextOp{}
	}
	if len(x.Steps) == 0 {
		return input, nil
	}
	op := &PathOp{Input: input, Rooted: x.Rooted, Steps: make([]Step, len(x.Steps))}
	for i, st := range x.Steps {
		step := Step{Axis: st.Axis, Test: st.Test, Src: st.String()}
		for _, pred := range st.Preds {
			p, err := Translate(pred)
			if err != nil {
				return nil, err
			}
			step.Preds = append(step.Preds, p)
		}
		op.Steps[i] = step
	}
	return op, nil
}

func translateComputedCtor(x *ast.ComputedCtor) (Op, error) {
	var content Op
	if x.Content != nil {
		c, err := Translate(x.Content)
		if err != nil {
			return nil, err
		}
		content = c
	}
	switch x.Kind {
	case "element":
		node := &SchemaNode{Kind: SchemaElement, Name: x.Name}
		if content != nil {
			node.Children = append(node.Children, &SchemaNode{Kind: SchemaPlaceholder, Expr: content})
		}
		return &ConstructOp{Schema: &SchemaTree{Root: node}}, nil
	case "attribute":
		node := &SchemaNode{Kind: SchemaAttribute, Name: x.Name}
		if content != nil {
			node.Parts = append(node.Parts, SchemaPart{Expr: content})
		}
		return &ConstructOp{Schema: &SchemaTree{Root: node}}, nil
	case "text":
		if content == nil {
			content = &ConstOp{}
		}
		return &FnOp{Fn: builtin.TextCtor, Args: []Op{content}}, nil
	}
	return nil, fmt.Errorf("core: unknown computed constructor %q", x.Kind)
}

// schemaFromCtor extracts the SchemaTree of a direct element constructor
// (the paper's Fig. 1(b) output template).
func schemaFromCtor(e *ast.ElementCtor) (*SchemaNode, error) {
	node := &SchemaNode{Kind: SchemaElement, Name: e.Name}
	for _, a := range e.Attrs {
		attr := &SchemaNode{Kind: SchemaAttribute, Name: a.Name}
		for _, p := range a.Parts {
			if p.Expr == nil {
				attr.Parts = append(attr.Parts, SchemaPart{Lit: p.Lit})
				continue
			}
			op, err := Translate(p.Expr)
			if err != nil {
				return nil, err
			}
			attr.Parts = append(attr.Parts, SchemaPart{Expr: op})
		}
		node.Children = append(node.Children, attr)
	}
	for _, c := range e.Content {
		switch {
		case c.Child != nil:
			child, err := schemaFromCtor(c.Child)
			if err != nil {
				return nil, err
			}
			node.Children = append(node.Children, child)
		case c.Expr != nil:
			op, err := Translate(c.Expr)
			if err != nil {
				return nil, err
			}
			node.Children = append(node.Children, &SchemaNode{Kind: SchemaPlaceholder, Expr: op})
		default:
			node.Children = append(node.Children, &SchemaNode{Kind: SchemaText, Text: c.Lit})
		}
	}
	return node, nil
}
