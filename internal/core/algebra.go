package core

import (
	"fmt"

	"xqp/internal/ast"
	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/value"
	"xqp/internal/xmldoc"
)

// This file implements the operators of Table 1 as functions over the
// runtime sorts, matching the paper's signatures:
//
//	σs : List → List                       SelectTag
//	⋈s : List × List → List               join.StructuralJoin
//	πs : List → NestedList                 Navigate / NavigateStep
//	σv : List → List                       SelectValue
//	⋈v : List × List → List               ValueJoin
//	τ  : Tree × PatternGraph → NestedList  nok.MatchNested
//	γ  : NestedList × SchemaTree → Tree    BuildTree

// SelectTag is σs: keep the node items whose tag name is name.
func SelectTag(list value.Sequence, name string) value.Sequence {
	var out value.Sequence
	for _, it := range list {
		n, ok := it.(value.Node)
		if !ok {
			continue
		}
		if n.Store.Name(n.Ref) == name {
			out = append(out, it)
		}
	}
	return out
}

// SelectValue is σv: keep the items satisfying the comparison against a
// literal (atomizing nodes).
func SelectValue(list value.Sequence, op value.CmpOp, lit value.Item) value.Sequence {
	var out value.Sequence
	for _, it := range list {
		ok, err := value.CompareGeneral(op, value.Singleton(it), value.Singleton(lit))
		if err == nil && ok {
			out = append(out, it)
		}
	}
	return out
}

// ValueJoin is ⋈v: return the items of l whose atomized value compares
// successfully with some item of r (a value-based semi-join, the form the
// plans use).
func ValueJoin(l, r value.Sequence, op value.CmpOp) (value.Sequence, error) {
	var out value.Sequence
	for _, x := range l {
		ok, err := value.CompareGeneral(op, value.Singleton(x), r)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, x)
		}
	}
	return out, nil
}

// NavigateStep is πs for one location step (axis + node test, without
// predicates): map each context node through the axis and return the
// result in document order without duplicates.
func NavigateStep(list value.Sequence, axis ast.Axis, test ast.NodeTest) (value.Sequence, error) {
	var out value.Sequence
	for _, it := range list {
		n, ok := it.(value.Node)
		if !ok {
			return nil, &value.TypeError{Msg: fmt.Sprintf("path step over %s item", value.ItemKind(it))}
		}
		collectAxis(n.Store, n.Ref, axis, test, &out)
	}
	return value.DocOrder(out)
}

// collectAxis appends the nodes reachable from n through the axis that
// pass the test.
func collectAxis(st *storage.Store, n storage.NodeRef, axis ast.Axis, test ast.NodeTest, out *value.Sequence) {
	emit := func(m storage.NodeRef) {
		if nodePassesTest(st, m, axis, test) {
			*out = append(*out, value.Node{Store: st, Ref: m})
		}
	}
	switch axis {
	case ast.AxisChild:
		for c := st.FirstChild(n); c != storage.NilRef; c = st.NextSibling(c) {
			if st.Kind(c) != xmldoc.KindAttribute {
				emit(c)
			}
		}
	case ast.AxisAttribute:
		for c := st.FirstChild(n); c != storage.NilRef; c = st.NextSibling(c) {
			if st.Kind(c) == xmldoc.KindAttribute {
				emit(c)
			}
		}
	case ast.AxisDescendant, ast.AxisDescendantOrSelf:
		if axis == ast.AxisDescendantOrSelf {
			emit(n)
		}
		end := n + storage.NodeRef(st.SubtreeSize(n))
		for d := n + 1; d < end; d++ {
			emit(d)
		}
	case ast.AxisSelf:
		emit(n)
	case ast.AxisParent:
		if p := st.Parent(n); p != storage.NilRef {
			emit(p)
		}
	case ast.AxisAncestor, ast.AxisAncestorOrSelf:
		if axis == ast.AxisAncestorOrSelf {
			emit(n)
		}
		for p := st.Parent(n); p != storage.NilRef; p = st.Parent(p) {
			emit(p)
		}
	case ast.AxisFollowingSibling:
		for s := st.NextSibling(n); s != storage.NilRef; s = st.NextSibling(s) {
			if st.Kind(s) != xmldoc.KindAttribute {
				emit(s)
			}
		}
	case ast.AxisPrecedingSibling:
		for s := st.PrevSibling(n); s != storage.NilRef; s = st.PrevSibling(s) {
			if st.Kind(s) != xmldoc.KindAttribute {
				emit(s)
			}
		}
	}
}

// nodePassesTest applies a node test in the context of an axis (name
// tests select elements, except on the attribute axis).
func nodePassesTest(st *storage.Store, n storage.NodeRef, axis ast.Axis, test ast.NodeTest) bool {
	if test.Kind != ast.TestName {
		return pattern.MatchesKindTest(st, n, test)
	}
	if axis == ast.AxisAttribute {
		if st.Kind(n) != xmldoc.KindAttribute {
			return false
		}
	} else {
		if st.Kind(n) != xmldoc.KindElement {
			return false
		}
	}
	return test.Name == "*" || st.Name(n) == test.Name
}

// BuildTree is γ: materialize a SchemaTree into a new document, calling
// eval to produce the value of each placeholder. Node-valued placeholder
// items are deep-copied; atomic items become text (space-separated when
// adjacent).
func BuildTree(schema *SchemaTree, eval func(Op) (value.Sequence, error)) (*xmldoc.Document, error) {
	b := xmldoc.NewBuilder()
	if schema != nil && schema.Root != nil {
		if err := buildNode(b, schema.Root, eval); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

func buildNode(b *xmldoc.Builder, n *SchemaNode, eval func(Op) (value.Sequence, error)) error {
	switch n.Kind {
	case SchemaElement:
		b.OpenElement(n.Name)
		for _, c := range n.Children {
			if err := buildNode(b, c, eval); err != nil {
				return err
			}
		}
		b.CloseElement()
	case SchemaAttribute:
		val := ""
		for _, p := range n.Parts {
			if p.Expr == nil {
				val += p.Lit
				continue
			}
			seq, err := eval(p.Expr)
			if err != nil {
				return err
			}
			val += value.Atomize(seq).String()
		}
		b.Attr(n.Name, val)
	case SchemaText:
		b.Text(n.Text)
	case SchemaPlaceholder:
		seq, err := eval(n.Expr)
		if err != nil {
			return err
		}
		if err := emitSequence(b, seq); err != nil {
			return err
		}
	case SchemaIf:
		seq, err := eval(n.Expr)
		if err != nil {
			return err
		}
		ok, err := value.EBV(seq)
		if err != nil {
			return err
		}
		if ok {
			for _, c := range n.Children {
				if err := buildNode(b, c, eval); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// emitSequence writes a sequence into element content per the XQuery
// constructor rules: nodes copy as subtrees, adjacent atomics join with
// single spaces.
func emitSequence(b *xmldoc.Builder, seq value.Sequence) error {
	pendingAtomic := false
	for _, it := range seq {
		switch v := it.(type) {
		case value.Node:
			emitStoreNode(b, v.Store, v.Ref)
			pendingAtomic = false
		default:
			if pendingAtomic {
				b.Text(" ")
			}
			b.Text(it.String())
			pendingAtomic = true
		}
	}
	return nil
}

// emitStoreNode deep-copies a store node into the builder.
func emitStoreNode(b *xmldoc.Builder, st *storage.Store, n storage.NodeRef) {
	switch st.Kind(n) {
	case xmldoc.KindElement:
		b.OpenElement(st.Name(n))
		for c := st.FirstChild(n); c != storage.NilRef; c = st.NextSibling(c) {
			emitStoreNode(b, st, c)
		}
		b.CloseElement()
	case xmldoc.KindAttribute:
		b.Attr(st.Name(n), st.Content(n))
	case xmldoc.KindText:
		b.Text(st.Content(n))
	case xmldoc.KindComment:
		b.Comment(st.Content(n))
	case xmldoc.KindPI:
		b.PI(st.Name(n), st.Content(n))
	case xmldoc.KindDocument:
		for c := st.FirstChild(n); c != storage.NilRef; c = st.NextSibling(c) {
			emitStoreNode(b, st, c)
		}
	}
}
