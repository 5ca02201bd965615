// Package value implements the runtime value model of the XQuery data
// model as the algebra uses it: items (nodes and atomics), flat sequences
// (the sort List), and nested lists (the sort NestedList that the paper
// introduces for single-pass tree pattern matching).
package value

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"xqp/internal/storage"
)

// Item is one XQuery item: a node or an atomic value.
type Item interface {
	itemTag()
	// String renders the item's string value.
	String() string
}

// Node is a node item: a reference into a document store.
type Node struct {
	Store *storage.Store
	Ref   storage.NodeRef
}

func (Node) itemTag() {}

// String returns the node's string value.
func (n Node) String() string { return n.Store.StringValue(n.Ref) }

// Str is an atomic string value.
type Str string

func (Str) itemTag()         {}
func (s Str) String() string { return string(s) }

// Int is an atomic integer value.
type Int int64

func (Int) itemTag()         {}
func (i Int) String() string { return strconv.FormatInt(int64(i), 10) }

// Dbl is an atomic double value.
type Dbl float64

func (Dbl) itemTag() {}
func (d Dbl) String() string {
	f := float64(d)
	if math.IsInf(f, 1) {
		return "INF"
	}
	if math.IsInf(f, -1) {
		return "-INF"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatFloat(f, 'f', -1, 64)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Bool is an atomic boolean value.
type Bool bool

func (Bool) itemTag() {}
func (b Bool) String() string {
	if b {
		return "true"
	}
	return "false"
}

// Sequence is a flat sequence of items: the sort List.
type Sequence []Item

// Empty reports whether the sequence has no items.
func (s Sequence) Empty() bool { return len(s) == 0 }

// String renders the sequence with space-separated item values.
func (s Sequence) String() string {
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = it.String()
	}
	return strings.Join(parts, " ")
}

// Singleton wraps one item.
func Singleton(it Item) Sequence { return Sequence{it} }

// ErrDynamic is the class of XQuery dynamic errors a query raises on
// its data, such as a type mismatch or a call of error(): a property of
// the query, not an engine fault. Such errors match it with errors.Is.
var ErrDynamic = errors.New("dynamic error")

// TypeError reports a dynamic type mismatch.
type TypeError struct{ Msg string }

func (e *TypeError) Error() string { return "type error: " + e.Msg }

// Is makes every TypeError an ErrDynamic.
func (e *TypeError) Is(target error) bool { return target == ErrDynamic }

func typeErrf(format string, args ...any) error {
	return &TypeError{Msg: fmt.Sprintf(format, args...)}
}

// ItemKind names an item's kind for error messages.
func ItemKind(it Item) string {
	switch it.(type) {
	case Node:
		return "node"
	case Str:
		return "string"
	case Int:
		return "integer"
	case Dbl:
		return "double"
	case Bool:
		return "boolean"
	}
	return "unknown"
}

// EBV computes the effective boolean value of a sequence.
func EBV(s Sequence) (bool, error) {
	if len(s) == 0 {
		return false, nil
	}
	if _, ok := s[0].(Node); ok {
		return true, nil
	}
	if len(s) > 1 {
		return false, typeErrf("effective boolean value of a sequence of %d atomic items", len(s))
	}
	switch v := s[0].(type) {
	case Bool:
		return bool(v), nil
	case Str:
		return len(v) > 0, nil
	case Int:
		return v != 0, nil
	case Dbl:
		return v == v && v != 0, nil // NaN and 0 are false
	}
	return false, typeErrf("no effective boolean value for %s", ItemKind(s[0]))
}

// Atomize converts nodes to their untyped string values, leaving atomics
// untouched.
func Atomize(s Sequence) Sequence {
	out := make(Sequence, len(s))
	for i, it := range s {
		if n, ok := it.(Node); ok {
			out[i] = untyped(n.String())
		} else {
			out[i] = it
		}
	}
	return out
}

// untyped wraps a node string value; represented as Str but numeric
// coercion is applied lazily during comparisons.
func untyped(s string) Item { return Str(s) }

// NumberOf converts an item to a double following XPath number() rules.
// Unconvertible strings yield NaN (not an error), as in XPath.
func NumberOf(it Item) float64 {
	switch v := it.(type) {
	case Int:
		return float64(v)
	case Dbl:
		return float64(v)
	case Bool:
		if v {
			return 1
		}
		return 0
	case Str:
		f, err := strconv.ParseFloat(strings.TrimSpace(string(v)), 64)
		if err != nil {
			return math.NaN()
		}
		return f
	case Node:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.String()), 64)
		if err != nil {
			return math.NaN()
		}
		return f
	}
	return math.NaN()
}

// IsNumeric reports whether the item is an Int or Dbl.
func IsNumeric(it Item) bool {
	switch it.(type) {
	case Int, Dbl:
		return true
	}
	return false
}

// CmpOp is a comparison operator for CompareGeneral.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

func (o CmpOp) String() string {
	return [...]string{"=", "!=", "<", "<=", ">", ">="}[o]
}

// Flip returns the operator with its operands swapped: a < b is b > a.
func (o CmpOp) Flip() CmpOp {
	return [...]CmpOp{CmpEq, CmpNe, CmpGt, CmpGe, CmpLt, CmpLe}[o]
}

// CompareGeneral implements XQuery general comparison: true iff some pair
// of atomized items from l and r satisfies the operator.
func CompareGeneral(op CmpOp, l, r Sequence) (bool, error) {
	la, ra := Atomize(l), Atomize(r)
	for _, x := range la {
		for _, y := range ra {
			ok, err := compareItems(op, x, y)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
	}
	return false, nil
}

// compareItems compares two atomic items with untyped coercion: if either
// side is numeric, compare numerically; if either is boolean, compare
// boolean; otherwise compare strings.
func compareItems(op CmpOp, x, y Item) (bool, error) {
	if _, ok := x.(Bool); ok {
		yb, ok2 := y.(Bool)
		if !ok2 {
			return false, typeErrf("cannot compare boolean with %s", ItemKind(y))
		}
		return cmpResult(op, b2i(bool(x.(Bool)))-b2i(bool(yb))), nil
	}
	if _, ok := y.(Bool); ok {
		return false, typeErrf("cannot compare %s with boolean", ItemKind(x))
	}
	if xi, ok := x.(Int); ok {
		if yi, ok := y.(Int); ok {
			// Exact: two integers beyond 2^53 may share a float64.
			return cmpResult(op, cmp.Compare(xi, yi)), nil
		}
	}
	if IsNumeric(x) || IsNumeric(y) {
		fx, fy := NumberOf(x), NumberOf(y)
		if math.IsNaN(fx) || math.IsNaN(fy) {
			// NaN compares false except under !=.
			return op == CmpNe && !(math.IsNaN(fx) && math.IsNaN(fy) && false), nil
		}
		switch {
		case fx < fy:
			return cmpResult(op, -1), nil
		case fx > fy:
			return cmpResult(op, 1), nil
		default:
			return cmpResult(op, 0), nil
		}
	}
	return cmpResult(op, strings.Compare(x.String(), y.String())), nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func cmpResult(op CmpOp, c int) bool {
	switch op {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	}
	return false
}

// ArithOp is an arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpIDiv
	OpMod
)

// ErrOverflow is XQuery's FOAR0002: an integer literal or the result of
// an integer operation falls outside the int64 range.
var ErrOverflow = errors.New("FOAR0002: integer overflow")

func overflowf(op ArithOp, x, y Int) error {
	return fmt.Errorf("%w: %d %s %d", ErrOverflow, x, [...]string{"+", "-", "*", "div", "idiv", "mod"}[op], y)
}

// Arith applies an arithmetic operator to two sequences under XQuery
// rules: empty operand propagates to empty; operands must be singletons.
func Arith(op ArithOp, l, r Sequence) (Sequence, error) {
	la, ra := Atomize(l), Atomize(r)
	if len(la) == 0 || len(ra) == 0 {
		return nil, nil
	}
	if len(la) > 1 || len(ra) > 1 {
		return nil, typeErrf("arithmetic on a sequence of more than one item")
	}
	x, y := la[0], ra[0]
	xi, xIsInt := x.(Int)
	yi, yIsInt := y.(Int)
	if xIsInt && yIsInt {
		switch op {
		case OpAdd:
			s := xi + yi
			if (xi^s)&(yi^s) < 0 {
				return nil, overflowf(op, xi, yi)
			}
			return Singleton(Int(s)), nil
		case OpSub:
			d := xi - yi
			if (xi^yi)&(xi^d) < 0 {
				return nil, overflowf(op, xi, yi)
			}
			return Singleton(Int(d)), nil
		case OpMul:
			p := xi * yi
			if xi != 0 && (p/xi != yi || xi == -1 && yi == math.MinInt64) {
				return nil, overflowf(op, xi, yi)
			}
			return Singleton(Int(p)), nil
		case OpIDiv:
			if yi == 0 {
				return nil, typeErrf("integer division by zero")
			}
			if xi == math.MinInt64 && yi == -1 {
				return nil, overflowf(op, xi, yi)
			}
			return Singleton(Int(xi / yi)), nil
		case OpMod:
			if yi == 0 {
				return nil, typeErrf("modulus by zero")
			}
			return Singleton(Int(xi % yi)), nil
		case OpDiv:
			if yi == 0 {
				return nil, typeErrf("division by zero")
			}
			if xi%yi == 0 && !(xi == math.MinInt64 && yi == -1) {
				return Singleton(Int(xi / yi)), nil
			}
			return Singleton(Dbl(float64(xi) / float64(yi))), nil
		}
	}
	fx, fy := NumberOf(x), NumberOf(y)
	switch op {
	case OpAdd:
		return Singleton(Dbl(fx + fy)), nil
	case OpSub:
		return Singleton(Dbl(fx - fy)), nil
	case OpMul:
		return Singleton(Dbl(fx * fy)), nil
	case OpDiv:
		return Singleton(Dbl(fx / fy)), nil
	case OpIDiv:
		if fy == 0 {
			return nil, typeErrf("integer division by zero")
		}
		q := math.Trunc(fx / fy)
		if math.IsNaN(q) || q < math.MinInt64 || q >= math.MaxInt64 {
			return nil, fmt.Errorf("%w: %v idiv %v", ErrOverflow, fx, fy)
		}
		return Singleton(Int(int64(q))), nil
	case OpMod:
		return Singleton(Dbl(math.Mod(fx, fy))), nil
	}
	return nil, typeErrf("unknown arithmetic operator")
}

// nodeLess orders nodes globally: by store ordinal, then pre-order number.
func nodeLess(a, b Node) bool {
	if a.Store != b.Store {
		return a.Store.Ord < b.Store.Ord
	}
	return a.Ref < b.Ref
}

// SameNode reports node identity.
func SameNode(a, b Node) bool { return a.Store == b.Store && a.Ref == b.Ref }

// DocOrder sorts a sequence of nodes into document order and removes
// duplicates. It returns an error if the sequence contains atomic items.
func DocOrder(s Sequence) (Sequence, error) {
	nodes := make([]Node, len(s))
	for i, it := range s {
		n, ok := it.(Node)
		if !ok {
			return nil, typeErrf("document-order sort over %s item", ItemKind(it))
		}
		nodes[i] = n
	}
	sort.Slice(nodes, func(i, j int) bool { return nodeLess(nodes[i], nodes[j]) })
	out := make(Sequence, 0, len(nodes))
	for i, n := range nodes {
		if i > 0 && SameNode(n, nodes[i-1]) {
			continue
		}
		out = append(out, n)
	}
	return out, nil
}

// IsDocOrdered reports whether s is sorted in document order without
// duplicates (vacuously true if it contains atomics).
func IsDocOrdered(s Sequence) bool {
	for i := 1; i < len(s); i++ {
		a, ok1 := s[i-1].(Node)
		b, ok2 := s[i].(Node)
		if !ok1 || !ok2 {
			return true
		}
		if !nodeLess(a, b) {
			return false
		}
	}
	return true
}

// Union merges two node sequences in document order, removing duplicates.
func Union(l, r Sequence) (Sequence, error) {
	return DocOrder(append(append(Sequence{}, l...), r...))
}

// Intersect returns the nodes present in both sequences, in document
// order without duplicates.
func Intersect(l, r Sequence) (Sequence, error) {
	ld, err := DocOrder(l)
	if err != nil {
		return nil, err
	}
	rd, err := DocOrder(r)
	if err != nil {
		return nil, err
	}
	var out Sequence
	i, j := 0, 0
	for i < len(ld) && j < len(rd) {
		a, b := ld[i].(Node), rd[j].(Node)
		switch {
		case SameNode(a, b):
			out = append(out, a)
			i++
			j++
		case nodeLess(a, b):
			i++
		default:
			j++
		}
	}
	return out, nil
}

// Except returns the nodes of l that are not in r, in document order
// without duplicates.
func Except(l, r Sequence) (Sequence, error) {
	ld, err := DocOrder(l)
	if err != nil {
		return nil, err
	}
	rd, err := DocOrder(r)
	if err != nil {
		return nil, err
	}
	var out Sequence
	i, j := 0, 0
	for i < len(ld) {
		a := ld[i].(Node)
		for j < len(rd) && nodeLess(rd[j].(Node), a) {
			j++
		}
		if j < len(rd) && SameNode(rd[j].(Node), a) {
			i++
			continue
		}
		out = append(out, a)
		i++
	}
	return out, nil
}

// DeepEqual compares two sequences item-wise; nodes compare by identity.
func DeepEqual(a, b Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		an, aok := a[i].(Node)
		bn, bok := b[i].(Node)
		if aok != bok {
			return false
		}
		if aok {
			if !SameNode(an, bn) {
				return false
			}
			continue
		}
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
