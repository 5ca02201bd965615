package builtin

import (
	"fmt"
	"math"
	"regexp"
	"strings"

	"xqp/internal/storage"
	"xqp/internal/value"
	"xqp/internal/xmldoc"
)

func single(it value.Item) (value.Sequence, error) { return value.Singleton(it), nil }

// ebv is boolean(), or not() when negate is set.
func ebv(negate bool) EvalFunc {
	return func(args []value.Sequence, _ *Focus) (value.Sequence, error) {
		b, err := value.EBV(args[0])
		if err != nil {
			return nil, err
		}
		return single(value.Bool(b != negate))
	}
}

func aggregator(name string) EvalFunc {
	return func(args []value.Sequence, _ *Focus) (value.Sequence, error) { return aggregate(name, args[0]) }
}

// ofString applies g to the string value of the optional argument, or of
// the context item when there is none; an empty argument is "".
func ofString(g func(string) value.Item) EvalFunc {
	return func(args []value.Sequence, f *Focus) (value.Sequence, error) {
		it, err := optionalItem(args, f)
		if err != nil {
			return nil, err
		}
		s := ""
		if it != nil {
			s = it.String()
		}
		return single(g(s))
	}
}

func testStrings(g func(s, t string) bool) EvalFunc {
	return func(args []value.Sequence, _ *Focus) (value.Sequence, error) {
		return single(value.Bool(g(seqString(args[0]), seqString(args[1]))))
	}
}

func mapString(g func(string) string) EvalFunc {
	return func(args []value.Sequence, _ *Focus) (value.Sequence, error) {
		return single(value.Str(g(seqString(args[0]))))
	}
}

// substringAround is substring-after, or substring-before unless after
// is set.
func substringAround(after bool) EvalFunc {
	return func(args []value.Sequence, _ *Focus) (value.Sequence, error) {
		s, sub := seqString(args[0]), seqString(args[1])
		i := strings.Index(s, sub)
		switch {
		case i < 0:
			return single(value.Str(""))
		case after:
			return single(value.Str(s[i+len(sub):]))
		}
		return single(value.Str(s[:i]))
	}
}

func nodeName(args []value.Sequence, f *Focus) (value.Sequence, error) {
	it, err := optionalItem(args, f)
	if err != nil {
		return nil, err
	}
	n, ok := it.(value.Node)
	if !ok {
		return single(value.Str(""))
	}
	return single(value.Str(n.Store.Name(n.Ref)))
}

// rounding applies g to the number of its argument; integral results
// are integers.
func rounding(g func(float64) float64) EvalFunc {
	return func(args []value.Sequence, _ *Focus) (value.Sequence, error) {
		if len(args[0]) == 0 {
			return nil, nil
		}
		f := g(seqNumber(args[0]))
		if f == math.Trunc(f) && !math.IsInf(f, 0) && !math.IsNaN(f) {
			return single(value.Int(int64(f)))
		}
		return single(value.Dbl(f))
	}
}

// matcher compiles the pattern of args[1] and applies g to it.
func matcher(g func(re *regexp.Regexp, args []value.Sequence) value.Sequence) EvalFunc {
	return func(args []value.Sequence, _ *Focus) (value.Sequence, error) {
		re, err := compileRE(seqString(args[1]))
		if err != nil {
			return nil, err
		}
		return g(re, args), nil
	}
}

func textCtor(args []value.Sequence, _ *Focus) (value.Sequence, error) {
	s := ""
	for i, it := range value.Atomize(args[0]) {
		if i > 0 {
			s += " "
		}
		s += it.String()
	}
	b := xmldoc.NewBuilder()
	b.OpenElement("#wrap")
	b.Text(s)
	b.CloseElement()
	doc := b.Build()
	st := storage.FromDoc(doc)
	wrap := st.DocumentElement()
	if c := st.FirstChild(wrap); c != storage.NilRef {
		return single(value.Node{Store: st, Ref: c})
	}
	return nil, nil
}

// compileRE compiles an XPath regular expression (Go RE2 syntax covers
// the common fragment).
func compileRE(pat string) (*regexp.Regexp, error) {
	re, err := regexp.Compile(pat)
	if err != nil {
		return nil, &value.TypeError{Msg: fmt.Sprintf("invalid regular expression %q: %v", pat, err)}
	}
	return re, nil
}

// deepEqualSeq compares sequences by deep value: atomics by general
// equality, nodes by structural equality of their subtrees.
func deepEqualSeq(a, b value.Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		an, aok := a[i].(value.Node)
		bn, bok := b[i].(value.Node)
		if aok != bok {
			return false
		}
		if aok {
			da, db := an.Store.SubtreeDoc(an.Ref), bn.Store.SubtreeDoc(bn.Ref)
			if !xmldoc.DeepEqual(da, da.Root(), db, db.Root()) {
				return false
			}
			continue
		}
		ok, err := value.CompareGeneral(value.CmpEq, value.Singleton(a[i]), value.Singleton(b[i]))
		if err != nil || !ok {
			return false
		}
	}
	return true
}

// optionalItem returns the single item of args[0], or the context item
// when no argument was supplied; nil for an empty sequence.
func optionalItem(args []value.Sequence, f *Focus) (value.Item, error) {
	if len(args) == 0 {
		return f.Item, nil
	}
	if len(args[0]) == 0 {
		return nil, nil
	}
	if len(args[0]) > 1 {
		return nil, &value.TypeError{Msg: "expected at most one item"}
	}
	return args[0][0], nil
}

func seqString(s value.Sequence) string {
	if len(s) == 0 {
		return ""
	}
	return value.Atomize(s)[0].String()
}

func seqNumber(s value.Sequence) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return value.NumberOf(value.Atomize(s)[0])
}

// aggregate implements sum/avg/min/max with numeric semantics (strings
// fall back to string ordering for min/max when nothing is numeric).
func aggregate(name string, seq value.Sequence) (value.Sequence, error) {
	items := value.Atomize(seq)
	if len(items) == 0 {
		if name == "sum" {
			return value.Singleton(value.Int(0)), nil
		}
		return nil, nil
	}
	allInt := true
	numeric := true
	for _, it := range items {
		switch it.(type) {
		case value.Int:
		case value.Dbl:
			allInt = false
		default:
			allInt = false
			if _, err := fmt.Sscanf(strings.TrimSpace(it.String()), "%f", new(float64)); err != nil {
				numeric = false
			}
		}
	}
	if !numeric && (name == "min" || name == "max") {
		best := items[0].String()
		for _, it := range items[1:] {
			s := it.String()
			if (name == "min" && s < best) || (name == "max" && s > best) {
				best = s
			}
		}
		return value.Singleton(value.Str(best)), nil
	}
	if allInt {
		return aggregateInts(name, items)
	}
	var sum, minV, maxV float64
	minV, maxV = math.Inf(1), math.Inf(-1)
	for _, it := range items {
		f := value.NumberOf(it)
		sum += f
		if f < minV {
			minV = f
		}
		if f > maxV {
			maxV = f
		}
	}
	switch name {
	case "sum":
		return value.Singleton(value.Dbl(sum)), nil
	case "avg":
		return value.Singleton(value.Dbl(sum / float64(len(items)))), nil
	case "min":
		return value.Singleton(value.Dbl(minV)), nil
	default:
		return value.Singleton(value.Dbl(maxV)), nil
	}
}

// aggregateInts folds a non-empty sequence of integers exactly: the sum
// is accumulated in int64 and raises FOAR0002 on overflow, as integer +
// does, min and max compare as int64, and avg divides the exact sum.
func aggregateInts(name string, items value.Sequence) (value.Sequence, error) {
	acc := items[0].(value.Int)
	for _, it := range items[1:] {
		x := it.(value.Int)
		switch name {
		case "min":
			acc = min(acc, x)
		case "max":
			acc = max(acc, x)
		default:
			s := acc + x
			if (acc^s)&(x^s) < 0 {
				return nil, fmt.Errorf("%w: %s overflows", value.ErrOverflow, name)
			}
			acc = s
		}
	}
	if name == "avg" {
		return value.Singleton(value.Dbl(float64(acc) / float64(len(items)))), nil
	}
	return value.Singleton(value.Int(acc)), nil
}
