// Package builtin is the table of XQuery builtin functions. One entry per
// function holds its name, its arity bounds, its purity, the static rule
// for its result type and its evaluator. The translator resolves every
// call against the table, the analyzer reads purity and result types from
// it and the executor runs the entry's Eval, so the three cannot drift.
package builtin

import (
	"fmt"
	"math"
	"regexp"
	"strings"

	"xqp/internal/ast"
	"xqp/internal/value"
)

// Card is the static cardinality of a sequence.
type Card uint8

const (
	// CardMany is the unknown cardinality: zero or more items.
	CardMany Card = iota
	// CardOne is exactly one item.
	CardOne
	// CardZeroOrOne is at most one item.
	CardZeroOrOne
	// CardEmpty is the provably empty sequence.
	CardEmpty
)

func (c Card) String() string {
	return [...]string{"many", "one", "zero-or-one", "empty"}[c]
}

// Kind is the static type of a sequence's items.
type Kind uint8

const (
	// KindAny is the unknown item type.
	KindAny Kind = iota
	// KindNode marks node sequences (path, pattern and constructor results).
	KindNode
	// KindBool marks boolean results (comparisons, logic, quantifiers).
	KindBool
	// KindNumber marks numeric results (arithmetic, count(), position()).
	KindNumber
	// KindString marks string results (literals, string builtins).
	KindString
)

func (k Kind) String() string {
	return [...]string{"any", "node", "boolean", "number", "string"}[k]
}

// Type is the static type of a sequence. The zero Type is any kind, any
// cardinality.
type Type struct {
	Kind Kind
	Card Card
	// FromDoc reports that every node in the sequence provably belongs
	// to the bound default document.
	FromDoc bool
}

// Focus is the part of the dynamic context a builtin reads: the context
// item, position() and last().
type Focus struct {
	Item value.Item
	Pos  int
	Size int
}

// EvalFunc computes a call from its evaluated arguments, whose number
// the translator has already checked against the entry's bounds.
type EvalFunc func(args []value.Sequence, f *Focus) (value.Sequence, error)

// Func is one builtin function.
type Func struct {
	Name string
	// Min and Max bound the number of arguments (both zero: none; Max
	// is math.MaxInt for a variadic function).
	Min, Max int
	// Impure marks a function whose evaluation has an effect besides its
	// value: error() exists to raise, so eliminating a call would change
	// behaviour. The others may still raise type errors on malformed
	// arguments, which XQuery lets an optimizer elide.
	Impure bool
	// Result maps the arguments' static types to the result's; nil
	// means the zero Type.
	Result func(args []Type) Type
	// Eval evaluates a call. doc() and document() have none: the
	// translator turns them into the document access operator.
	Eval EvalFunc
}

// table holds the builtins with their XQuery 1.0 F&O arities, except
// that concat takes any number of arguments.
var table = [...]Func{
	{Name: "true", Result: one(KindBool), Eval: func([]value.Sequence, *Focus) (value.Sequence, error) { return single(value.Bool(true)) }},
	{Name: "false", Result: one(KindBool), Eval: func([]value.Sequence, *Focus) (value.Sequence, error) { return single(value.Bool(false)) }},
	{Name: "not", Min: 1, Max: 1, Result: one(KindBool), Eval: ebv(true)},
	{Name: "boolean", Min: 1, Max: 1, Result: one(KindBool), Eval: ebv(false)},
	{Name: "error", Max: 2, Impure: true, Eval: func(args []value.Sequence, _ *Focus) (value.Sequence, error) {
		msg := "error()"
		if len(args) >= 1 && len(args[0]) > 0 {
			msg = seqString(args[0])
		}
		if len(args) == 2 && len(args[1]) > 0 {
			msg += ": " + seqString(args[1])
		}
		return nil, fmt.Errorf("%w: error raised: %s", value.ErrDynamic, msg)
	}},
	{Name: "count", Min: 1, Max: 1, Result: one(KindNumber), Eval: func(args []value.Sequence, _ *Focus) (value.Sequence, error) {
		return single(value.Int(int64(len(args[0]))))
	}},
	{Name: "empty", Min: 1, Max: 1, Result: one(KindBool), Eval: func(args []value.Sequence, _ *Focus) (value.Sequence, error) {
		return single(value.Bool(len(args[0]) == 0))
	}},
	{Name: "exists", Min: 1, Max: 1, Result: one(KindBool), Eval: func(args []value.Sequence, _ *Focus) (value.Sequence, error) {
		return single(value.Bool(len(args[0]) > 0))
	}},
	{Name: "sum", Min: 1, Max: 1, Result: one(KindNumber), Eval: aggregator("sum")},
	{Name: "avg", Min: 1, Max: 1, Result: optional(KindNumber), Eval: aggregator("avg")},
	// min and max fall back to string ordering, so their kind is open.
	{Name: "min", Min: 1, Max: 1, Result: optional(KindAny), Eval: aggregator("min")},
	{Name: "max", Min: 1, Max: 1, Result: optional(KindAny), Eval: aggregator("max")},
	{Name: "string", Max: 1, Result: one(KindString), Eval: ofString(func(s string) value.Item { return value.Str(s) })},
	{Name: "number", Max: 1, Result: one(KindNumber), Eval: func(args []value.Sequence, f *Focus) (value.Sequence, error) {
		it, err := optionalItem(args, f)
		if err != nil {
			return nil, err
		}
		if it == nil {
			return single(value.Dbl(math.NaN()))
		}
		return single(value.Dbl(value.NumberOf(it)))
	}},
	{Name: "data", Min: 1, Max: 1, Result: func(args []Type) Type { return Type{Card: args[0].Card} },
		Eval: func(args []value.Sequence, _ *Focus) (value.Sequence, error) { return value.Atomize(args[0]), nil }},
	{Name: "concat", Max: math.MaxInt, Result: one(KindString), Eval: func(args []value.Sequence, _ *Focus) (value.Sequence, error) {
		var b strings.Builder
		for _, a := range args {
			for _, it := range value.Atomize(a) {
				b.WriteString(it.String())
			}
		}
		return single(value.Str(b.String()))
	}},
	{Name: "string-join", Min: 2, Max: 2, Result: one(KindString), Eval: func(args []value.Sequence, _ *Focus) (value.Sequence, error) {
		sep := seqString(args[1])
		parts := make([]string, len(args[0]))
		for i, it := range value.Atomize(args[0]) {
			parts[i] = it.String()
		}
		return single(value.Str(strings.Join(parts, sep)))
	}},
	{Name: "contains", Min: 2, Max: 2, Result: one(KindBool), Eval: testStrings(strings.Contains)},
	{Name: "starts-with", Min: 2, Max: 2, Result: one(KindBool), Eval: testStrings(strings.HasPrefix)},
	{Name: "ends-with", Min: 2, Max: 2, Result: one(KindBool), Eval: testStrings(strings.HasSuffix)},
	{Name: "substring", Min: 2, Max: 3, Result: one(KindString), Eval: func(args []value.Sequence, _ *Focus) (value.Sequence, error) {
		s := []rune(seqString(args[0]))
		start := int(math.Round(seqNumber(args[1]))) - 1
		length := len(s) - start
		if len(args) == 3 {
			length = int(math.Round(seqNumber(args[2])))
		}
		if start < 0 {
			length += start
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		if length < 0 {
			length = 0
		}
		if start+length > len(s) {
			length = len(s) - start
		}
		return single(value.Str(string(s[start : start+length])))
	}},
	{Name: "substring-before", Min: 2, Max: 2, Result: one(KindString), Eval: substringAround(false)},
	{Name: "substring-after", Min: 2, Max: 2, Result: one(KindString), Eval: substringAround(true)},
	{Name: "string-length", Max: 1, Result: one(KindNumber),
		Eval: ofString(func(s string) value.Item { return value.Int(int64(len([]rune(s)))) })},
	{Name: "normalize-space", Max: 1, Result: one(KindString),
		Eval: ofString(func(s string) value.Item { return value.Str(strings.Join(strings.Fields(s), " ")) })},
	{Name: "upper-case", Min: 1, Max: 1, Result: one(KindString), Eval: mapString(strings.ToUpper)},
	{Name: "lower-case", Min: 1, Max: 1, Result: one(KindString), Eval: mapString(strings.ToLower)},
	{Name: "name", Max: 1, Result: one(KindString), Eval: nodeName},
	{Name: "local-name", Max: 1, Result: one(KindString), Eval: nodeName},
	{Name: "root", Max: 1, Result: func(args []Type) Type {
		return Type{Kind: KindNode, Card: CardOne, FromDoc: fromDoc(args)}
	}, Eval: func(args []value.Sequence, f *Focus) (value.Sequence, error) {
		it, err := optionalItem(args, f)
		if err != nil {
			return nil, err
		}
		n, ok := it.(value.Node)
		if !ok {
			return nil, &value.TypeError{Msg: "root() over a non-node"}
		}
		return single(value.Node{Store: n.Store, Ref: n.Store.Root()})
	}},
	{Name: "position", Result: one(KindNumber), Eval: func(_ []value.Sequence, f *Focus) (value.Sequence, error) {
		return single(value.Int(int64(f.Pos)))
	}},
	{Name: "last", Result: one(KindNumber), Eval: func(_ []value.Sequence, f *Focus) (value.Sequence, error) {
		return single(value.Int(int64(f.Size)))
	}},
	{Name: "distinct-values", Min: 1, Max: 1, Result: sameDoc, Eval: func(args []value.Sequence, _ *Focus) (value.Sequence, error) {
		seen := map[string]bool{}
		var out value.Sequence
		for _, it := range value.Atomize(args[0]) {
			k := value.ItemKind(it) + "|" + it.String()
			if value.IsNumeric(it) {
				k = fmt.Sprintf("num|%g", value.NumberOf(it))
			}
			if !seen[k] {
				seen[k] = true
				out = append(out, it)
			}
		}
		return out, nil
	}},
	{Name: "reverse", Min: 1, Max: 1, Result: func(args []Type) Type { return args[0] }, Eval: func(args []value.Sequence, _ *Focus) (value.Sequence, error) {
		out := make(value.Sequence, len(args[0]))
		for i, it := range args[0] {
			out[len(out)-1-i] = it
		}
		return out, nil
	}},
	{Name: "subsequence", Min: 2, Max: 3, Result: sameDoc, Eval: func(args []value.Sequence, _ *Focus) (value.Sequence, error) {
		start := int(math.Round(seqNumber(args[1])))
		end := len(args[0])
		if len(args) == 3 {
			end = start + int(math.Round(seqNumber(args[2]))) - 1
		}
		var out value.Sequence
		for i, it := range args[0] {
			if i+1 >= start && i+1 <= end {
				out = append(out, it)
			}
		}
		return out, nil
	}},
	{Name: "floor", Min: 1, Max: 1, Result: rounded, Eval: rounding(math.Floor)},
	{Name: "ceiling", Min: 1, Max: 1, Result: rounded, Eval: rounding(math.Ceil)},
	{Name: "round", Min: 1, Max: 1, Result: rounded, Eval: rounding(func(f float64) float64 { return math.Floor(f + 0.5) })},
	{Name: "abs", Min: 1, Max: 1, Result: rounded, Eval: rounding(math.Abs)},
	{Name: "zero-or-one", Min: 1, Max: 1, Result: func(args []Type) Type {
		return Type{Kind: args[0].Kind, Card: atMostOne(args[0].Card), FromDoc: args[0].FromDoc}
	}, Eval: func(args []value.Sequence, _ *Focus) (value.Sequence, error) {
		if len(args[0]) > 1 {
			return nil, &value.TypeError{Msg: "zero-or-one over a longer sequence"}
		}
		return args[0], nil
	}},
	{Name: "exactly-one", Min: 1, Max: 1, Result: func(args []Type) Type {
		return Type{Kind: args[0].Kind, Card: CardOne, FromDoc: args[0].FromDoc}
	}, Eval: func(args []value.Sequence, _ *Focus) (value.Sequence, error) {
		if len(args[0]) != 1 {
			return nil, &value.TypeError{Msg: "exactly-one over a non-singleton"}
		}
		return args[0], nil
	}},
	{Name: "matches", Min: 2, Max: 2, Result: one(KindBool), Eval: matcher(func(re *regexp.Regexp, args []value.Sequence) value.Sequence {
		return value.Singleton(value.Bool(re.MatchString(seqString(args[0]))))
	})},
	{Name: "replace", Min: 3, Max: 3, Result: one(KindString), Eval: matcher(func(re *regexp.Regexp, args []value.Sequence) value.Sequence {
		return value.Singleton(value.Str(re.ReplaceAllString(seqString(args[0]), seqString(args[2]))))
	})},
	{Name: "tokenize", Min: 2, Max: 2, Result: sameDoc, Eval: matcher(func(re *regexp.Regexp, args []value.Sequence) value.Sequence {
		var out value.Sequence
		for _, part := range re.Split(seqString(args[0]), -1) {
			out = append(out, value.Str(part))
		}
		return out
	})},
	{Name: "index-of", Min: 2, Max: 2, Result: sameDoc, Eval: func(args []value.Sequence, _ *Focus) (value.Sequence, error) {
		var out value.Sequence
		for i, it := range value.Atomize(args[0]) {
			ok, err := value.CompareGeneral(value.CmpEq, value.Singleton(it), value.Atomize(args[1]))
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, value.Int(int64(i+1)))
			}
		}
		return out, nil
	}},
	{Name: "insert-before", Min: 3, Max: 3, Result: sameDoc, Eval: func(args []value.Sequence, _ *Focus) (value.Sequence, error) {
		pos := int(seqNumber(args[1]))
		if pos < 1 {
			pos = 1
		}
		if pos > len(args[0])+1 {
			pos = len(args[0]) + 1
		}
		out := make(value.Sequence, 0, len(args[0])+len(args[2]))
		out = append(out, args[0][:pos-1]...)
		out = append(out, args[2]...)
		out = append(out, args[0][pos-1:]...)
		return out, nil
	}},
	{Name: "remove", Min: 2, Max: 2, Result: sameDoc, Eval: func(args []value.Sequence, _ *Focus) (value.Sequence, error) {
		pos := int(seqNumber(args[1]))
		var out value.Sequence
		for i, it := range args[0] {
			if i+1 != pos {
				out = append(out, it)
			}
		}
		return out, nil
	}},
	{Name: "deep-equal", Min: 2, Max: 2, Result: one(KindBool), Eval: func(args []value.Sequence, _ *Focus) (value.Sequence, error) {
		return single(value.Bool(deepEqualSeq(args[0], args[1])))
	}},
	{Name: "doc", Max: 1},
	{Name: "document", Max: 1},
}

// TextCtor builds the text node of a computed text constructor. The
// translator emits it; no query can name it.
var TextCtor = &Func{Name: "#text-ctor", Min: 1, Max: 1, Eval: textCtor}

var byName = func() map[string]*Func {
	m := make(map[string]*Func, len(table))
	for i := range table {
		m[table[i].Name] = &table[i]
	}
	return m
}()

// Lookup returns the builtin of the given name, or nil.
func Lookup(name string) *Func { return byName[name] }

// Resolve returns the builtin a call names. A name no builtin has, or a
// number of arguments outside the builtin's bounds, is the static error
// XPST0017.
func Resolve(call *ast.FuncCall) (*Func, error) {
	f, n := byName[call.Name], len(call.Args)
	if f != nil && n >= f.Min && n <= f.Max {
		return f, nil
	}
	msg := fmt.Sprintf("unknown function %s#%d", call.Name, n)
	if f != nil {
		want := fmt.Sprint(f.Min)
		if f.Max != f.Min {
			want = fmt.Sprintf("%d to %d", f.Min, f.Max)
		}
		msg = fmt.Sprintf("wrong number of arguments to %s: got %d, want %s", call.Name, n, want)
	}
	return nil, fmt.Errorf("static error XPST0017 at line %d, column %d: %s", call.Line, call.Col, msg)
}

// one is the rule of a function returning exactly one item of kind k.
func one(k Kind) func([]Type) Type {
	return func([]Type) Type { return Type{Kind: k, Card: CardOne} }
}

// optional is the rule of an aggregate: at most one item of kind k, none
// over an empty argument.
func optional(k Kind) func([]Type) Type {
	return func(args []Type) Type {
		if args[0].Card == CardEmpty {
			return Type{Kind: k, Card: CardEmpty}
		}
		return Type{Kind: k, Card: CardZeroOrOne}
	}
}

// atMostOne narrows c to at most one item.
func atMostOne(c Card) Card {
	if c == CardEmpty || c == CardOne {
		return c
	}
	return CardZeroOrOne
}

// fromDoc reports that a call has arguments and all come from the
// document.
func fromDoc(args []Type) bool {
	for _, a := range args {
		if !a.FromDoc {
			return false
		}
	}
	return len(args) > 0
}

func sameDoc(args []Type) Type { return Type{FromDoc: fromDoc(args)} }
func rounded(args []Type) Type { return Type{Kind: KindNumber, Card: atMostOne(args[0].Card)} }
