package exec

import (
	"fmt"
	"math"
	"regexp"
	"strings"

	"xqp/internal/core"
	"xqp/internal/storage"
	"xqp/internal/value"
	"xqp/internal/xmldoc"
)

// evalFn dispatches built-in function calls.
func (e *Engine) evalFn(o *core.FnOp, ctx *Context) (value.Sequence, error) {
	args := make([]value.Sequence, len(o.Args))
	for i, a := range o.Args {
		v, err := e.Eval(a, ctx)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	switch o.Name {
	case "true":
		return value.Singleton(value.Bool(true)), nil
	case "false":
		return value.Singleton(value.Bool(false)), nil
	case "not":
		if err := arity(o, args, 1, 1); err != nil {
			return nil, err
		}
		b, err := value.EBV(args[0])
		if err != nil {
			return nil, err
		}
		return value.Singleton(value.Bool(!b)), nil
	case "error":
		// fn:error — raises a dynamic error. The static analyzer treats
		// this builtin as impure, so subplans containing it survive both
		// dead-let elimination and empty-subplan pruning.
		if err := arity(o, args, 0, 2); err != nil {
			return nil, err
		}
		msg := "error()"
		if len(args) >= 1 && len(args[0]) > 0 {
			msg = seqString(args[0])
		}
		if len(args) == 2 && len(args[1]) > 0 {
			msg += ": " + seqString(args[1])
		}
		return nil, fmt.Errorf("exec: error raised: %s", msg)
	case "boolean":
		if err := arity(o, args, 1, 1); err != nil {
			return nil, err
		}
		b, err := value.EBV(args[0])
		if err != nil {
			return nil, err
		}
		return value.Singleton(value.Bool(b)), nil
	case "count":
		if err := arity(o, args, 1, 1); err != nil {
			return nil, err
		}
		return value.Singleton(value.Int(int64(len(args[0])))), nil
	case "empty":
		if err := arity(o, args, 1, 1); err != nil {
			return nil, err
		}
		return value.Singleton(value.Bool(len(args[0]) == 0)), nil
	case "exists":
		if err := arity(o, args, 1, 1); err != nil {
			return nil, err
		}
		return value.Singleton(value.Bool(len(args[0]) > 0)), nil
	case "sum", "avg", "min", "max":
		if err := arity(o, args, 1, 1); err != nil {
			return nil, err
		}
		return aggregate(o.Name, args[0])
	case "string":
		it, err := optionalItem(args, ctx)
		if err != nil {
			return nil, err
		}
		if it == nil {
			return value.Singleton(value.Str("")), nil
		}
		return value.Singleton(value.Str(it.String())), nil
	case "number":
		it, err := optionalItem(args, ctx)
		if err != nil {
			return nil, err
		}
		if it == nil {
			return value.Singleton(value.Dbl(math.NaN())), nil
		}
		return value.Singleton(value.Dbl(value.NumberOf(it))), nil
	case "data":
		if err := arity(o, args, 1, 1); err != nil {
			return nil, err
		}
		return value.Atomize(args[0]), nil
	case "concat":
		var b strings.Builder
		for _, a := range args {
			for _, it := range value.Atomize(a) {
				b.WriteString(it.String())
			}
		}
		return value.Singleton(value.Str(b.String())), nil
	case "string-join":
		if err := arity(o, args, 2, 2); err != nil {
			return nil, err
		}
		sep := seqString(args[1])
		parts := make([]string, len(args[0]))
		for i, it := range value.Atomize(args[0]) {
			parts[i] = it.String()
		}
		return value.Singleton(value.Str(strings.Join(parts, sep))), nil
	case "contains":
		if err := arity(o, args, 2, 2); err != nil {
			return nil, err
		}
		return value.Singleton(value.Bool(strings.Contains(seqString(args[0]), seqString(args[1])))), nil
	case "starts-with":
		if err := arity(o, args, 2, 2); err != nil {
			return nil, err
		}
		return value.Singleton(value.Bool(strings.HasPrefix(seqString(args[0]), seqString(args[1])))), nil
	case "ends-with":
		if err := arity(o, args, 2, 2); err != nil {
			return nil, err
		}
		return value.Singleton(value.Bool(strings.HasSuffix(seqString(args[0]), seqString(args[1])))), nil
	case "substring":
		if err := arity(o, args, 2, 3); err != nil {
			return nil, err
		}
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
		return value.Singleton(value.Str(string(s[start : start+length]))), nil
	case "substring-before", "substring-after":
		if err := arity(o, args, 2, 2); err != nil {
			return nil, err
		}
		s, sub := seqString(args[0]), seqString(args[1])
		i := strings.Index(s, sub)
		if i < 0 {
			return value.Singleton(value.Str("")), nil
		}
		if o.Name == "substring-before" {
			return value.Singleton(value.Str(s[:i])), nil
		}
		return value.Singleton(value.Str(s[i+len(sub):])), nil
	case "string-length":
		it, err := optionalItem(args, ctx)
		if err != nil {
			return nil, err
		}
		s := ""
		if it != nil {
			s = it.String()
		}
		return value.Singleton(value.Int(int64(len([]rune(s))))), nil
	case "normalize-space":
		it, err := optionalItem(args, ctx)
		if err != nil {
			return nil, err
		}
		s := ""
		if it != nil {
			s = it.String()
		}
		return value.Singleton(value.Str(strings.Join(strings.Fields(s), " "))), nil
	case "upper-case":
		if err := arity(o, args, 1, 1); err != nil {
			return nil, err
		}
		return value.Singleton(value.Str(strings.ToUpper(seqString(args[0])))), nil
	case "lower-case":
		if err := arity(o, args, 1, 1); err != nil {
			return nil, err
		}
		return value.Singleton(value.Str(strings.ToLower(seqString(args[0])))), nil
	case "name", "local-name":
		it, err := optionalItem(args, ctx)
		if err != nil {
			return nil, err
		}
		n, ok := it.(value.Node)
		if !ok {
			return value.Singleton(value.Str("")), nil
		}
		return value.Singleton(value.Str(n.Store.Name(n.Ref))), nil
	case "root":
		it, err := optionalItem(args, ctx)
		if err != nil {
			return nil, err
		}
		n, ok := it.(value.Node)
		if !ok {
			return nil, &value.TypeError{Msg: "root() over a non-node"}
		}
		return value.Singleton(value.Node{Store: n.Store, Ref: n.Store.Root()}), nil
	case "position":
		return value.Singleton(value.Int(int64(ctx.Pos))), nil
	case "last":
		return value.Singleton(value.Int(int64(ctx.Size))), nil
	case "distinct-values":
		if err := arity(o, args, 1, 1); err != nil {
			return nil, err
		}
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
	case "reverse":
		if err := arity(o, args, 1, 1); err != nil {
			return nil, err
		}
		out := make(value.Sequence, len(args[0]))
		for i, it := range args[0] {
			out[len(out)-1-i] = it
		}
		return out, nil
	case "subsequence":
		if err := arity(o, args, 2, 3); err != nil {
			return nil, err
		}
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
	case "floor", "ceiling", "round", "abs":
		if err := arity(o, args, 1, 1); err != nil {
			return nil, err
		}
		if len(args[0]) == 0 {
			return nil, nil
		}
		f := seqNumber(args[0])
		switch o.Name {
		case "floor":
			f = math.Floor(f)
		case "ceiling":
			f = math.Ceil(f)
		case "round":
			f = math.Floor(f + 0.5)
		case "abs":
			f = math.Abs(f)
		}
		if f == math.Trunc(f) && !math.IsInf(f, 0) && !math.IsNaN(f) {
			return value.Singleton(value.Int(int64(f))), nil
		}
		return value.Singleton(value.Dbl(f)), nil
	case "zero-or-one":
		if err := arity(o, args, 1, 1); err != nil {
			return nil, err
		}
		if len(args[0]) > 1 {
			return nil, &value.TypeError{Msg: "zero-or-one over a longer sequence"}
		}
		return args[0], nil
	case "exactly-one":
		if err := arity(o, args, 1, 1); err != nil {
			return nil, err
		}
		if len(args[0]) != 1 {
			return nil, &value.TypeError{Msg: "exactly-one over a non-singleton"}
		}
		return args[0], nil
	case "matches":
		if err := arity(o, args, 2, 2); err != nil {
			return nil, err
		}
		re, err := compileRE(seqString(args[1]))
		if err != nil {
			return nil, err
		}
		return value.Singleton(value.Bool(re.MatchString(seqString(args[0])))), nil
	case "replace":
		if err := arity(o, args, 3, 3); err != nil {
			return nil, err
		}
		re, err := compileRE(seqString(args[1]))
		if err != nil {
			return nil, err
		}
		return value.Singleton(value.Str(re.ReplaceAllString(seqString(args[0]), seqString(args[2])))), nil
	case "tokenize":
		if err := arity(o, args, 2, 2); err != nil {
			return nil, err
		}
		re, err := compileRE(seqString(args[1]))
		if err != nil {
			return nil, err
		}
		var out value.Sequence
		for _, part := range re.Split(seqString(args[0]), -1) {
			out = append(out, value.Str(part))
		}
		return out, nil
	case "index-of":
		if err := arity(o, args, 2, 2); err != nil {
			return nil, err
		}
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
	case "insert-before":
		if err := arity(o, args, 3, 3); err != nil {
			return nil, err
		}
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
	case "remove":
		if err := arity(o, args, 2, 2); err != nil {
			return nil, err
		}
		pos := int(seqNumber(args[1]))
		var out value.Sequence
		for i, it := range args[0] {
			if i+1 != pos {
				out = append(out, it)
			}
		}
		return out, nil
	case "deep-equal":
		if err := arity(o, args, 2, 2); err != nil {
			return nil, err
		}
		return value.Singleton(value.Bool(deepEqualSeq(args[0], args[1]))), nil
	case "#text-ctor":
		// Internal: computed text constructor.
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
			return value.Singleton(value.Node{Store: st, Ref: c}), nil
		}
		return nil, nil
	}
	return nil, fmt.Errorf("exec: unknown function %s#%d", o.Name, len(o.Args))
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
			if !storeSubtreeEqual(an, bn) {
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

func storeSubtreeEqual(a, b value.Node) bool {
	da, db := subtreeDoc(a), subtreeDoc(b)
	return xmldoc.DeepEqual(da, da.Root(), db, db.Root())
}

func subtreeDoc(n value.Node) *xmldoc.Document {
	b := xmldoc.NewBuilder()
	copyStoreSubtree(b, n.Store, n.Ref)
	return b.Build()
}

// copyStoreSubtree rebuilds one operand subtree for deep-equal.
//
//xqvet:ignore ctxpoll bounded by a single deep-equal operand subtree; the comparison helpers have no engine handle to poll
func copyStoreSubtree(b *xmldoc.Builder, st *storage.Store, n storage.NodeRef) {
	switch st.Kind(n) {
	case xmldoc.KindElement:
		b.OpenElement(st.Name(n))
		for c := st.FirstChild(n); c != storage.NilRef; c = st.NextSibling(c) {
			copyStoreSubtree(b, st, c)
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
			copyStoreSubtree(b, st, c)
		}
	}
}

func arity(o *core.FnOp, args []value.Sequence, min, max int) error {
	if len(args) < min || len(args) > max {
		return fmt.Errorf("exec: %s expects %d..%d arguments, got %d", o.Name, min, max, len(args))
	}
	return nil
}

// optionalItem returns the single item of args[0], or the context item
// when no argument was supplied; nil for an empty sequence.
func optionalItem(args []value.Sequence, ctx *Context) (value.Item, error) {
	if len(args) == 0 {
		return ctx.Item, nil
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
