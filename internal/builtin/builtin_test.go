package builtin

import (
	"strings"
	"testing"

	"xqp/internal/ast"
	"xqp/internal/value"
)

// TestTable: every entry has sane bounds, and every entry but the
// document access functions an evaluator.
func TestTable(t *testing.T) {
	for i := range table {
		f := &table[i]
		if f.Min < 0 || f.Min > f.Max {
			t.Errorf("%s: bounds %d..%d", f.Name, f.Min, f.Max)
		}
		if (f.Eval == nil) != (f.Name == "doc" || f.Name == "document") {
			t.Errorf("%s: Eval set = %v", f.Name, f.Eval != nil)
		}
		if Lookup(f.Name) != f {
			t.Errorf("%s: Lookup does not return the entry", f.Name)
		}
	}
	if Lookup(TextCtor.Name) != nil {
		t.Error("the text constructor must not be nameable")
	}
	if !Lookup("error").Impure || Lookup("count").Impure {
		t.Error("only error() is impure")
	}
}

func TestResolve(t *testing.T) {
	args := func(n int) []ast.Expr { return make([]ast.Expr, n) }
	for _, c := range []struct {
		call *ast.FuncCall
		err  string
	}{
		{&ast.FuncCall{Name: "count", Args: args(1)}, ""},
		{&ast.FuncCall{Name: "concat", Args: args(9)}, ""},
		{&ast.FuncCall{Name: "substring", Args: args(3)}, ""},
		{&ast.FuncCall{Name: "doc", Args: args(1)}, ""},
		{&ast.FuncCall{Name: "count", Args: args(2), Line: 3, Col: 7},
			"static error XPST0017 at line 3, column 7: wrong number of arguments to count: got 2, want 1"},
		{&ast.FuncCall{Name: "substring", Args: args(1), Line: 1, Col: 1},
			"wrong number of arguments to substring: got 1, want 2 to 3"},
		{&ast.FuncCall{Name: "foo", Line: 1, Col: 5},
			"static error XPST0017 at line 1, column 5: unknown function foo#0"},
		{&ast.FuncCall{Name: TextCtor.Name, Args: args(1)}, "unknown function #text-ctor#1"},
	} {
		f, err := Resolve(c.call)
		switch {
		case c.err == "" && (err != nil || f == nil || f.Name != c.call.Name):
			t.Errorf("%s#%d: %v, %v", c.call.Name, len(c.call.Args), f, err)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%s#%d: err %v, want %q", c.call.Name, len(c.call.Args), err, c.err)
		}
	}
}

// TestResultRules pins the static result rules that depend on the
// arguments' types.
func TestResultRules(t *testing.T) {
	many := Type{Kind: KindNode, Card: CardMany, FromDoc: true}
	one := Type{Kind: KindNumber, Card: CardOne}
	empty := Type{Card: CardEmpty}
	for _, c := range []struct {
		name string
		args []Type
		want Type
	}{
		{"avg", []Type{many}, Type{Kind: KindNumber, Card: CardZeroOrOne}},
		{"avg", []Type{empty}, Type{Kind: KindNumber, Card: CardEmpty}},
		{"max", []Type{many}, Type{Card: CardZeroOrOne}},
		{"floor", []Type{one}, Type{Kind: KindNumber, Card: CardOne}},
		{"floor", []Type{many}, Type{Kind: KindNumber, Card: CardZeroOrOne}},
		{"data", []Type{one}, Type{Card: CardOne}},
		{"reverse", []Type{many}, many},
		{"zero-or-one", []Type{many}, Type{Kind: KindNode, Card: CardZeroOrOne, FromDoc: true}},
		{"exactly-one", []Type{many}, Type{Kind: KindNode, Card: CardOne, FromDoc: true}},
		{"root", []Type{many}, Type{Kind: KindNode, Card: CardOne, FromDoc: true}},
		{"root", nil, Type{Kind: KindNode, Card: CardOne}},
		{"subsequence", []Type{many, one}, Type{}},
		{"distinct-values", []Type{many}, Type{FromDoc: true}},
	} {
		if got := Lookup(c.name).Result(c.args); got != c.want {
			t.Errorf("%s(%v) = %+v, want %+v", c.name, c.args, got, c.want)
		}
	}
	if Lookup("error").Result != nil {
		t.Error("error() has a result rule")
	}
}

// TestFocus: position() and last() read the focus, and the string
// functions without an argument read its item.
func TestFocus(t *testing.T) {
	f := &Focus{Item: value.Str("abc"), Pos: 2, Size: 5}
	for name, want := range map[string]string{"position": "2", "last": "5", "string-length": "3", "string": "abc"} {
		got, err := Lookup(name).Eval(nil, f)
		if err != nil || len(got) != 1 || got[0].String() != want {
			t.Errorf("%s() = %v, %v; want %s", name, got, err, want)
		}
	}
}
