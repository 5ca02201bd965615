package vocab

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestInternLookup(t *testing.T) {
	v := New()
	if v.Len() != 1 {
		t.Fatalf("fresh table Len = %d, want 1 (root)", v.Len())
	}
	a := v.Intern("book")
	b := v.Intern("title")
	if a == b {
		t.Fatal("distinct names got same symbol")
	}
	if got := v.Intern("book"); got != a {
		t.Errorf("re-Intern(book) = %d, want %d", got, a)
	}
	if got := v.Lookup("title"); got != b {
		t.Errorf("Lookup(title) = %d, want %d", got, b)
	}
	if got := v.Lookup("missing"); got != None {
		t.Errorf("Lookup(missing) = %d, want None", got)
	}
	if v.Name(a) != "book" || v.Name(Root) != "#root" {
		t.Errorf("Name round-trip failed")
	}
}

func TestNamesOrder(t *testing.T) {
	v := New()
	v.Intern("z")
	v.Intern("a")
	names := v.Names()
	if len(names) != 3 || names[1] != "z" || names[2] != "a" {
		t.Fatalf("Names = %v", names)
	}
	sorted := v.SortedNames()
	if sorted[0] != "#root" || sorted[1] != "a" || sorted[2] != "z" {
		t.Fatalf("SortedNames = %v", sorted)
	}
}

// Property: Name(Intern(x)) == x for arbitrary strings.
func TestInternRoundTripProperty(t *testing.T) {
	v := New()
	f := func(s string) bool { return v.Name(v.Intern(s)) == s }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: symbols are dense — Len grows by exactly one per fresh name.
func TestDenseSymbols(t *testing.T) {
	v := New()
	for i := 0; i < 1000; i++ {
		s := v.Intern(fmt.Sprintf("tag%d", i))
		if int(s) != i+1 {
			t.Fatalf("Intern #%d = %d, want %d", i, s, i+1)
		}
	}
	if v.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive")
	}
}

// TestCloneIsIndependent: a clone keeps every symbol, and interning into
// it leaves the original untouched.
func TestCloneIsIndependent(t *testing.T) {
	v := New()
	book := v.Intern("book")
	c := v.Clone()
	if c.Lookup("book") != book || c.Len() != v.Len() {
		t.Fatalf("clone lost symbols: Lookup(book) = %d, Len = %d", c.Lookup("book"), c.Len())
	}
	if s := c.Intern("title"); s != Symbol(v.Len()) {
		t.Fatalf("clone Intern(title) = %d, want %d", s, v.Len())
	}
	if v.Lookup("title") != None || v.Len() != 2 {
		t.Fatal("interning into the clone changed the original")
	}
}

// TestJSONPlainFlags: Intern records whether each name needs JSON
// escaping, and Clone copies the flags.
func TestJSONPlainFlags(t *testing.T) {
	v := New()
	plain, quoted := v.Intern("book"), v.Intern(`a"b`)
	c := v.Clone()
	lineSep := c.Intern("x\u2028")
	for _, tc := range []struct {
		t    *Table
		s    Symbol
		want bool
	}{
		{v, Root, true}, {v, plain, true}, {v, quoted, false},
		{c, plain, true}, {c, quoted, false}, {c, lineSep, false},
	} {
		if got := tc.t.JSONPlain(tc.s); got != tc.want {
			t.Errorf("JSONPlain(%q) = %v, want %v", tc.t.Name(tc.s), got, tc.want)
		}
	}
}
