// Package vocab provides a tag-name vocabulary that interns element and
// attribute names as dense integer symbols.
//
// The succinct storage scheme stores one symbol per opening parenthesis
// instead of a string, which both shrinks the structure stream and makes
// tag comparisons during pattern matching a single integer compare.
package vocab

import (
	"maps"
	"slices"
	"sort"
)

// Symbol is a dense identifier for an interned name. The zero Symbol is
// reserved for the synthetic document root.
type Symbol int32

// None is returned by Lookup for names that were never interned.
const None Symbol = -1

// Root is the reserved symbol for the synthetic document root.
const Root Symbol = 0

// Table interns names. It is not safe for concurrent mutation; once built
// it may be shared read-only across goroutines.
type Table struct {
	byName map[string]Symbol
	names  []string
	// plain records, per symbol, whether the name is JSON-plain.
	plain []bool
}

// New returns a Table with the reserved root symbol pre-interned.
func New() *Table {
	t := &Table{byName: make(map[string]Symbol, 64)}
	t.Intern("#root")
	return t
}

// Intern returns the symbol for name, assigning a fresh one if needed.
func (t *Table) Intern(name string) Symbol {
	if s, ok := t.byName[name]; ok {
		return s
	}
	s := Symbol(len(t.names))
	t.names = append(t.names, name)
	t.plain = append(t.plain, jsonPlain(name))
	t.byName[name] = s
	return s
}

// jsonPlain reports whether encoding/json, HTML escaping on, writes name
// inside a string unchanged: every byte is ASCII, and none is a control
// byte, a quote, a backslash, '<', '>' or '&'.
func jsonPlain(name string) bool {
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case c < 0x20 || c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// Clone returns an independent copy with the same symbols: interning into
// the copy never changes t. Store generations share one table and clone
// it only when an edit brings a name it lacks (copy on extend), so a
// table, once published with a store, is never mutated.
func (t *Table) Clone() *Table {
	return &Table{byName: maps.Clone(t.byName), names: slices.Clone(t.names), plain: slices.Clone(t.plain)}
}

// Lookup returns the symbol for name, or None if it was never interned.
func (t *Table) Lookup(name string) Symbol {
	if s, ok := t.byName[name]; ok {
		return s
	}
	return None
}

// Name returns the name for a symbol. It panics on out-of-range symbols.
func (t *Table) Name(s Symbol) string { return t.names[s] }

// JSONPlain reports whether the name of s needs no escaping inside a
// JSON string: Intern checks each name once, so a serializer need not
// check every occurrence. It panics on out-of-range symbols.
func (t *Table) JSONPlain(s Symbol) bool { return t.plain[s] }

// Len reports the number of interned names including the root symbol.
func (t *Table) Len() int { return len(t.names) }

// Names returns the interned names in symbol order (index = symbol).
func (t *Table) Names() []string {
	out := make([]string, len(t.names))
	copy(out, t.names)
	return out
}

// SortedNames returns the interned names in lexicographic order; useful for
// deterministic debug output.
func (t *Table) SortedNames() []string {
	out := t.Names()
	sort.Strings(out)
	return out
}

// SizeBytes estimates the in-memory footprint (experiment E1).
func (t *Table) SizeBytes() int {
	n := 0
	for _, s := range t.names {
		n += len(s) + 16
	}
	return n + len(t.names)*8
}
