package difftest

import (
	"testing"
	"unicode/utf8"

	"xqp"
)

// fuzzDB is the document the equivalence fuzzer queries: small enough
// that even the naive reference evaluates any corpus-shaped query in
// microseconds, with enough structural variety (nested authors/editors,
// attributes, text) to give the matchers distinct work. Shared across
// fuzz executions — the Database is immutable and concurrency-safe.
var fuzzDB = xqp.FromStore(Store("bib", 1))

// FuzzMatchEquivalence feeds arbitrary query text through every
// execution configuration and demands agreement with the serial naive
// reference, then through every metamorphic toggle (rewrites, analyzer,
// path fusion off) and demands agreement with the defaults: the
// strategies all share one rewritten plan, so only the toggles see a
// rewrite that changes an answer. Inputs the reference cannot compile
// or evaluate are skipped — the property under test is equivalence,
// not parser robustness (FuzzParseQuery covers that). Seed corpus:
// testdata/fuzz/FuzzMatchEquivalence.
func FuzzMatchEquivalence(f *testing.F) {
	for _, q := range Queries("bib") {
		f.Add(q.Src)
	}
	f.Add(`//book[price > 20]/author[last]/first`)
	f.Add(`/bib//last`)
	f.Add(`for $a in //author for $e in //editor return ($a/last, $e/last)`)
	// Step predicates the pattern builder cannot capture, and trailing
	// descendant-or-self steps no later vertex consumes.
	f.Add(`//book[editor][not(author)]/title`)
	f.Add(`//book[not(.//last)]/title`)
	f.Add(`//book[contains(author//last, "1")]/title`)
	f.Add(`//book[count(author) > 1]/title`)
	f.Add(`count(//book/author/descendant-or-self::node())`)
	f.Add(`//book[author//self::node() = "Last1"]/title`)
	f.Fuzz(func(t *testing.T, src string) {
		if !utf8.ValidString(src) || len(src) > 96 {
			return
		}
		// Bound range expressions: `1 to 10000000` and nested loops over
		// wide ranges are legitimate queries but not equivalence fodder,
		// and they can eat the fuzz budget materializing sequences.
		digits := 0
		for _, r := range src {
			if r >= '0' && r <= '9' {
				if digits++; digits > 3 {
					return
				}
			} else {
				digits = 0
			}
		}
		if _, err := Run(fuzzDB, src, Reference().Opts); err != nil {
			return // not a runnable query; nothing to compare
		}
		if err := Check(fuzzDB, src); err != nil {
			t.Fatal(err)
		}
		if err := CheckToggles(fuzzDB, src); err != nil {
			t.Fatal(err)
		}
	})
}
