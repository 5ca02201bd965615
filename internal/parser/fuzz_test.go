package parser

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzParseQuery throws arbitrary input at the parser. Invariants:
// Parse never panics; on success the AST renders without panicking,
// and the rendering re-parses successfully (the printer emits valid
// syntax). Seed corpus: testdata/fuzz/FuzzParseQuery.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range []string{
		"/bib/book/title",
		"//book[author/last = \"Stevens\"]/title",
		"/bib/book[price < 50][@year = 2000]",
		"//open_auction[bidder]/current",
		"/site/regions/*/item/@id",
		"for $b in /bib/book where $b/price > 60 order by $b/title return $b/title",
		"for $b in //book return <e n=\"{count($b/author)}\">{$b/title/text()}</e>",
		"let $x := (1, 2, 3) return sum($x)",
		"doc(\"other.xml\")//entry",
		"1 to 10",
		"ancestor::book/preceding-sibling::title",
		"text()",
		"..//a[not(b)]",
		// One level past MaxDepth: the depth error, not a stack overflow.
		strings.Repeat("(", MaxDepth) + "1" + strings.Repeat(")", MaxDepth),
		"9223372036854775808",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if !utf8.ValidString(src) {
			return // the lexer contract is UTF-8 input
		}
		e, err := Parse(src)
		if err != nil {
			return
		}
		rendered := e.String()
		if _, err := Parse(rendered); err != nil {
			t.Fatalf("printer emitted unparseable syntax:\n  input:    %q\n  rendered: %q\n  error:    %v", src, rendered, err)
		}
	})
}
