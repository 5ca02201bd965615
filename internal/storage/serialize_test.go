package storage_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"xqp/internal/difftest"
	"xqp/internal/storage"
	"xqp/internal/xmldoc"
)

// domXML is the reference serialization: copy the subtree into an
// xmldoc tree and serialize that.
func domXML(st *storage.Store, n storage.NodeRef) string {
	d := st.SubtreeDoc(n)
	return d.XMLString(d.Root())
}

// checkEveryNode compares AppendXML with the reference on every node,
// and AppendXMLJSON with encoding/json's escaping of that XML, appending
// to a non-empty buffer to check that both only append.
func checkEveryNode(t *testing.T, label string, st *storage.Store) {
	t.Helper()
	const prefix = "prefix"
	for n := storage.NodeRef(0); int(n) < st.NodeCount(); n++ {
		got := string(st.AppendXML([]byte(prefix), n))
		want := prefix + domXML(st, n)
		if got != want {
			t.Fatalf("%s: node %d (%v): AppendXML = %q, DOM path = %q", label, n, st.Kind(n), got[len(prefix):], want[len(prefix):])
		}
		quoted, err := json.Marshal(want[len(prefix):])
		if err != nil {
			t.Fatal(err)
		}
		wantJSON := prefix + string(quoted[1:len(quoted)-1])
		if got := string(st.AppendXMLJSON([]byte(prefix), n)); got != wantJSON {
			t.Fatalf("%s: node %d (%v): AppendXMLJSON = %q, encoding/json = %q", label, n, st.Kind(n), got[len(prefix):], wantJSON[len(prefix):])
		}
	}
}

func TestAppendXMLMatchesDOMOnCorpora(t *testing.T) {
	for _, family := range difftest.Families {
		for scale := 1; scale <= 2; scale++ {
			checkEveryNode(t, fmt.Sprintf("%s-%d", family, scale), difftest.Store(family, scale))
		}
	}
}

// TestAppendXMLHandCases pins the DOM path's quirks on stores built
// directly, including content no XML parser produces.
func TestAppendXMLHandCases(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *storage.Builder)
		want  string // serialization of the whole document
	}{
		{"empty text child", func(b *storage.Builder) {
			b.StartElement("a")
			b.Text("")
			b.EndElement()
		}, `<a/>`},
		{"attribute after empty text stays in the start tag", func(b *storage.Builder) {
			b.StartElement("a")
			b.Text("")
			b.Attr("x", "1")
			b.EndElement()
		}, `<a x="1"/>`},
		{"attribute after content is dropped", func(b *storage.Builder) {
			b.StartElement("a")
			b.Attr("x", "1")
			b.Text("t")
			b.Attr("y", "2")
			b.Text("u")
			b.EndElement()
		}, `<a x="1">tu</a>`},
		{"only attributes", func(b *storage.Builder) {
			b.StartElement("a")
			b.Attr("x", `1<2 & "3"`)
			b.Attr("y", "")
			b.EndElement()
		}, `<a x="1&lt;2 &amp; &quot;3&quot;" y=""/>`},
		{"comment and PI", func(b *storage.Builder) {
			b.StartElement("a")
			b.Comment(" c&<> ")
			b.PI("p", "d=1")
			b.StartElement("b")
			b.Comment("")
			b.EndElement()
			b.EndElement()
		}, `<a><!-- c&<> --><?p d=1?><b><!----></b></a>`},
		{"invalid UTF-8", func(b *storage.Builder) {
			b.StartElement("a")
			b.Attr("x", "\xff\"")
			b.Text("ok\xc3(é\xed\xa0\x80<")
			b.EndElement()
		}, "<a x=\"\uFFFD&quot;\">ok\uFFFD(é\uFFFD\uFFFD\uFFFD&lt;</a>"},
		{"adjacent texts merge before decoding", func(b *storage.Builder) {
			b.StartElement("a")
			b.Text("\xe2\x82")
			b.Text("")
			b.Text("\xac")
			b.Comment("")
			b.Text("\xe2")
			b.EndElement()
		}, "<a>€<!---->\uFFFD</a>"},
		{"quotes in text", func(b *storage.Builder) {
			b.StartElement("a")
			b.Text(`"q" > p`)
			b.EndElement()
		}, `<a>"q" &gt; p</a>`},
		{"content JSON escapes", func(b *storage.Builder) {
			b.StartElement("a")
			b.Attr("x", "\\\u2028\t\x01\x7f\xfe")
			b.Text("\"\\\b\f\n\r\t\x00\x1f\u2028\u2029\xff&é")
			b.Comment("\"\\<\u2029\x02\xc3(&>")
			b.PI("p", "\\\xe2\x80\"")
			b.StartElement("b\u2028")
			b.Attr("y\\", "\xed\xa0\x80")
			b.EndElement()
			b.EndElement()
		}, "<a x=\"\\\u2028\t\x01\x7f\uFFFD\">\"\\\b\f\n\r\t\x00\x1f\u2028\u2029\uFFFD&amp;é" +
			"<!--\"\\<\u2029\x02\xc3(&>--><?p \\\xe2\x80\"?><b\u2028 y\\=\"\uFFFD\uFFFD\uFFFD\"/></a>"},
	}
	for _, c := range cases {
		b := storage.NewBuilder(nil)
		c.build(b)
		st := b.Build()
		if got := st.XMLString(st.Root()); got != c.want {
			t.Errorf("%s: XMLString = %q, want %q", c.name, got, c.want)
		}
		checkEveryNode(t, c.name, st)
	}
}

// TestAppendXMLJSONFlaggedNames: names that the JSON escaper rewrites
// are flagged as not plain by the vocabulary and serialized through the
// escaper, the others are flagged plain and copied.
func TestAppendXMLJSONFlaggedNames(t *testing.T) {
	b := storage.NewBuilder(nil)
	b.StartElement("a")
	b.Attr("x", "1")
	b.Attr("y&", "2")
	b.PI("p<", "d")
	b.StartElement("b\u2028")
	b.StartElement(`q"`)
	b.StartElement("c\x01\xff")
	b.EndElement()
	b.EndElement()
	b.EndElement()
	b.EndElement()
	st := b.Build()
	for name, plain := range map[string]bool{
		"a": true, "@x": true,
		"@y&": false, "?p<": false, "b\u2028": false, `q"`: false, "c\x01\xff": false,
	} {
		sym := st.Vocab.Lookup(name)
		if sym < 0 {
			t.Fatalf("%q not interned", name)
		}
		if got := st.Vocab.JSONPlain(sym); got != plain {
			t.Errorf("JSONPlain(%q) = %v, want %v", name, got, plain)
		}
	}
	checkEveryNode(t, "flagged names", st)
}

// TestAppendXMLAfterUpdates runs random insert/delete sequences, which
// leave adjacent text siblings, trailing attributes and text directly
// under elements that had none, and compares every node after each step.
func TestAppendXMLAfterUpdates(t *testing.T) {
	frags := []func() *xmldoc.Document{
		func() *xmldoc.Document { return xmldoc.MustParse(`<n k="v&amp;">z<m/>"</n>`) },
		func() *xmldoc.Document { b := xmldoc.NewBuilder(); b.Text("x&y"); return b.Build() },
		func() *xmldoc.Document { b := xmldoc.NewBuilder(); b.Text("\xe2\x82"); return b.Build() },
		func() *xmldoc.Document { b := xmldoc.NewBuilder(); b.Text("\xac"); return b.Build() },
		func() *xmldoc.Document { b := xmldoc.NewBuilder(); b.Attr("late", `"`); return b.Build() },
		func() *xmldoc.Document { b := xmldoc.NewBuilder(); b.Comment("c"); return b.Build() },
	}
	const start = `<r a="1">t1<b c="2">t2<i>t3</i>t4</b>t5<!--c--><?p d?>t6<e/></r>`
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := storage.MustLoad(start)
		for step := 0; step < 12; step++ {
			var err error
			if rng.Intn(2) == 0 && st.NodeCount() > 3 {
				// Keep the document element: delete below it.
				st, _, err = st.DeleteSubtree(storage.NodeRef(2 + rng.Intn(st.NodeCount()-2)))
			} else {
				var parents []storage.NodeRef
				for n := storage.NodeRef(1); int(n) < st.NodeCount(); n++ {
					if st.Kind(n) == xmldoc.KindElement {
						parents = append(parents, n)
					}
				}
				st, _, err = st.InsertChild(parents[rng.Intn(len(parents))], frags[rng.Intn(len(frags))]())
			}
			if err != nil {
				t.Fatal(err)
			}
			checkEveryNode(t, fmt.Sprintf("seed %d step %d", seed, step), st)
		}
	}
}

func TestAppendXMLChargesAccountant(t *testing.T) {
	st := difftest.Store("bib", 1)
	a := storage.NewAccountant()
	st.SetAccountant(a)
	defer st.SetAccountant(nil)
	st.AppendXML(nil, st.DocumentElement())
	if a.Pages() == 0 || a.TouchCount() < int64(st.NodeCount()) {
		t.Fatalf("accountant saw %d pages, %d touches for %d nodes", a.Pages(), a.TouchCount(), st.NodeCount())
	}
}

// FuzzAppendXML loads arbitrary documents and compares AppendXML with
// the DOM path, and AppendXMLJSON with encoding/json, on every node.
func FuzzAppendXML(f *testing.F) {
	f.Add(`<a/>`)
	f.Add(`<a x="1&amp;&quot;">t<b>u</b>v<!--c--><?p q?></a>`)
	f.Add(`<a>&lt;&#xe9;<![CDATA[x<y]]>z</a>`)
	f.Add(`<a><b/>  <c>  t  </c></a>`)
	f.Add("<a x='\\&#x2028;\"'>\"\\&#x2029;&#9;\u00e9<!--\"\\--><?p \\?></a>")
	f.Fuzz(func(t *testing.T, doc string) {
		if len(doc) > 4096 {
			return
		}
		st, err := storage.LoadString(doc)
		if err != nil {
			return
		}
		checkEveryNode(t, "fuzz", st)
	})
}
