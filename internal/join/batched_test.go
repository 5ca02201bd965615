package join

import (
	"errors"
	"testing"

	"xqp/internal/storage"
	"xqp/internal/tally"
	"xqp/internal/xmark"
)

func streamsEqual(a, b Stream) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchedStreamsMatchCounted: streams built from the one-scan
// interval arrays must yield element-identical results (Ref, Start, End,
// Level) to the FindClose-backed interpreted entry point.
func TestBatchedStreamsMatchCounted(t *testing.T) {
	for _, st := range []*storage.Store{
		storage.MustLoad(bibXML),
		storage.FromDoc(xmark.Auction(2)),
		storage.FromDoc(xmark.Deep(3, 9)),
	} {
		for _, q := range []string{
			"//book//last",
			"//book[author/last]/title",
			"/bib/book[@year]",
			"//title",
			"//item/name",
			"//section/title",
			"//*",
			"//nosuch",
		} {
			g := graphOf(t, q)
			var cw, cb tally.Counters
			want, err := TwigStackCounted(st, g, nil, &cw)
			if err != nil {
				t.Fatalf("%s twig counted: %v", q, err)
			}
			got, err := TwigStackBatched(st, g, nil, &cb)
			if err != nil {
				t.Fatalf("%s twig batched: %v", q, err)
			}
			if !streamsEqual(got, want) {
				t.Fatalf("%s: twig batched %d elems, counted %d", q, len(got), len(want))
			}
		}
	}
}

func TestBatchedStreamsInterrupt(t *testing.T) {
	st := storage.FromDoc(xmark.Auction(2))
	g := graphOf(t, "//item/name")
	boom := errors.New("boom")
	if _, err := TwigStackBatched(st, g, func() error { return boom }, nil); !errors.Is(err, boom) {
		t.Fatalf("twig err = %v, want boom", err)
	}
}
