package xqp

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"xqp/internal/xmark"
)

// Attribute result items must be escaped like any other serialized
// attribute: a raw `"` or `&` in the value would end the item's quoted
// value early or start a bogus entity.
func TestAttributeItemsEscaped(t *testing.T) {
	const doc = `<r><a b='x"y&amp;z&lt;'/></r>`
	const want = `b="x&quot;y&amp;z&lt;"`

	db, err := OpenString(doc)
	if err != nil {
		t.Fatal(err)
	}
	res := q(t, db, `//@b`)
	if got := res.XMLItems(); len(got) != 1 || got[0] != want {
		t.Errorf("Database XMLItems = %q, want [%q]", got, want)
	}
	if got := res.XML(); got != want {
		t.Errorf("Database XML = %q, want %q", got, want)
	}

	e := NewEngine(EngineConfig{})
	if err := e.RegisterString("d", doc); err != nil {
		t.Fatal(err)
	}
	eres, err := e.Query(context.Background(), "d", `//@b`)
	if err != nil {
		t.Fatal(err)
	}
	if got := eres.XMLItems(); len(got) != 1 || got[0] != want {
		t.Errorf("Engine XMLItems = %q, want [%q]", got, want)
	}

	// The watch path serializes initial snapshots and re-matched items
	// itself; both must agree with the query path.
	w := NewWatcher(e, WatchConfig{})
	defer w.Close()
	sub, err := w.Subscribe("d", `//@b`)
	if err != nil {
		t.Fatal(err)
	}
	state := (<-sub.Deltas()).Apply(nil)
	if len(state) != 1 || state[0] != want {
		t.Fatalf("initial watch state = %q, want [%q]", state, want)
	}
	if _, err := e.Apply("d", []Mutation{{Op: MutationInsert, Path: "/", XML: `<a b="&quot;&amp;"/>`}}); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-sub.Deltas():
		state = d.Apply(state)
	case <-time.After(5 * time.Second):
		t.Fatal("no delta after apply")
	}
	if len(state) != 2 || state[1] != `b="&quot;&amp;"` {
		t.Fatalf("watch state after insert = %q", state)
	}
}

// XMLItems serializes a whole result into one pooled buffer: once that
// buffer has grown, its allocations (the item slice, the offsets, the
// one string) must not depend on how many items there are or how large
// they are.
func TestXMLItemsAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	item := func(children int) string {
		return `<i n="1"><a>x &amp; y</a>` + strings.Repeat(`<b>z</b>`, children) + `</i>`
	}
	docs := []struct {
		name          string
		items, childs int
	}{
		{"10 small items", 10, 1},
		{"1000 small items", 1000, 1},
		{"10 large items", 10, 500},
	}
	var allocs []float64
	for _, d := range docs {
		db, err := OpenString("<r>" + strings.Repeat(item(d.childs), d.items) + "</r>")
		if err != nil {
			t.Fatal(err)
		}
		res := q(t, db, `/r/i`)
		if res.Len() != d.items {
			t.Fatalf("%s: %d items", d.name, res.Len())
		}
		allocs = append(allocs, testing.AllocsPerRun(50, func() { res.XMLItems() }))
	}
	for i, d := range docs[1:] {
		if allocs[i+1] > allocs[0] {
			t.Errorf("%s: %.0f allocations per XMLItems, %s: %.0f", d.name, allocs[i+1], docs[0].name, allocs[0])
		}
	}
}

// TestConcurrentSerialization serializes results from many goroutines
// at once: items handed out must never share memory with a buffer the
// pool gives to another caller.
func TestConcurrentSerialization(t *testing.T) {
	db := FromStore(xmark.StoreAuction(1))
	var results []*Result
	var want [][]string
	for _, src := range []string{`/site/people/person`, `//item/name`, `//@id`, `count(//item)`} {
		res := q(t, db, src)
		results = append(results, res)
		want = append(want, res.XMLItems())
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (w + i) % len(results)
				got := results[k].XMLItems()
				_ = results[(k+1)%len(results)].XML() // recycles a buffer while got is live
				if strings.Join(got, "\x00") != strings.Join(want[k], "\x00") {
					t.Errorf("worker %d: result %d changed under concurrent serialization", w, k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool
