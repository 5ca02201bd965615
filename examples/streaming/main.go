// Streaming: load a document in one pass (the pre-order storage layout
// coincides with the streaming arrival order), then evaluate path queries
// with per-query I/O accounting — the storage-level view of the system.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"xqp"
	"xqp/internal/core"
	"xqp/internal/storage"
	"xqp/internal/stream"
	"xqp/internal/xmark"
)

func main() {
	// Serialize a corpus, then stream it back in as a byte stream.
	doc := xmark.Auction(8)
	var xml strings.Builder
	if err := doc.WriteXML(&xml, doc.Root()); err != nil {
		log.Fatal(err)
	}
	mb := float64(xml.Len()) / (1 << 20)

	start := time.Now()
	st, err := storage.LoadReader(strings.NewReader(xml.String()))
	if err != nil {
		log.Fatal(err)
	}
	el := time.Since(start)
	fmt.Printf("streamed %.2f MiB into the succinct store in %v (%.1f MB/s)\n",
		mb, el.Round(time.Microsecond), mb/el.Seconds())

	structure, tags, content := st.SizeBytes()
	fmt.Printf("store: %d nodes; structure %.1f KiB, tags %.1f KiB, content %.1f KiB\n",
		st.NodeCount(), float64(structure)/1024, float64(tags)/1024, float64(content)/1024)

	// A path query answered during the stream itself — no store at all.
	g := core.MustPattern(`/site/people/person/name`)
	start = time.Now()
	matches := 0
	if _, err := stream.Eval(strings.NewReader(xml.String()), g, func(m stream.Match) {
		matches++
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstreamed query /site/people/person/name: %d matches in %v (no store built)\n",
		matches, time.Since(start).Round(time.Microsecond))

	// Attach an I/O accountant and run queries, reporting pages touched.
	acct := storage.NewAccountant()
	st.SetAccountant(acct)
	st.SetPageSize(4096)
	db := xqp.FromStore(st)

	for _, q := range []string{
		`/site/regions/africa/item/name`,
		`//person/emailaddress`,
		`count(//bidder)`,
	} {
		acct.Reset()
		start = time.Now()
		res, err := db.Query(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s\n  %d result(s) in %v; %d distinct 4KiB pages touched\n",
			q, res.Len(), time.Since(start).Round(time.Microsecond), acct.Pages())
		out := res.XML()
		if len(out) > 120 {
			out = out[:120] + "..."
		}
		fmt.Println("  =>", out)
	}
}
