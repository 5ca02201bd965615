// Auction: XMark-style analytics over the auction-site corpus, comparing
// the physical pattern-matching strategies and the cost-based chooser on
// the same queries.
//
//	go run ./examples/auction
package main

import (
	"fmt"
	"log"
	"time"

	"xqp"
	"xqp/internal/xmark"
)

func main() {
	db := xqp.FromStore(xmark.StoreAuction(8))

	queries := []struct {
		name string
		src  string
	}{
		{"item names per region", `
		  for $r in /site/regions/*
		  return <region name="{name($r)}" items="{count($r/item)}"/>`},
		{"expensive open auctions", `
		  count(/site/open_auctions/open_auction[current > 200])`},
		{"bidders per auction (top by bids)", `
		  for $a in /site/open_auctions/open_auction
		  let $n := count($a/bidder)
		  where $n >= 3
		  order by $n descending
		  return <auction id="{$a/@id}" bids="{$n}"/>`},
		{"people with profile interests", `
		  count(//person[profile/interest])`},
		{"nested description text", `
		  count(//item/description//text)`},
	}

	for _, q := range queries {
		fmt.Printf("--- %s\n", q.name)
		var baseline string
		for _, opt := range []struct {
			label string
			o     xqp.Options
		}{
			{"nok", xqp.Options{Strategy: xqp.NoK}},
			{"twigstack", xqp.Options{Strategy: xqp.TwigStack}},
			{"auto", xqp.Options{}},
		} {
			start := time.Now()
			res, err := db.QueryWith(q.src, opt.o)
			if err != nil {
				log.Fatalf("%s [%s]: %v", q.name, opt.label, err)
			}
			el := time.Since(start)
			x := res.XML()
			status := ""
			if baseline == "" {
				baseline = x
			} else if x != baseline {
				status = "  !! DISAGREES"
			}
			fmt.Printf("  %-10s %8.2fms  %d item(s)%s\n",
				opt.label, float64(el.Microseconds())/1000, res.Len(), status)
		}
		res, _ := db.Query(q.src)
		out := res.XML()
		if len(out) > 160 {
			out = out[:160] + "..."
		}
		fmt.Println("  =>", out)
	}
}
