package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"xqp"
	"xqp/internal/difftest"
	"xqp/internal/storage"
	"xqp/internal/xmark"
)

// querySpec is one query of a workload's mix.
type querySpec struct {
	src  string
	cost bool // POST with "cost":true (cost-based strategy choice)
}

// request addresses one (document, query) pair of a workload.
type request struct{ doc, query int }

// workload is one traffic mix. Everything the server sees is generated
// here from the seed; the server is told nothing about the workload.
type workload struct {
	name string
	// routed sends requests through xqd -router over two shards.
	routed bool
	// clients is the closed-loop client count; for an open loop it is
	// the in-flight cap and rate is the arrival rate in requests/s.
	clients int
	rate    float64
	// scales lists the xmark.Auction scale of each document, before the
	// seed shuffles which document gets which.
	scales  []int
	queries []querySpec
	// commitRate > 0 runs the bid stream (one writer committing at this
	// many batches per second, one SSE watcher) beside the readers for
	// the whole measured window; the other workloads measure commits in a
	// short probe after it.
	commitRate float64
	// docsMajor sweeps documents in the outer loop and queries in the
	// inner one (the order that defeats an LRU smaller than the working
	// set); otherwise the cycle is a seeded shuffle of all pairs.
	docsMajor bool
	// cycleReps is how many copies of every (doc, query) pair make up
	// the shuffled cycle; warmCycles how many cycles the fixed-count
	// warm-up sends.
	cycleReps  int
	warmCycles int
}

// watchQuery is what the SSE watcher subscribes to, and what the commit
// probe watches on every workload.
const watchQuery = `//open_auction[bidder]/current`

// auctionsPerScale mirrors xmark.Auction: 12 open auctions per scale.
const auctionsPerScale = 12

var workloads = []workload{
	{
		name: "twig_scan", clients: 2, scales: []int{16},
		queries: []querySpec{
			{src: `//open_auction[bidder][initial]/current`},
			{src: `//person[phone]/name`},
			{src: `//item[payment]/name`},
			{src: `//person//name`},
			{src: `count(//item)`},
			{src: `for $a in //open_auction where $a/initial > 95 return $a/current`},
		},
		cycleReps: 50, warmCycles: 1,
	},
	{
		name: "plan_churn", clients: 2, scales: mixedScales(64),
		queries: []querySpec{
			{src: `/site/people/person[profile]/name`, cost: true},
			{src: `//person[homepage]/emailaddress`, cost: true},
			{src: `//item[location = "asia"]/name`, cost: true},
			{src: `count(/site/regions/*/item/quantity)`, cost: true},
			{src: `//open_auction[bidder]/current`, cost: true},
			{src: `for $a in //open_auction where $a/initial > 90 return $a/current`, cost: true},
			{src: `count(//listitem//parlist/listitem/text)`, cost: true},
			{src: `//item[@id = "item_asia_3"]/name`, cost: true},
		},
		docsMajor: true, cycleReps: 1, warmCycles: 1,
	},
	{
		name: "bulk_result", clients: 2, scales: []int{8},
		queries: []querySpec{
			{src: `/site/regions/*/item`},
			{src: `/site/people/person`},
			{src: `/site/open_auctions/open_auction`},
		},
		cycleReps: 50, warmCycles: 1,
	},
	{
		name: "bid_stream", clients: 1, scales: []int{4}, commitRate: 50,
		queries: []querySpec{
			{src: `//open_auction[bidder][initial]/current`},
			{src: `//person//name`},
		},
		cycleReps: 50, warmCycles: 2,
	},
	{
		name: "routed_open", routed: true, clients: 2, rate: 500, scales: sameScale(16, 1),
		queries: []querySpec{
			{src: `/site/people/person[@id = "person3"]/name`},
			{src: `//item[@id = "item_asia_2"]/name`},
			{src: `/site/open_auctions/open_auction[@id = "open_auction5"]/current`},
			{src: `count(//bidder)`},
		},
		cycleReps: 4, warmCycles: 2,
	},
}

// mixedScales is n documents, half at scale 1 and half at scale 2: the
// seed decides which documents are the large ones, the total stays put
// so runs on different seeds do the same amount of work.
func mixedScales(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = 1 + i%2
	}
	return s
}

func sameScale(n, scale int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = scale
	}
	return s
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// document is one generated input document with its oracle store.
type document struct {
	name  string
	scale int
	xml   string
	store *storage.Store // loaded from xml, exactly as the server loads it
}

// instance is a workload bound to a seed: the generated documents, the
// request cycle, and the expected answer of every pair.
type instance struct {
	w     *workload
	seed  int64
	docs  []document
	cycle []request
	// expect[doc][query] is the byte prefix every correct response to
	// that pair starts with: {"items":[...],"count":N
	expect [][]string
	// probeDoc is the document commits go to: the first one at the
	// workload's first listed scale, so that commit cost does not depend
	// on which documents the seed made the large ones.
	probeDoc int
	// currents holds the serialized <current> of each open auction of
	// the probe document, in document order; with the per-auction bidder
	// counts it yields the watched query's answer at any generation.
	currents []string
	bidders  []int
}

// newInstance generates a workload's inputs from the seed and computes
// every expected answer with the serial naive matcher, the oracle
// internal/difftest holds all other strategies to.
func newInstance(w *workload, seed int64) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &instance{w: w, seed: seed}

	scales := append([]int(nil), w.scales...)
	rng.Shuffle(len(scales), func(i, j int) { scales[i], scales[j] = scales[j], scales[i] })
	byScale := map[int]document{}
	for i, sc := range scales {
		d, ok := byScale[sc]
		if !ok {
			xd := xmark.Auction(sc)
			d = document{scale: sc, xml: xd.XMLString(xd.Root())}
			st, err := storage.LoadString(d.xml)
			if err != nil {
				return nil, fmt.Errorf("loading generated auction(%d): %w", sc, err)
			}
			d.store = st
			byScale[sc] = d
		}
		d.name = "d" + strconv.Itoa(i)
		in.docs = append(in.docs, d)
	}

	answers := map[int][]string{} // scale → expected prefix per query
	for sc, d := range byScale {
		db := xqp.FromStore(d.store)
		for _, q := range w.queries {
			items, err := oracle(db, q.src)
			if err != nil {
				return nil, fmt.Errorf("oracle for %q on auction(%d): %w", q.src, sc, err)
			}
			answers[sc] = append(answers[sc], expectedPrefix(items))
		}
	}
	for _, d := range in.docs {
		in.expect = append(in.expect, answers[d.scale])
	}

	for in.docs[in.probeDoc].scale != w.scales[0] {
		in.probeDoc++
	}
	// The probe document's open auctions, by navigation: serialized
	// <current> and bidder count of each, in document order.
	st := in.docs[in.probeDoc].store
	for _, a := range st.ElementRefs("open_auction") {
		n := 0
		for c := st.FirstChild(a); c != storage.NilRef; c = st.NextSibling(c) {
			switch st.Name(c) {
			case "bidder":
				n++
			case "current":
				in.currents = append(in.currents, st.XMLString(c))
			}
		}
		in.bidders = append(in.bidders, n)
	}
	if want := auctionsPerScale * w.scales[0]; len(in.currents) != want || len(in.bidders) != want {
		return nil, fmt.Errorf("auction(%d) has %d open auctions with a <current>, want %d", w.scales[0], len(in.currents), want)
	}

	var pairs []request
	for d := range in.docs {
		for q := range w.queries {
			for r := 0; r < w.cycleReps; r++ {
				pairs = append(pairs, request{doc: d, query: q})
			}
		}
	}
	if !w.docsMajor {
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	}
	in.cycle = pairs
	return in, nil
}

// oracle evaluates src under internal/difftest's reference
// configuration (the serial naive matcher) and serializes the items the
// way xqd does.
func oracle(db *xqp.Database, src string) ([]string, error) {
	res, err := db.QueryWith(src, difftest.Reference().Opts)
	if err != nil {
		return nil, err
	}
	return res.XMLItems(), nil
}

// expectedPrefix renders items the way xqd's /query response begins.
// encoding/json writes struct fields in order, and an unescaped
// `,"cached":` cannot occur inside a JSON string, so comparing a
// response up to that marker checks count and every item byte for byte
// without the client paying to decode the items.
func expectedPrefix(items []string) string {
	if items == nil {
		items = []string{}
	}
	b, err := json.Marshal(struct {
		Items []string `json:"items"`
		Count int      `json:"count"`
	}{items, len(items)})
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	return string(b[:len(b)-1])
}

// watchedAnswer is the watched query's expected result given per-auction
// bidder counts: the <current> of every auction that has a bidder.
func (in *instance) watchedAnswer(bidders []int) []string {
	out := []string{}
	for k, n := range bidders {
		if n > 0 {
			out = append(out, in.currents[k])
		}
	}
	return out
}

// xmlBytes is the total input size of the instance's documents.
func (in *instance) xmlBytes() int {
	n := 0
	for _, d := range in.docs {
		n += len(d.xml)
	}
	return n
}

// storeBytesPerXMLByte is Σ Store.SizeBytes / Σ input bytes over the
// documents: the succinct-storage claim as one deterministic ratio.
func (in *instance) storeBytesPerXMLByte() float64 {
	total := 0
	for _, d := range in.docs {
		s, t, c := d.store.SizeBytes()
		total += s + t + c
	}
	return float64(total) / float64(in.xmlBytes())
}
