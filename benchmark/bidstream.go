package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"xqp"
)

// committer is where the writer sends mutation batches, and observer
// where the watcher subscribes and the final check queries: the HTTP
// client for a real run, the in-process stand-in for the traced replay.
type committer interface {
	apply(ctx context.Context, doc string, body []byte) (uint64, error)
}

type observer interface {
	watch(ctx context.Context, doc, query string, onDelta func(xqp.Delta)) error
	query(ctx context.Context, body []byte) ([]byte, error)
}

// bidStream is the write side of a run against one document: a writer
// committing mutation batches, one at a time, and an SSE watcher reading
// the deltas they cause. Every batch inserts one <bidder> under a random open
// auction and deletes bidder[1] of a random auction that has one, so
// the node count stays level and runs are comparable, while auctions
// keep entering and leaving the watched result.
//
// The benchmark mirrors the per-auction bidder counts, which is all the
// watched query depends on, so it knows the right answer at every
// generation: before a batch is sent its generation's answer is
// published for the readers to check against.
type bidStream struct {
	in   *instance
	doc  string
	rng  *rand.Rand
	gen  uint64 // last generation this writer committed (1 after PUT)
	bids []int  // mirror: bidder count per open auction

	mu      sync.Mutex
	answers map[uint64]string    // generation → expected /query prefix
	sentAt  map[uint64]time.Time // generation → when its batch was sent
	recvAt  map[uint64]time.Time // generation → when its delta arrived
	state   []string             // accumulated deltas
	lastGen uint64               // last delta generation seen
	wErr    error                // first watcher-side violation
	arrived chan struct{}        // signalled on every delta
}

// newBidStream starts the mirror at the freshly registered document
// (generation 1); its mutation targets come from the instance's seed.
func newBidStream(in *instance) *bidStream {
	b := &bidStream{
		in:      in,
		doc:     in.docs[in.probeDoc].name,
		rng:     rand.New(rand.NewSource(in.seed ^ 0x5bd1e995)),
		gen:     1,
		bids:    append([]int(nil), in.bidders...),
		answers: map[uint64]string{},
		sentAt:  map[uint64]time.Time{},
		recvAt:  map[uint64]time.Time{},
		arrived: make(chan struct{}, 1),
	}
	b.answers[1] = expectedPrefix(in.watchedAnswer(b.bids))
	return b
}

// answerAt is the expected answer prefix of the watched twig at gen.
func (b *bidStream) answerAt(gen uint64) (string, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a, ok := b.answers[gen]
	return a, ok
}

// nextBatch advances the mirror by one batch and returns its JSON body.
func (b *bidStream) nextBatch() []byte {
	k := b.rng.Intn(len(b.bids))
	b.bids[k]++
	var with []int
	for j, n := range b.bids {
		if n > 0 {
			with = append(with, j)
		}
	}
	j := with[b.rng.Intn(len(with))]
	b.bids[j]--
	bidder := fmt.Sprintf(`<bidder><date>%02d/%02d/2004</date><personref person="person%d"/><increase>%d.00</increase></bidder>`,
		1+b.rng.Intn(12), 1+b.rng.Intn(28), b.rng.Intn(25*b.in.docs[b.in.probeDoc].scale), 1+b.rng.Intn(20))
	body, err := json.Marshal([]xqp.Mutation{
		{Op: xqp.MutationInsert, Path: fmt.Sprintf("/open_auctions/open_auction[%d]", k+1), XML: bidder},
		{Op: xqp.MutationDelete, Path: fmt.Sprintf("/open_auctions/open_auction[%d]/bidder[1]", j+1)},
	})
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return body
}

// commit sends the next batch and returns its latency.
func (b *bidStream) commit(ctx context.Context, c committer) (time.Duration, error) {
	body := b.nextBatch()
	gen := b.gen + 1
	answer := expectedPrefix(b.in.watchedAnswer(b.bids))
	t0 := time.Now()
	b.mu.Lock()
	b.answers[gen] = answer
	b.sentAt[gen] = t0
	b.mu.Unlock()
	got, err := c.apply(ctx, b.doc, body)
	lat := time.Since(t0)
	if err != nil {
		return 0, err
	}
	b.gen = gen
	if got != gen {
		return 0, fmt.Errorf("commit produced generation %d, want %d", got, gen)
	}
	return lat, nil
}

// onDelta is the watcher callback: it demands gapless generations and
// folds the delta into the accumulated result.
func (b *bidStream) onDelta(d xqp.Delta) {
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.lastGen != 0 && d.Gen != b.lastGen+1 && b.wErr == nil {
		b.wErr = fmt.Errorf("delta generations not gapless: %d after %d", d.Gen, b.lastGen)
	}
	next, err := d.ApplyChecked(b.state)
	if err != nil && b.wErr == nil {
		b.wErr = err
	}
	if err == nil {
		b.state = next
	}
	b.lastGen = d.Gen
	b.recvAt[d.Gen] = now
	select {
	case b.arrived <- struct{}{}:
	default:
	}
}

// waitFor blocks until the delta of generation gen has arrived.
func (b *bidStream) waitFor(ctx context.Context, gen uint64) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for {
		b.mu.Lock()
		seen := b.lastGen >= gen
		b.mu.Unlock()
		if seen {
			return nil
		}
		select {
		case <-b.arrived:
		case <-ctx.Done():
			return fmt.Errorf("delta for generation %d never arrived", gen)
		}
	}
}

// writeResult is the write side's share of a run's outcome.
type writeResult struct {
	commits   []time.Duration
	deltas    []float64 // µs from sending a commit to reading its delta
	attempted int
	failed    int
	firstErr  error
}

func (r *writeResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// run drives the write side: it subscribes the watcher on engine (the
// process that holds the document), sends commit n through front for as
// long as next(n) says to (next may wait until the commit is due), then
// checks the deltas — gapless, one per commit, and accumulating to
// exactly what a fresh query answers.
func (b *bidStream) run(ctx context.Context, front committer, engine observer, next func(n int) bool) *writeResult {
	res := &writeResult{}
	b.mu.Lock()
	b.state, b.lastGen = nil, 0 // a new subscription starts from its own snapshot
	b.mu.Unlock()
	wctx, cancel := context.WithCancel(ctx)
	watchDone := make(chan error, 1)
	go func() { watchDone <- engine.watch(wctx, b.doc, watchQuery, b.onDelta) }()
	defer func() {
		cancel()
		<-watchDone
	}()
	// The snapshot delta is the watcher's starting state; commits sent
	// before it arrives would race the subscription.
	if err := b.waitFor(ctx, b.gen); err != nil {
		res.attempted++
		res.fail(fmt.Errorf("watch snapshot: %w", err))
		return res
	}
	first := b.gen + 1
	for n := 0; ctx.Err() == nil && next(n); n++ {
		res.attempted++
		lat, err := b.commit(ctx, front)
		if err != nil {
			res.fail(err)
			// The mirror no longer matches the server; further checks
			// would only repeat this failure.
			return res
		}
		res.commits = append(res.commits, lat)
	}
	// One delta is owed per commit.
	werr := b.waitFor(ctx, b.gen)
	b.mu.Lock()
	for g := first; g <= b.gen; g++ {
		res.attempted++
		at, ok := b.recvAt[g]
		if !ok {
			res.fail(fmt.Errorf("no delta for generation %d", g))
			continue
		}
		res.deltas = append(res.deltas, float64(at.Sub(b.sentAt[g]))/1e3)
	}
	state, wErr := expectedPrefix(b.state), b.wErr
	b.mu.Unlock()
	// The final check is one more operation: accumulated deltas, the
	// mirror, and a fresh evaluation must all agree.
	res.attempted++
	switch {
	case werr != nil:
		res.fail(werr)
	case wErr != nil:
		res.fail(wErr)
	default:
		body, err := engine.query(ctx, queryBody(b.doc, querySpec{src: watchQuery}))
		if err == nil {
			err = checkResponse(body, state)
		}
		if err == nil {
			want, _ := b.answerAt(b.gen)
			err = checkResponse(body, want)
		}
		if err != nil {
			res.fail(fmt.Errorf("accumulated deltas vs fresh query: %w", err))
		}
	}
	return res
}
