// Package cq implements continuous queries over the engine's document
// catalog: a registered query is re-evaluated after every commit and
// subscribers receive ordered add/remove deltas instead of full result
// sets.
//
// The pipeline is ingest → commit → notify → re-evaluate → diff →
// deliver. Commits arrive from the engine's commit notifier (already
// ordered per document) on a bounded queue drained by a single worker.
// For each watched query the worker first tries the incremental path:
// using the storage.UpdateStats of each mutation it remaps the retained
// result into the new store's ref space and re-matches only the dirty
// candidate region — the edit parent's ancestor chain, the inserted
// interval, and the subtree of the scope-lifted qualifying ancestor
// (see incremental.go). When the region exceeds a configured fraction
// of the document, the commit is untracked, or the plan is not a single
// rooted tree pattern, it falls back to a full re-run; either way the
// new result is diffed positionally against the retained one and the
// delta is fanned out to per-subscriber bounded buffers (slow consumers
// are evicted, long-poll clients replay a per-query delta ring).
package cq

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xqp/internal/compile"
	"xqp/internal/core"
	"xqp/internal/engine"
	"xqp/internal/exec"
	"xqp/internal/storage"
)

// Registry errors, matchable with errors.Is.
var (
	// ErrClosed is returned by operations on a closed registry.
	ErrClosed = errors.New("cq: registry closed")
	// ErrTooManyQueries is returned when the query cap is reached and no
	// idle query can be evicted.
	ErrTooManyQueries = errors.New("cq: too many continuous queries")
	// ErrNotWatchable is returned for queries that cannot be watched
	// (cross-document doc() references).
	ErrNotWatchable = errors.New("cq: query not watchable")
)

// Config sizes the registry; the zero value gives sensible defaults.
type Config struct {
	// Strategy selects the physical τ strategy for full re-evaluations
	// (default auto). The incremental path always uses the navigational
	// oracle — its region-restricted verdicts are strategy-independent.
	Strategy exec.Strategy
	// MaxFullFraction is the dirty-candidate-region size, as a fraction
	// of the document's node count, above which a commit is served by a
	// full re-run instead of region re-matching (default 0.25).
	MaxFullFraction float64
	// RingSize is the number of recent deltas retained per query for
	// long-poll catch-up (default 64).
	RingSize int
	// SubscriberBuffer is the per-subscriber delta channel capacity; a
	// subscriber that falls this far behind is evicted (default 32).
	SubscriberBuffer int
	// MaxQueries caps registered continuous queries; at the cap an idle
	// (subscriber-less) query is evicted to make room (default 256).
	MaxQueries int
	// QueueDepth bounds the commit-notification queue between the
	// engine and the worker (default 1024). An overflowing commit is
	// dropped and counted; affected queries heal on the next commit via
	// the generation-gap check.
	QueueDepth int
}

func (c Config) withDefaults() Config {
	if c.MaxFullFraction <= 0 {
		c.MaxFullFraction = 0.25
	}
	if c.RingSize <= 0 {
		c.RingSize = 64
	}
	if c.SubscriberBuffer <= 0 {
		c.SubscriberBuffer = 32
	}
	if c.MaxQueries <= 0 {
		c.MaxQueries = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	return c
}

// qkey identifies a continuous query: one per (document, query text).
type qkey struct{ doc, src string }

// queuedCommit is one commit notification with its enqueue time (the
// zero point for delta latency).
type queuedCommit struct {
	ev engine.CommitEvent
	at time.Time
}

// Registry is the continuous-query subsystem over one engine. Create
// with New; all methods are safe for concurrent use.
//
// Lock order: Registry.mu before query.mu. The engine's commit notifier
// only enqueues (it runs under the engine's per-document lock and must
// not call back), so no engine lock is ever held together with ours.
type Registry struct {
	eng    *engine.Engine
	cfg    Config
	mu     sync.Mutex
	qs     map[qkey]*query       // guarded by mu
	spans  map[string]*exec.Span // guarded by mu
	closed bool                  // guarded by mu
	events chan queuedCommit
	done   chan struct{}
	wg     sync.WaitGroup
	met    cqMetrics
}

// New returns a Registry wired into the engine's commit notifier and
// starts its delivery worker. Only one registry should be attached to
// an engine at a time (a later SetCommitNotifier replaces the hook).
func New(eng *engine.Engine, cfg Config) *Registry {
	r := &Registry{
		eng:    eng,
		cfg:    cfg.withDefaults(),
		qs:     map[qkey]*query{},
		spans:  map[string]*exec.Span{},
		events: make(chan queuedCommit, cfg.withDefaults().QueueDepth),
		done:   make(chan struct{}),
	}
	eng.SetCommitNotifier(r.enqueue)
	r.wg.Add(1)
	go r.worker()
	return r
}

// enqueue is the engine-side commit hook: it must only queue and
// return (it runs under the engine's per-document write lock).
func (r *Registry) enqueue(ev engine.CommitEvent) {
	select {
	case r.events <- queuedCommit{ev: ev, at: time.Now()}:
	default:
		r.met.dropped.Add(1)
	}
}

// Close detaches the registry from the engine, stops the worker, and
// closes every subscription. Idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	qs := make([]*query, 0, len(r.qs))
	for _, q := range r.qs {
		qs = append(qs, q)
	}
	r.qs = map[qkey]*query{}
	r.mu.Unlock()
	r.eng.SetCommitNotifier(nil)
	close(r.done)
	r.wg.Wait()
	for _, q := range qs {
		q.shutdown()
	}
}

func (r *Registry) worker() {
	defer r.wg.Done()
	for {
		select {
		case qc := <-r.events:
			r.handle(qc)
		case <-r.done:
			return
		}
	}
}

// handle delivers one commit to every query watching the document.
func (r *Registry) handle(qc queuedCommit) {
	ev := qc.ev
	r.mu.Lock()
	var qs []*query
	for k, q := range r.qs {
		if k.doc != ev.Doc {
			continue
		}
		if ev.Closed {
			delete(r.qs, k)
		}
		qs = append(qs, q)
	}
	r.mu.Unlock()
	if ev.Closed {
		for _, q := range qs {
			q.shutdown()
		}
		return
	}
	if len(qs) == 0 {
		return
	}
	span := &exec.Span{
		Label: fmt.Sprintf("cq commit %s gen %d (%d mutations)", ev.Doc, ev.Gen, len(ev.Records)),
		Calls: 1,
	}
	start := time.Now()
	// One dispatcher per commit: all of the document's queries share the
	// snapshot model and the engine's calibrator for this generation.
	rm := newRematcher(ev.Doc, ev.Store, ev.Syn, r.eng)
	for _, q := range qs {
		if child := q.processCommit(qc, &r.met, r.cfg, rm); child != nil {
			span.Children = append(span.Children, child)
			span.Out += child.Out
		}
	}
	span.Dur = time.Since(start)
	r.mu.Lock()
	r.spans[ev.Doc] = span
	r.mu.Unlock()
}

// CommitTrace returns the trace span of the most recent commit
// processed for the document (nil if none): one child per watched
// query, labeled with the path taken (incremental or full with reason)
// and carrying the delta cardinality and wall time.
func (r *Registry) CommitTrace(doc string) *exec.Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[doc]
}

// query is one registered continuous query with its retained result.
type query struct {
	doc, src string
	strategy exec.Strategy
	maxFrac  float64
	ringSize int
	plan     *engine.Plan // immutable after registration
	inc      *incPlan     // immutable after registration; nil → full-only
	incWhy   fallback     // immutable after registration; why inc is nil

	mu    sync.Mutex
	items []item                     // guarded by mu
	gen   uint64                     // guarded by mu
	store *storage.Store             // guarded by mu
	subs  map[*Subscription]struct{} // guarded by mu
	ring  []Delta                    // guarded by mu
	wake  chan struct{}              // guarded by mu (closed and replaced per delta)
	dead  bool                       // guarded by mu
}

// query finds or registers the continuous query for (doc, src),
// serialized against the worker by the registry lock: a new query's
// initial evaluation completes before any later commit is delivered.
func (r *Registry) query(doc, src string) (*query, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	k := qkey{doc: doc, src: src}
	if q, ok := r.qs[k]; ok {
		return q, nil
	}
	if len(r.qs) >= r.cfg.MaxQueries {
		if !r.evictIdle() {
			return nil, fmt.Errorf("%w: %d registered", ErrTooManyQueries, len(r.qs))
		}
	}
	q, err := r.register(doc, src)
	if err != nil {
		return nil, err
	}
	r.qs[k] = q
	return q, nil
}

// evictIdle removes one subscriber-less query to make room; reports
// whether a victim was found. The caller holds r.mu.
func (r *Registry) evictIdle() bool {
	for k, q := range r.qs {
		q.mu.Lock()
		idle := len(q.subs) == 0
		if idle {
			q.dead = true
		}
		q.mu.Unlock()
		if idle {
			delete(r.qs, k)
			r.met.evictedQueries.Add(1)
			return true
		}
	}
	return false
}

// register compiles and fully evaluates a new query against the
// document's current snapshot. The caller holds r.mu, which blocks the
// worker: no commit can interleave with the initial evaluation.
func (r *Registry) register(doc, src string) (*query, error) {
	st, syn, gen, err := r.eng.Snapshot(doc)
	if err != nil {
		return nil, err
	}
	p, err := engine.Prepare(src, compile.Options{}, st, syn)
	if err != nil {
		return nil, fmt.Errorf("cq: compile %q: %w", src, err)
	}
	crossDoc := false
	core.Walk(p.Plan, func(o core.Op) bool {
		if d, ok := o.(*core.DocOp); ok && d.URI != "" {
			crossDoc = true
		}
		return true
	})
	if crossDoc {
		return nil, fmt.Errorf("%w: query references other documents via doc()", ErrNotWatchable)
	}
	inc, why := incrementalPlan(p.Plan)
	items, err := fullEval(doc, st, p, r.cfg.Strategy, newRematcher(doc, st, syn, r.eng))
	if err != nil {
		return nil, fmt.Errorf("cq: initial evaluation of %q: %w", src, err)
	}
	r.met.fullRuns.Add(1)
	r.met.fullBy[fbInitial].Add(1)
	return &query{
		doc: doc, src: src,
		strategy: r.cfg.Strategy,
		maxFrac:  r.cfg.MaxFullFraction,
		ringSize: r.cfg.RingSize,
		plan:     p,
		inc:      inc,
		incWhy:   why,
		items:    items,
		gen:      gen,
		store:    st,
		subs:     map[*Subscription]struct{}{},
		wake:     make(chan struct{}),
	}, nil
}

// shutdown closes every subscription of a query removed from the
// registry (document closed or registry closing).
func (q *query) shutdown() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.dead = true
	for sub := range q.subs {
		close(sub.ch)
	}
	q.subs = map[*Subscription]struct{}{}
}

// processCommit advances one query across one commit and fans the delta
// out. It returns a trace span describing the path taken, or nil when
// the commit predates the query's state.
func (q *query) processCommit(qc queuedCommit, met *cqMetrics, cfg Config, rm *rematcher) *exec.Span {
	q.mu.Lock()
	defer q.mu.Unlock()
	ev := qc.ev
	if q.dead || ev.Gen <= q.gen {
		return nil
	}
	start := time.Now()

	fb := fbNone
	switch {
	case q.inc == nil:
		fb = q.incWhy
	case !ev.Tracked:
		fb = fbUntracked
	case ev.Gen != q.gen+1 || ev.Prev != q.store:
		fb = fbMissed
	}

	// Incremental path: walk the commit's mutation records, remapping
	// retained refs and re-matching only dirty regions.
	var next []item
	fullRematches := rm.full
	if fb == fbNone {
		maxCand := int(q.maxFrac * float64(ev.Store.NodeCount()))
		state := withOrigins(q.items)
		for _, rec := range ev.Records {
			var ok bool
			state, ok = q.inc.step(rec, state, maxCand, q.doc, q.plan, rm)
			if !ok {
				fb = fbThreshold
				break
			}
		}
		if fb == fbNone {
			next = state
		}
	}

	var removed []int
	var added []AddedItem
	if fb == fbNone {
		removed, added = diffByOrig(q.items, next)
		met.incRuns.Add(1)
		if rm.full > fullRematches {
			met.rematchFull.Add(1)
		}
	} else {
		full, err := fullEval(q.doc, ev.Store, q.plan, q.strategy, rm)
		if err != nil {
			// Keep state and generation: the next commit will see the gap
			// and run a healing full re-evaluation.
			met.fullRuns.Add(1)
			met.fullBy[fbError].Add(1)
			return &exec.Span{
				Label: fmt.Sprintf("cq %q full(%s): %v", q.src, fbError, err),
				Calls: 1, Dur: time.Since(start),
			}
		}
		if q.inc != nil && ev.Tracked {
			// Refs survive a tracked commit: join the fresh matches back
			// to old positions for a minimal positional delta.
			old := remapItems(withOrigins(q.items), ev.Records)
			assignOrigins(old, full)
			removed, added = diffByOrig(q.items, full)
		} else {
			removed, added = diffLCS(q.items, full)
		}
		next = full
		met.fullRuns.Add(1)
		met.fullBy[fb].Add(1)
	}
	met.commits.Add(1)

	d := Delta{
		Doc: q.doc, Gen: ev.Gen,
		Removed: removed, Added: added,
		Size:    len(next),
		Full:    fb != fbNone,
		Reason:  fb.String(),
		Latency: time.Since(qc.at).Nanoseconds(),
	}
	q.items = next
	q.gen = ev.Gen
	q.store = ev.Store
	q.ring = append(q.ring, d)
	if len(q.ring) > q.ringSize {
		q.ring = append(q.ring[:0], q.ring[len(q.ring)-q.ringSize:]...)
	}
	close(q.wake)
	q.wake = make(chan struct{})
	for sub := range q.subs {
		if sub.offer(d) {
			met.deltas.Add(1)
			met.deltaItems.Add(int64(len(d.Removed) + len(d.Added)))
		} else {
			// Slow consumer: evict rather than block or buffer unboundedly.
			sub.lagged.Store(true)
			close(sub.ch)
			delete(q.subs, sub)
			met.evictedSubs.Add(1)
		}
	}

	mode := "incremental"
	if fb != fbNone {
		mode = "full(" + fb.String() + ")"
	}
	return &exec.Span{
		Label: fmt.Sprintf("cq %q %s", q.src, mode),
		Calls: 1,
		In:    int64(len(ev.Records)),
		Out:   int64(len(removed) + len(added)),
		Dur:   time.Since(start),
	}
}

// withOrigins copies the retained state, stamping each item's position
// as its origin for this commit's positional diff.
func withOrigins(items []item) []item {
	out := make([]item, len(items))
	for i, it := range items {
		out[i] = item{ref: it.ref, xml: it.xml, orig: i}
	}
	return out
}

// Subscription is one subscriber's delta stream.
type Subscription struct {
	q      *query
	ch     chan Delta
	lagged atomic.Bool
}

// offerGrace bounds how long delivery waits on a full subscriber buffer
// before evicting the subscriber.
const offerGrace = 10 * time.Millisecond

// offer hands d to the subscriber and reports false when its buffer
// stays full for offerGrace. The wait parks the delivering worker, so a
// subscriber that is runnable but starved of a processor (the worker
// and a committing writer busy on two CPUs) drains instead of being
// evicted as slow; one that does not read costs the wait once. The
// caller holds q.mu, which the bound keeps from stalling Close.
func (s *Subscription) offer(d Delta) bool {
	select {
	case s.ch <- d:
		return true
	default:
	}
	t := time.NewTimer(offerGrace)
	defer t.Stop()
	select {
	case s.ch <- d:
		return true
	case <-t.C:
		return false
	}
}

// Deltas returns the subscriber's channel. The first delta is a full
// snapshot of the current result ("initial"); each later delta is one
// commit. The channel closes when the subscription is closed, the
// document or registry closes, or the subscriber is evicted for falling
// behind (check Lagged to distinguish).
func (s *Subscription) Deltas() <-chan Delta { return s.ch }

// Lagged reports whether the subscription was evicted because its
// buffer overflowed; the accumulated state is then incomplete and the
// client should resubscribe.
func (s *Subscription) Lagged() bool { return s.lagged.Load() }

// Close detaches the subscription and closes its channel. Idempotent
// with respect to eviction and registry shutdown.
func (s *Subscription) Close() {
	q := s.q
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.subs[s]; ok {
		delete(q.subs, s)
		close(s.ch)
	}
}

// Subscribe registers (or reuses) the continuous query for (doc, src)
// and attaches a subscriber. The first delivered delta is a full
// snapshot of the current result at the subscribed generation, so
// accumulating every delta from the start reproduces the live result
// exactly.
func (r *Registry) Subscribe(doc, src string) (*Subscription, error) {
	for {
		q, err := r.query(doc, src)
		if err != nil {
			return nil, err
		}
		q.mu.Lock()
		if q.dead {
			// Lost a race with document close or eviction; re-register.
			q.mu.Unlock()
			continue
		}
		sub := &Subscription{q: q, ch: make(chan Delta, r.cfg.SubscriberBuffer)}
		q.subs[sub] = struct{}{}
		sub.ch <- q.snapshotDeltaLocked()
		q.mu.Unlock()
		return sub, nil
	}
}

// snapshotDeltaLocked builds the initial full-state delta. Caller holds
// q.mu.
func (q *query) snapshotDeltaLocked() Delta {
	added := make([]AddedItem, len(q.items))
	for i, it := range q.items {
		added[i] = AddedItem{Index: i, XML: it.xml}
	}
	return Delta{
		Doc: q.doc, Gen: q.gen, Added: added, Size: len(q.items),
		Full: true, Reason: fbInitial.String(),
	}
}

// Result returns the query's current accumulated result and generation,
// registering the query if needed.
func (r *Registry) Result(doc, src string) ([]string, uint64, error) {
	q, err := r.query(doc, src)
	if err != nil {
		return nil, 0, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]string, len(q.items))
	for i, it := range q.items {
		out[i] = it.xml
	}
	return out, q.gen, nil
}

// PollResult is a long-poll response: either a contiguous run of deltas
// after the caller's generation, or (Reset) a full snapshot when the
// caller is too far behind the delta ring — or was never initialized.
type PollResult struct {
	// Gen is the generation the response brings the caller up to.
	Gen uint64 `json:"gen"`
	// Reset reports that Items replaces all client state (Deltas empty);
	// callers pass since=0 to request this explicitly.
	Reset bool `json:"reset,omitempty"`
	// Items is the full serialized result (only when Reset).
	Items []string `json:"items,omitempty"`
	// Deltas are the commits after the caller's generation, in order.
	Deltas []Delta `json:"deltas,omitempty"`
}

// Poll is the long-poll interface: it returns the deltas committed
// after generation since, waiting up to wait for one to arrive when the
// caller is current. since=0 (or a generation older than the retained
// ring) returns a full snapshot with Reset set.
func (r *Registry) Poll(ctx context.Context, doc, src string, since uint64, wait time.Duration) (*PollResult, error) {
	q, err := r.query(doc, src)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(wait)
	for {
		q.mu.Lock()
		if q.dead {
			q.mu.Unlock()
			return nil, ErrClosed
		}
		if since == 0 || since > q.gen {
			res := q.snapshotPollLocked()
			q.mu.Unlock()
			return res, nil
		}
		if q.gen > since {
			ds, ok := q.ringSinceLocked(since)
			if !ok {
				res := q.snapshotPollLocked()
				q.mu.Unlock()
				return res, nil
			}
			gen := q.gen
			q.mu.Unlock()
			return &PollResult{Gen: gen, Deltas: ds}, nil
		}
		wake := q.wake
		gen := q.gen
		q.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return &PollResult{Gen: gen}, nil
		}
		t := time.NewTimer(remain)
		select {
		case <-wake:
			t.Stop()
		case <-t.C:
			return &PollResult{Gen: gen}, nil
		case <-ctx.Done():
			t.Stop()
			return &PollResult{Gen: gen}, nil
		}
	}
}

// snapshotPollLocked builds a Reset response. Caller holds q.mu.
func (q *query) snapshotPollLocked() *PollResult {
	items := make([]string, len(q.items))
	for i, it := range q.items {
		items[i] = it.xml
	}
	return &PollResult{Gen: q.gen, Reset: true, Items: items}
}

// ringSinceLocked returns the retained deltas with Gen > since, in
// order, and reports whether they form a contiguous run from since+1
// (false → the caller is too far behind and needs a Reset). Caller
// holds q.mu.
func (q *query) ringSinceLocked(since uint64) ([]Delta, bool) {
	var out []Delta
	expect := since + 1
	for _, d := range q.ring {
		if d.Gen <= since {
			continue
		}
		if d.Gen != expect {
			return nil, false
		}
		expect++
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, false
	}
	return out, true
}

// cqMetrics holds the registry's counters (atomics: the worker must
// never contend with scrapes).
type cqMetrics struct {
	commits        atomic.Int64
	incRuns        atomic.Int64
	rematchFull    atomic.Int64
	fullRuns       atomic.Int64
	fullBy         [fbCount]atomic.Int64
	deltas         atomic.Int64
	deltaItems     atomic.Int64
	evictedSubs    atomic.Int64
	evictedQueries atomic.Int64
	dropped        atomic.Int64
}

// Stats is a point-in-time snapshot of the registry's counters.
type Stats struct {
	// Queries and Subscribers are instantaneous gauges.
	Queries     int `json:"queries"`
	Subscribers int `json:"subscribers"`
	// Commits counts processed commits across all queries; Incremental
	// and FullRuns partition the evaluation path taken (FullRuns also
	// counts each query's initial evaluation).
	Commits     int64 `json:"commits"`
	Incremental int64 `json:"incremental"`
	FullRuns    int64 `json:"full_runs"`
	// RematchFull counts the incremental commits whose dirty-region
	// re-match the cost model sent to a full evaluation of the plan,
	// filtered to the candidates: work proportional to the document
	// inside a commit that Incremental still counts.
	RematchFull int64 `json:"rematch_full"`
	// FullByReason tallies full re-evaluations by fallback reason.
	FullByReason map[string]int64 `json:"full_by_reason,omitempty"`
	// DeltasDelivered counts deltas handed to subscribers; DeltaItems
	// sums their removed+added cardinalities.
	DeltasDelivered int64 `json:"deltas_delivered"`
	DeltaItems      int64 `json:"delta_items"`
	// EvictedSubscribers counts slow-consumer evictions;
	// EvictedQueries counts idle queries displaced at the cap;
	// DroppedCommits counts notifier-queue overflows.
	EvictedSubscribers int64 `json:"evicted_subscribers"`
	EvictedQueries     int64 `json:"evicted_queries"`
	DroppedCommits     int64 `json:"dropped_commits"`
}

// Stats returns a snapshot of the registry's counters and gauges.
func (r *Registry) Stats() Stats {
	s := Stats{
		Commits:            r.met.commits.Load(),
		Incremental:        r.met.incRuns.Load(),
		RematchFull:        r.met.rematchFull.Load(),
		FullRuns:           r.met.fullRuns.Load(),
		DeltasDelivered:    r.met.deltas.Load(),
		DeltaItems:         r.met.deltaItems.Load(),
		EvictedSubscribers: r.met.evictedSubs.Load(),
		EvictedQueries:     r.met.evictedQueries.Load(),
		DroppedCommits:     r.met.dropped.Load(),
	}
	for f := fallback(1); f < fbCount; f++ {
		if n := r.met.fullBy[f].Load(); n != 0 {
			if s.FullByReason == nil {
				s.FullByReason = map[string]int64{}
			}
			s.FullByReason[f.String()] = n
		}
	}
	r.mu.Lock()
	qs := make([]*query, 0, len(r.qs))
	for _, q := range r.qs {
		qs = append(qs, q)
	}
	r.mu.Unlock()
	s.Queries = len(qs)
	for _, q := range qs {
		q.mu.Lock()
		s.Subscribers += len(q.subs)
		q.mu.Unlock()
	}
	return s
}
