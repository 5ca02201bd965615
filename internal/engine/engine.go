// Package engine is the concurrent query service layer over the xqp
// pipeline: the subsystem that turns the one-document, one-query-at-a-time
// library into a server core (the role RadegastXDB's service shell plays
// around its storage + twig-matching engine).
//
// It owns four things the library layers deliberately do not:
//
//   - a document catalog: named documents, each an immutable
//     (store, synopsis) snapshot with a generation number that is bumped
//     under an exclusive per-document lock on every update or
//     re-registration;
//   - a compiled-plan LRU cache keyed by (document, generation, query
//     text, compile-options fingerprint), so a repeated query skips
//     parse/translate/analyze/rewrite entirely and reuses the analyzer's
//     τ cardinality annotations (Graph.EstCard) across executions;
//   - a worker pool with admission control: at most MaxConcurrent
//     queries execute at once, at most QueueDepth more wait for a slot,
//     and everything beyond that fails fast with ErrSaturated instead of
//     queueing unboundedly;
//   - context plumbing: cancellation and deadlines reach the executor's
//     interrupt hook, so an abandoned query stops mid-scan rather than
//     finishing a multi-second twig match nobody will read.
//
// Metrics are collected lock-free (atomics) and exposed as a Snapshot
// struct and an expvar.Var.
//
// Lock order: Engine.mu before document.mu; neither is held while a
// query executes (queries run against immutable snapshots).
package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xqp/internal/analyze"
	"xqp/internal/compile"
	"xqp/internal/cost/calibrate"
	"xqp/internal/exec"
	"xqp/internal/stats"
	"xqp/internal/storage"
	"xqp/internal/value"
)

// Service errors, matchable with errors.Is.
var (
	// ErrSaturated is returned when both the worker pool and its queue
	// are full; callers should back off and retry.
	ErrSaturated = errors.New("engine: saturated")
	// ErrUnknownDocument is returned for queries against unregistered
	// document names.
	ErrUnknownDocument = errors.New("engine: unknown document")
	// ErrInvalidQuery wraps compilation failures (parse/translate errors
	// in the submitted query text), distinguishing client mistakes from
	// unexpected execution failures.
	ErrInvalidQuery = errors.New("engine: invalid query")
	// ErrTenantQuota is returned when one tenant's in-flight queries
	// reach Config.TenantQuota. Unlike ErrSaturated it indicts a single
	// tenant, not the whole service: other tenants keep being admitted.
	ErrTenantQuota = errors.New("engine: tenant at quota")
)

// Config sizes the service; the zero value gives sensible defaults.
type Config struct {
	// MaxConcurrent bounds simultaneously executing queries
	// (default: GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth bounds queries waiting for a worker slot beyond
	// MaxConcurrent (default: 4×MaxConcurrent; negative: no queue).
	// Admission beyond pool+queue fails fast with ErrSaturated.
	QueueDepth int
	// PlanCacheSize is the maximum number of compiled plans kept across
	// all documents (default: 256; negative: caching disabled).
	PlanCacheSize int
	// DefaultTimeout is applied per query when the caller's context has
	// no deadline of its own (0: none).
	DefaultTimeout time.Duration
	// TrackPages attaches a page-touch accountant to every registered
	// document so Snapshot.PagesTouched reports the modeled I/O volume.
	// Costs one mutex operation per page access; off by default.
	TrackPages bool
	// TenantQuota bounds in-flight (executing + queued) queries per
	// tenant key (QueryOptions.Tenant). A tenant at quota fails fast
	// with ErrTenantQuota before consuming an admission ticket, so one
	// flooding tenant can never starve the others out of the global
	// pool. 0 disables per-tenant admission control.
	TenantQuota int
	// DisableCalibration turns off the per-document cost-model
	// calibration loop (cost/calibrate): no strategy records are
	// accumulated, cost-based choosers run on the static constants
	// only, and Snapshot's calibration counters stay zero. On by
	// default because observation costs one short critical section per
	// τ dispatch and repays it with shape-fitted strategy choice.
	DisableCalibration bool
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.QueueDepth == 0:
		c.QueueDepth = 4 * c.MaxConcurrent
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	}
	switch {
	case c.PlanCacheSize == 0:
		c.PlanCacheSize = 256
	case c.PlanCacheSize < 0:
		c.PlanCacheSize = 0
	}
	return c
}

// document is one catalog entry. The (store, syn, gen) triple is an
// immutable snapshot: readers grab it under RLock and then run unlocked,
// so updates never wait for in-flight queries; they swap the snapshot
// and bump the generation under the write lock. The accountant (when
// page tracking is on) is created once per document and shared across
// store generations, so PagesTouched stays monotonic over updates.
type document struct {
	name string
	mu   sync.RWMutex
	st   *storage.Store      // guarded by mu
	syn  *stats.Synopsis     // guarded by mu
	gen  uint64              // guarded by mu
	acct *storage.Accountant // guarded by mu
	// cal accumulates this document's cost-model calibration (nil when
	// disabled). Like the accountant it survives store replacements so
	// tuning keeps accruing across generations; the pointer is written
	// once before the document is published and never reassigned, and
	// the Calibrator synchronizes itself internally.
	cal *calibrate.Calibrator
}

func (d *document) snapshot() (*storage.Store, *stats.Synopsis, uint64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.st, d.syn, d.gen
}

// Engine is the concurrent query service. Create with New; all methods
// are safe for concurrent use.
type Engine struct {
	cfg  Config
	mu   sync.RWMutex
	docs map[string]*document // guarded by mu
	// lastGen remembers the final generation of closed documents so a
	// re-register of the same name resumes the sequence instead of
	// restarting at 1 — otherwise plan-cache keys (doc, gen, query, fp)
	// compiled against the old content would collide with the new one.
	lastGen map[string]uint64 // guarded by mu
	cache   *planCache
	// tickets bounds admission (executing + queued); slots bounds
	// execution. A query holds a ticket for its whole stay and a slot
	// only while executing.
	tickets chan struct{}
	slots   chan struct{}
	// tenants tracks per-tenant in-flight admissions (nil when
	// Config.TenantQuota is 0).
	tenants *tenantTable
	met     metrics
	// notify holds the commit notifier (see SetCommitNotifier). It is an
	// atomic pointer rather than a mu-guarded field because emission
	// happens while per-document locks are held and installation must
	// not observe lock order with Engine.mu.
	notify atomic.Pointer[func(CommitEvent)]
}

// New returns an Engine with the given configuration.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	var tenants *tenantTable
	if cfg.TenantQuota > 0 {
		tenants = newTenantTable(cfg.TenantQuota)
	}
	return &Engine{
		cfg:     cfg,
		docs:    map[string]*document{},
		lastGen: map[string]uint64{},
		cache:   newPlanCache(cfg.PlanCacheSize),
		tickets: make(chan struct{}, cfg.MaxConcurrent+cfg.QueueDepth),
		slots:   make(chan struct{}, cfg.MaxConcurrent),
		tenants: tenants,
	}
}

// Register parses XML from r and registers (or replaces) it under name.
// Replacing bumps the document's generation, so plans cached against the
// old content can no longer be served.
func (e *Engine) Register(name string, r io.Reader) error {
	st, err := storage.LoadReader(r)
	if err != nil {
		return fmt.Errorf("engine: register %q: %w", name, err)
	}
	e.RegisterStore(name, st)
	return nil
}

// RegisterStore registers (or replaces) an already-loaded store under
// name, building its synopsis. The store must not be mutated afterwards.
func (e *Engine) RegisterStore(name string, st *storage.Store) {
	syn := stats.Build(st)
	e.mu.Lock()
	defer e.mu.Unlock()
	if d, ok := e.docs[name]; ok {
		d.mu.Lock()
		if d.acct != nil {
			st.SetAccountant(d.acct) // keep PagesTouched monotonic across replacements
		}
		prev := d.st
		d.st, d.syn = st, syn
		d.gen++
		// Wholesale replacement: consumers cannot derive the new store from
		// the old, so the commit is untracked (full re-evaluation).
		e.emit(CommitEvent{Doc: name, Gen: d.gen, Prev: prev, Store: st, Syn: syn})
		d.mu.Unlock()
		return
	}
	// New entries are published fully initialized (a concurrent Query or
	// Docs must never snapshot a nil store), with the generation resumed
	// from any previously closed document of the same name.
	var acct *storage.Accountant
	if e.cfg.TrackPages {
		acct = storage.NewAccountant()
		st.SetAccountant(acct)
	}
	var cal *calibrate.Calibrator
	if !e.cfg.DisableCalibration {
		cal = calibrate.New()
	}
	gen := e.lastGen[name] + 1
	e.docs[name] = &document{name: name, st: st, syn: syn, gen: gen, acct: acct, cal: cal}
	e.emit(CommitEvent{Doc: name, Gen: gen, Store: st, Syn: syn})
}

// Update applies an exclusive copy-on-write update to a document: fn
// receives the current store and returns its replacement (e.g. via
// Store.InsertChild / Store.DeleteSubtree). fn is opaque, so the synopsis
// is rebuilt from scratch (Apply edits it instead) and the generation
// bumped under the document's write lock; in-flight queries keep
// executing against the old immutable snapshot.
func (e *Engine) Update(name string, fn func(*storage.Store) (*storage.Store, error)) error {
	d, err := e.lookup(name)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	prev := d.st
	st, err := fn(d.st)
	if err != nil {
		return fmt.Errorf("engine: update %q: %w", name, err)
	}
	if st == nil {
		return fmt.Errorf("engine: update %q: fn returned nil store", name)
	}
	if d.acct != nil {
		st.SetAccountant(d.acct) // shared accountant: PagesTouched never drops backward
	}
	d.st = st
	d.syn = stats.Build(st)
	d.gen++
	e.met.updates.Add(1)
	// fn is an opaque closure: the commit is untracked (no mutation
	// records), so consumers re-evaluate from scratch.
	e.emit(CommitEvent{Doc: name, Gen: d.gen, Prev: prev, Store: st, Syn: d.syn})
	return nil
}

// Close removes a document from the catalog. Cached plans for it become
// unreachable and age out of the LRU; in-flight queries finish normally.
// The final generation is remembered so a later re-register of the same
// name continues the sequence and can never be served those stale plans.
func (e *Engine) Close(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	d, ok := e.docs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDocument, name)
	}
	d.mu.Lock()
	e.lastGen[name] = d.gen
	e.emit(CommitEvent{Doc: name, Gen: d.gen, Prev: d.st, Closed: true})
	d.mu.Unlock()
	delete(e.docs, name)
	return nil
}

// DocInfo describes one catalog entry.
type DocInfo struct {
	Name       string `json:"name"`
	Generation uint64 `json:"generation"`
	Nodes      int    `json:"nodes"`
	Elements   int64  `json:"elements"`
	MaxDepth   int    `json:"max_depth"`
}

// Docs lists the catalog, sorted by name.
func (e *Engine) Docs() []DocInfo {
	e.mu.RLock()
	docs := make([]*document, 0, len(e.docs))
	for _, d := range e.docs {
		docs = append(docs, d)
	}
	e.mu.RUnlock()
	out := make([]DocInfo, 0, len(docs))
	for _, d := range docs {
		st, syn, gen := d.snapshot()
		out = append(out, DocInfo{
			Name:       d.name,
			Generation: gen,
			Nodes:      st.NodeCount(),
			Elements:   syn.ElementCount(),
			MaxDepth:   syn.MaxDepth(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// docSnapshot returns the current store of a catalog document.
func (e *Engine) docSnapshot(name string) (*storage.Store, bool) {
	d, err := e.lookup(name)
	if err != nil {
		return nil, false
	}
	st, _, _ := d.snapshot()
	return st, true
}

func (e *Engine) lookup(name string) (*document, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	d, ok := e.docs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDocument, name)
	}
	return d, nil
}

// Calibrator returns the named document's calibration accumulator, or
// nil when the document is unknown or calibration is disabled.
func (e *Engine) Calibrator(doc string) *calibrate.Calibrator {
	d, err := e.lookup(doc)
	if err != nil {
		return nil
	}
	return d.cal
}

// CalibrationSnapshot serializes the calibration state of every
// registered document as deterministic JSON (document name → calibrate
// state), suitable for persisting across restarts.
func (e *Engine) CalibrationSnapshot() ([]byte, error) {
	e.mu.RLock()
	cals := make(map[string]*calibrate.Calibrator, len(e.docs))
	for name, d := range e.docs {
		if d.cal != nil {
			cals[name] = d.cal
		}
	}
	e.mu.RUnlock()
	states := make(map[string]calibrate.State, len(cals))
	for name, cal := range cals {
		states[name] = cal.Snapshot()
	}
	return json.MarshalIndent(states, "", "  ")
}

// RestoreCalibration loads a CalibrationSnapshot, restoring the state
// of every document present in both the snapshot and the catalog.
// Entries for unknown documents are ignored (register first, restore
// second); an invalid snapshot fails whole without touching any state.
func (e *Engine) RestoreCalibration(data []byte) error {
	var states map[string]json.RawMessage
	if err := json.Unmarshal(data, &states); err != nil {
		return fmt.Errorf("engine: restore calibration: %w", err)
	}
	decoded := make(map[string]calibrate.State, len(states))
	for name, raw := range states {
		s, err := calibrate.DecodeState(raw)
		if err != nil {
			return fmt.Errorf("engine: restore calibration for %q: %w", name, err)
		}
		decoded[name] = s
	}
	for name, s := range decoded {
		d, err := e.lookup(name)
		if err != nil || d.cal == nil {
			continue
		}
		if err := d.cal.Restore(s); err != nil {
			return fmt.Errorf("engine: restore calibration for %q: %w", name, err)
		}
	}
	return nil
}

// calibrationTotals sums the observation and regret counters across the
// catalog for Stats.
func (e *Engine) calibrationTotals() (observed, regret int64) {
	e.mu.RLock()
	cals := make([]*calibrate.Calibrator, 0, len(e.docs))
	for _, d := range e.docs {
		if d.cal != nil {
			cals = append(cals, d.cal)
		}
	}
	e.mu.RUnlock()
	for _, cal := range cals {
		o, r := cal.Stats()
		observed += o
		regret += r
	}
	return observed, regret
}

// QueryOptions configures one query execution.
//
// Every field must either shape the compiled plan — and then be read by
// compileOptions, which feeds the plan-cache fingerprint — or be marked
// execution-only below; cmd/xqvet (cachekey) enforces the split so a new
// knob cannot silently alias cached plans.
//
//xqvet:cachekey consumed-by=compileOptions
type QueryOptions struct {
	// Strategy selects the physical τ implementation (default auto).
	// Execution-only: the plan is strategy-agnostic (dispatch happens per
	// τ operator at run time). xqvet:cachekey exec-only
	Strategy exec.Strategy
	// CostBased is accepted for compatibility and has no effect: with
	// Strategy auto every τ dispatch is cost-chosen. Execution-only.
	// xqvet:cachekey exec-only
	CostBased bool
	// DisableRewrites / DisableAnalyzer ablate pipeline stages (these
	// shape the plan and are part of the cache key).
	DisableRewrites bool
	DisableAnalyzer bool
	// NoCache bypasses the plan cache for this query (both lookup and
	// fill) without disabling it engine-wide; it controls cache use, so
	// it is not itself part of the key. xqvet:cachekey exec-only
	NoCache bool
	// Trace collects an execution trace into Result.Trace. It does not
	// shape the compiled plan, so it is deliberately not part of the
	// plan-cache key (a traced query can hit a plan cached untraced).
	// xqvet:cachekey exec-only
	Trace bool
	// Parallelism is the worker budget for partitioned τ execution
	// (0 or 1: serial; N>1: up to N workers; negative: one per CPU).
	// Like Trace it shapes only physical execution, never the compiled
	// plan, so it is not part of the plan-cache key either.
	// xqvet:cachekey exec-only
	Parallelism int
	// Tenant is the multi-tenancy key for this query ("" is the shared
	// anonymous tenant). It never shapes the compiled plan; it selects
	// the plan-cache partition (each tenant evicts only its own plans)
	// and the admission-quota bucket (Config.TenantQuota).
	// xqvet:cachekey exec-only
	Tenant string
}

func (o QueryOptions) compileOptions() compile.Options {
	return compile.Options{
		DisableAnalyzer: o.DisableAnalyzer,
		DisableRewrites: o.DisableRewrites,
	}
}

// Result is one query's outcome.
type Result struct {
	// Seq is the result sequence. Node items reference the document
	// snapshot the query ran against, which stays valid after updates
	// (stores are immutable).
	Seq value.Sequence
	// Metrics are the physical-operator counters of this run.
	Metrics exec.Metrics
	// Cached reports whether the plan came from the plan cache.
	Cached bool
	// Generation is the document generation the query executed against.
	Generation uint64
	// QueueWait is the time spent waiting for a worker slot; ExecTime is
	// the plan execution time (excluding compile).
	QueueWait time.Duration
	ExecTime  time.Duration
	// Diagnostics are the static analyzer's findings for the plan.
	Diagnostics []analyze.Diagnostic
	// Trace is the execution trace (nil unless QueryOptions.Trace).
	Trace *exec.Span
}

// Query compiles (or fetches from cache) and executes src against the
// named document, honoring ctx cancellation and deadlines throughout:
// while waiting for a worker slot, between operators, and inside long
// pattern-matching scans. Returns ErrSaturated immediately when the pool
// and queue are full.
func (e *Engine) Query(ctx context.Context, doc, src string, opts QueryOptions) (*Result, error) {
	// Per-tenant admission runs before the global ticket pool: a tenant
	// at quota is refused without consuming a ticket, so its overload
	// can never starve other tenants out of admission.
	if e.tenants != nil {
		if !e.tenants.acquire(opts.Tenant) {
			e.met.tenantRejected.Add(1)
			return nil, fmt.Errorf("%w: tenant %q at %d in-flight", ErrTenantQuota, opts.Tenant, e.cfg.TenantQuota)
		}
		defer e.tenants.release(opts.Tenant)
	}
	// Admission: a ticket covers the queue wait + execution; refusal is
	// immediate so overload turns into fast errors, not latency.
	select {
	case e.tickets <- struct{}{}:
	default:
		e.met.rejected.Add(1)
		return nil, fmt.Errorf("%w: %d executing, %d queued", ErrSaturated, len(e.slots), len(e.tickets)-len(e.slots))
	}
	defer func() { <-e.tickets }()

	enqueued := time.Now()
	select {
	case e.slots <- struct{}{}:
	case <-ctx.Done():
		e.met.canceled.Add(1)
		return nil, ctx.Err()
	}
	defer func() { <-e.slots }()
	wait := time.Since(enqueued)
	e.met.queueWaitNanos.Add(wait.Nanoseconds())

	if e.cfg.DefaultTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, e.cfg.DefaultTimeout)
			defer cancel()
		}
	}
	res, err := e.run(ctx, doc, src, opts, wait)
	switch {
	case err == nil:
		e.met.served.Add(1)
		return res, nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		e.met.canceled.Add(1)
		return nil, err
	default:
		e.met.failed.Add(1)
		return nil, err
	}
}

func (e *Engine) run(ctx context.Context, doc, src string, opts QueryOptions, wait time.Duration) (*Result, error) {
	d, err := e.lookup(doc)
	if err != nil {
		return nil, err
	}
	st, syn, gen := d.snapshot()
	if err := ctx.Err(); err != nil {
		return nil, err // deadline may be gone before we compile anything
	}
	p, cached, err := e.compiledPlan(src, doc, gen, opts, st, syn)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	eo := exec.Options{
		Strategy:    opts.Strategy,
		StrictDocs:  true,
		Interrupt:   ctx.Err,
		Trace:       opts.Trace,
		Parallelism: opts.Parallelism,
	}
	p.Bind(&eo, st, syn, d.cal)
	ex := exec.New(st, eo)
	ex.AddDocument(doc, st)
	// Other doc() references resolve against the catalog's current
	// snapshot on first use.
	ex.SetResolver(e.docSnapshot)

	start := time.Now()
	seq, err := ex.Eval(p.Plan, exec.Root())
	elapsed := time.Since(start)
	e.met.observeExec(elapsed)
	e.met.strategyFallbacks.Add(ex.Metrics.StrategyFallbacks)
	e.met.parallelTau.Add(ex.Metrics.ParallelTau)
	e.met.parallelFallbacks.Add(ex.Metrics.ParallelFallbacks)
	for i := range ex.Metrics.TauByStrategy {
		if n := ex.Metrics.TauByStrategy[i]; n != 0 {
			e.met.tauByStrategy[i].Add(n)
		}
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Seq:         seq,
		Metrics:     ex.Metrics,
		Trace:       ex.Trace(),
		Cached:      cached,
		Generation:  gen,
		QueueWait:   wait,
		ExecTime:    elapsed,
		Diagnostics: p.Diagnostics,
	}, nil
}

// compiledPlan returns the plan for (src, doc@gen, opts), consulting the
// cache first. A hit performs zero parse/translate/analyze/rewrite work
// (metrics.compilations counts actual pipeline runs; tests assert on it).
func (e *Engine) compiledPlan(src, doc string, gen uint64, opts QueryOptions, st *storage.Store, syn *stats.Synopsis) (*Plan, bool, error) {
	var key cacheKey
	if e.cache.enabled() && !opts.NoCache {
		key = cacheKey{doc: doc, gen: gen, fp: opts.compileOptions().Fingerprint(), query: src}
		if p, ok := e.cache.get(opts.Tenant, key); ok {
			e.met.cacheHits.Add(1)
			return p, true, nil
		}
		e.met.cacheMisses.Add(1)
	}
	e.met.compilations.Add(1)
	// The cache key carries the generation, so a cached plan is only
	// ever bound to the snapshot it was priced against.
	p, err := Prepare(src, opts.compileOptions(), st, syn)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %w", ErrInvalidQuery, err)
	}
	if e.cache.enabled() && !opts.NoCache {
		e.cache.put(opts.Tenant, key, p)
	}
	return p, false, nil
}
