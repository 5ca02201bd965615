package xqp

import (
	"context"
	"io"
	"strings"
	"time"

	"xqp/internal/engine"
	"xqp/internal/storage"
	"xqp/internal/value"
)

// Engine is the concurrent multi-document query service: a document
// catalog with generation-tracked updates, a compiled-plan LRU cache, a
// bounded worker pool with fast-fail admission control, and
// context-based cancellation that reaches inside long pattern scans.
// All methods are safe for concurrent use. For single-threaded,
// one-document workloads the plain Database API is lighter.
type Engine struct {
	inner *engine.Engine
}

// EngineConfig sizes an Engine; see the field docs. The zero value gives
// GOMAXPROCS workers, a 4×-deep queue, and a 256-plan cache.
type EngineConfig = engine.Config

// EngineQueryOptions configures one Engine query.
type EngineQueryOptions = engine.QueryOptions

// EngineStats is a point-in-time snapshot of an Engine's counters.
type EngineStats = engine.Snapshot

// ExecHistBounds reports the latency-histogram bucket upper bounds
// matching EngineStats.ExecHist (the final bucket is unbounded).
func ExecHistBounds() []time.Duration { return engine.ExecHistBounds() }

// DocInfo describes one catalog entry of an Engine.
type DocInfo = engine.DocInfo

// Service errors, matchable with errors.Is.
var (
	// ErrSaturated reports that the Engine's worker pool and queue are
	// full; back off and retry.
	ErrSaturated = engine.ErrSaturated
	// ErrUnknownDocument reports a query against an unregistered
	// document name.
	ErrUnknownDocument = engine.ErrUnknownDocument
	// ErrInvalidQuery wraps compilation failures in the submitted query
	// text (a client mistake, not an engine fault).
	ErrInvalidQuery = engine.ErrInvalidQuery
	// ErrTenantQuota reports that one tenant's in-flight queries reached
	// EngineConfig.TenantQuota; other tenants keep being admitted.
	ErrTenantQuota = engine.ErrTenantQuota
	// ErrOverflow is XQuery's FOAR0002: an integer literal, an integer
	// operation or an integer sum falls outside the 64-bit range (a
	// property of the query and its data, not an engine fault).
	ErrOverflow = value.ErrOverflow
	// ErrDynamic is matched by XQuery dynamic errors raised while a query
	// runs (a type error, a call of error()): like ErrOverflow, a
	// property of the query and its data, not an engine fault.
	ErrDynamic = value.ErrDynamic
)

// NewEngine creates a concurrent query service.
func NewEngine(cfg EngineConfig) *Engine {
	return &Engine{inner: engine.New(cfg)}
}

// Register parses XML from r and registers (or replaces) it under name.
// Replacing invalidates cached plans via the generation bump.
func (e *Engine) Register(name string, r io.Reader) error {
	return e.inner.Register(name, r)
}

// RegisterString registers an XML string under name.
func (e *Engine) RegisterString(name, xml string) error {
	return e.inner.Register(name, strings.NewReader(xml))
}

// RegisterStore registers an already-loaded store under name. The store
// must not be mutated afterwards.
func (e *Engine) RegisterStore(name string, st *storage.Store) {
	e.inner.RegisterStore(name, st)
}

// Update applies a copy-on-write update to a document: fn maps the
// current store to its replacement (e.g. via Store.InsertChild). The
// synopsis is rebuilt and the generation bumped atomically; in-flight
// queries keep their snapshot.
func (e *Engine) Update(name string, fn func(*storage.Store) (*storage.Store, error)) error {
	return e.inner.Update(name, fn)
}

// Close removes a document from the catalog.
func (e *Engine) Close(name string) error { return e.inner.Close(name) }

// Docs lists the registered documents, sorted by name.
func (e *Engine) Docs() []DocInfo { return e.inner.Docs() }

// Generation reports the named document's current generation number.
func (e *Engine) Generation(name string) (uint64, error) {
	_, _, gen, err := e.inner.Snapshot(name)
	return gen, err
}

// DocXML serializes the named document's current snapshot and reports
// the generation it captures — the transfer format cluster routers use
// to migrate a document between shards.
func (e *Engine) DocXML(name string) (string, uint64, error) {
	st, _, gen, err := e.inner.Snapshot(name)
	if err != nil {
		return "", 0, err
	}
	return st.XMLString(st.Root()), gen, nil
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() EngineStats { return e.inner.Stats() }

// CalibrationSnapshot serializes every document's cost-model
// calibration state (per-shape strategy fits, batched-speed and
// parallel-degree accumulators, observation/regret counters) as
// deterministic JSON. Persist it across restarts and feed it back
// through RestoreCalibration so a service keeps its tuning.
func (e *Engine) CalibrationSnapshot() ([]byte, error) {
	return e.inner.CalibrationSnapshot()
}

// RestoreCalibration loads a CalibrationSnapshot produced by this or a
// previous process. Documents must be registered first; entries for
// unknown documents are ignored, and an invalid snapshot is rejected
// whole without touching any state.
func (e *Engine) RestoreCalibration(data []byte) error {
	return e.inner.RestoreCalibration(data)
}

// Query runs src against the named document with default options,
// honoring ctx cancellation and deadlines throughout (queue wait,
// operator boundaries, and inside long scans).
func (e *Engine) Query(ctx context.Context, doc, src string) (*Result, error) {
	return e.QueryWith(ctx, doc, src, EngineQueryOptions{})
}

// QueryWith runs src against the named document with explicit options.
func (e *Engine) QueryWith(ctx context.Context, doc, src string, opts EngineQueryOptions) (*Result, error) {
	res, err := e.inner.Query(ctx, doc, src, opts)
	if err != nil {
		return nil, err
	}
	return &Result{
		Seq:         res.Seq,
		Metrics:     res.Metrics,
		Trace:       res.Trace,
		Cached:      res.Cached,
		Generation:  res.Generation,
		QueueWait:   res.QueueWait,
		ExecTime:    res.ExecTime,
		Diagnostics: res.Diagnostics,
	}, nil
}
