// Package xqp is an XML query processing and optimization engine: a Go
// implementation of the system described in Ning Zhang's "XML Query
// Processing and Optimization" (EDBT 2004 PhD Workshop).
//
// Documents are stored in a succinct structure-separated layout (balanced
// parentheses + tag symbols + a content store). Queries in an XQuery
// subset (FLWOR, paths, constructors, quantifiers, conditionals) are
// parsed, translated into the paper's logical algebra, optimized by
// rewrite rules (path fusion into tree-pattern matching, predicate
// pushdown), and executed with a choice of physical pattern-matching
// strategies: the NoK navigational matcher, holistic twig joins
// (TwigStack/PathStack), or naive navigation.
//
// Quickstart:
//
//	db, err := xqp.OpenString(`<bib><book><title>T</title></book></bib>`)
//	res, err := db.Query(`for $b in /bib/book return $b/title`)
//	fmt.Println(res.XML()) // <title>T</title>
package xqp

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"xqp/internal/analyze"
	"xqp/internal/compile"
	"xqp/internal/core"
	"xqp/internal/cost/calibrate"
	"xqp/internal/engine"
	"xqp/internal/exec"
	"xqp/internal/rewrite"
	"xqp/internal/stats"
	"xqp/internal/storage"
	"xqp/internal/value"
	"xqp/internal/xmldoc"
)

// Strategy selects the physical tree-pattern-matching implementation.
type Strategy = exec.Strategy

// Physical strategies for tree pattern matching.
const (
	// Auto picks a strategy per pattern (NoK unless a cost chooser is
	// installed).
	Auto = exec.StrategyAuto
	// NoK is the paper's navigational next-of-kin matcher (default).
	NoK = exec.StrategyNoK
	// TwigStack is the holistic twig join baseline.
	TwigStack = exec.StrategyTwigStack
	// PathStack is the holistic path join baseline.
	PathStack = exec.StrategyPathStack
	// Naive is brute-force recursive navigation.
	Naive = exec.StrategyNaive
	// Hybrid evaluates NoK fragments navigationally and glues them with
	// structural joins (the paper's Section 4.2 proposal).
	Hybrid = exec.StrategyHybrid
)

// Options configures compilation and execution.
//
// Fields either shape the compiled plan — and must then be read by
// compileQuery, which forwards them into compile.Options and thus the
// engine's plan-cache fingerprint — or affect execution only and carry
// the exec-only marker; cmd/xqvet (cachekey) enforces the split.
//
//xqvet:cachekey consumed-by=compileQuery
type Options struct {
	// Strategy selects the physical τ implementation (default Auto).
	// xqvet:cachekey exec-only
	Strategy Strategy
	// DisableRewrites turns off all logical optimization (ablation).
	DisableRewrites bool
	// Rewrites selects individual rules when DisableRewrites is false.
	// The zero value means "all rules".
	Rewrites *rewrite.Options
	// NoStepDedup disables duplicate elimination between path steps,
	// reproducing worst-case pipelined evaluation (never use normally).
	// xqvet:cachekey exec-only
	NoStepDedup bool
	// CostBased is accepted for compatibility and has no effect: with
	// Strategy Auto every τ dispatch is chosen by the synopsis-driven
	// cost model (package cost). xqvet:cachekey exec-only
	CostBased bool
	// DisableAnalyzer turns off the static analysis pass (diagnostics,
	// empty-subplan pruning, pattern cardinality annotation) that normally
	// runs between translation and rewriting (ablation).
	DisableAnalyzer bool
	// StrictDocs makes doc() references to unregistered documents an
	// execution error instead of falling back to the default document.
	// xqvet:cachekey exec-only
	StrictDocs bool
	// Trace collects an execution trace (EXPLAIN ANALYZE): Result.Trace
	// holds a span tree mirroring the physical operator tree, with
	// per-operator wall time and cardinalities and per-τ strategy
	// records (estimates, chosen vs. executed strategy, actual work).
	// xqvet:cachekey exec-only
	Trace bool
	// Parallelism bounds the intra-query worker pool for pattern
	// matching: 0 and 1 evaluate serially, N > 1 partitions τ across up
	// to N goroutines, negative resolves to runtime.NumCPU(). Under
	// Strategy Auto the cost model still decides serial vs parallel per
	// dispatch; a forced Strategy parallelizes unconditionally.
	// xqvet:cachekey exec-only
	Parallelism int
	// Calibrate feeds every τ dispatch record on the primary document
	// into the database's calibrator (cost/calibrate) and, under
	// Strategy Auto, lets the fitted scales, batch factor and
	// parallel-degree table tune the chooser. Results are unchanged —
	// only strategy choice is.
	// xqvet:cachekey exec-only
	Calibrate bool
}

// Diagnostic is a static-analyzer finding (see ANALYZER.md for the codes).
type Diagnostic = analyze.Diagnostic

// Database holds a primary document and a catalog of named documents.
//
// Queries run the engine's prepare-and-bind path (see Database.Compile
// and Database.Run): only the primary document is cost-modeled, from a
// synopsis built once when the database is constructed, so under
// Strategy Auto its τ dispatches are cost-chosen while doc() targets
// run NoK.
//
// Concurrency: a Database is safe for concurrent use. Queries
// (Compile/Run/Query/QueryWith) may run in parallel with each other and
// with catalog mutations (AddDocument); each query snapshots the catalog
// at Run time, taking only a read lock.
type Database struct {
	mu sync.RWMutex
	// store is the primary document and syn its synopsis, set at
	// construction and immutable afterwards (reads need no lock); cal
	// is its calibrator, which synchronizes itself.
	store   *storage.Store
	syn     *stats.Synopsis
	cal     *calibrate.Calibrator
	catalog map[string]*storage.Store // guarded by mu
}

// Open loads the primary document from r.
func Open(r io.Reader) (*Database, error) {
	st, err := storage.LoadReader(r)
	if err != nil {
		return nil, err
	}
	return FromStore(st), nil
}

// OpenString loads the primary document from an XML string.
func OpenString(xml string) (*Database, error) {
	return Open(strings.NewReader(xml))
}

// OpenFile loads the primary document from a file; the file name becomes
// its doc() URI.
func OpenFile(path string) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := storage.LoadReader(f)
	if err != nil {
		return nil, err
	}
	st.URI = path
	return FromStore(st), nil
}

// FromStore wraps an existing document store, building its synopsis
// up front. The catalog is populated before the Database is
// constructed, so it is never written outside its lock.
func FromStore(st *storage.Store) *Database {
	catalog := map[string]*storage.Store{}
	var syn *stats.Synopsis
	if st != nil {
		syn = stats.Build(st)
		if st.URI != "" {
			catalog[st.URI] = st
		}
	}
	return &Database{store: st, syn: syn, cal: calibrate.New(), catalog: catalog}
}

// Store exposes the underlying succinct store (for experiments and
// advanced integrations).
func (db *Database) Store() *storage.Store { return db.store }

// AddDocument registers an additional document under a URI for doc().
func (db *Database) AddDocument(uri string, r io.Reader) error {
	st, err := storage.LoadReader(r)
	if err != nil {
		return err
	}
	st.URI = uri
	db.mu.Lock()
	defer db.mu.Unlock()
	db.catalog[uri] = st
	return nil
}

// AddDocumentString registers an additional document from a string.
func (db *Database) AddDocumentString(uri, xml string) error {
	return db.AddDocument(uri, strings.NewReader(xml))
}

// HasDocument reports whether a document is registered under the URI.
func (db *Database) HasDocument(uri string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.catalog[uri]
	return ok
}

// Query is a compiled, optimized query plan.
type Query struct {
	Source string
	Plan   core.Op
	// RewriteStats records which optimization rules fired.
	RewriteStats *rewrite.Stats
	// Diagnostics are the static analyzer's findings for this query (empty
	// when compiled with DisableAnalyzer).
	Diagnostics []Diagnostic
	// Pruned counts the provably-empty subplans the analyzer replaced with
	// empty-sequence constants.
	Pruned int
	opts   Options
	st     *storage.Store
	syn    *stats.Synopsis
	// prep is the prepared plan Run binds: priced against the primary
	// document when compiled with one.
	prep *engine.Plan
}

// Compile parses, translates, analyzes and optimizes a query without a
// bound document: the analyzer performs structural checks only. Use
// Database.Compile for the synopsis-aware checks.
func Compile(src string, opts Options) (*Query, error) {
	return compileQuery(src, opts, nil, nil)
}

// Compile compiles a query against the database's primary document,
// enabling the analyzer's synopsis-based unmatchability checks and
// pattern-cardinality annotation, and prices its τ patterns for the
// cost model.
func (db *Database) Compile(src string, opts Options) (*Query, error) {
	return compileQuery(src, opts, db.store, db.syn)
}

// Calibrator returns the primary document's calibrator. Use it to
// inspect fits or snapshot/restore tuning around process restarts; it
// is safe for concurrent use.
func (db *Database) Calibrator() *calibrate.Calibrator { return db.cal }

// CalibrationStats reports the calibrator's observation and regret
// counters.
func (db *Database) CalibrationStats() (observed, regret int64) { return db.cal.Stats() }

func compileQuery(src string, opts Options, st *storage.Store, syn *stats.Synopsis) (*Query, error) {
	p, err := engine.Prepare(src, compile.Options{
		DisableAnalyzer: opts.DisableAnalyzer,
		DisableRewrites: opts.DisableRewrites,
		Rewrites:        opts.Rewrites,
	}, st, syn)
	if err != nil {
		return nil, err
	}
	return &Query{
		Source:       src,
		Plan:         p.Plan,
		RewriteStats: p.RewriteStats,
		Diagnostics:  p.Diagnostics,
		Pruned:       p.Pruned,
		opts:         opts,
		st:           st,
		syn:          syn,
		prep:         p,
	}, nil
}

// DocURIs returns the distinct doc() URIs the compiled plan references,
// in first-appearance order (the default document's "" is omitted).
func (q *Query) DocURIs() []string {
	seen := map[string]bool{}
	var out []string
	core.Walk(q.Plan, func(o core.Op) bool {
		if d, ok := o.(*core.DocOp); ok && d.URI != "" && !seen[d.URI] {
			seen[d.URI] = true
			out = append(out, d.URI)
		}
		return true
	})
	return out
}

// Analyze runs the static analyzer over a query without binding a
// document and returns its diagnostics (structural checks only).
func Analyze(src string) ([]Diagnostic, error) {
	q, err := Compile(src, Options{})
	if err != nil {
		return nil, err
	}
	return q.Diagnostics, nil
}

// Analyze runs the static analyzer over a query against the database's
// primary document, enabling the synopsis-based checks.
func (db *Database) Analyze(src string) ([]Diagnostic, error) {
	q, err := db.Compile(src, Options{})
	if err != nil {
		return nil, err
	}
	return q.Diagnostics, nil
}

// Explain renders the optimized logical plan.
func (q *Query) Explain() string { return core.Explain(q.Plan) }

// ExplainAnnotated renders the optimized plan with the analyzer's
// type/cardinality annotation per operator (xq -check output).
func (q *Query) ExplainAnnotated() string {
	res := analyze.Analyze(q.Plan, analyze.Options{Store: q.st, Synopsis: q.syn})
	return core.ExplainWith(res.Plan, func(o core.Op) string {
		if a, ok := res.AnnotationOf(o); ok {
			return a.String()
		}
		return ""
	})
}

// Run executes a compiled query against the database. Safe for
// concurrent use: each run gets its own executor over a catalog
// snapshot, with the cost hooks bound to the primary document (the
// calibrator only under Options.Calibrate).
func (db *Database) Run(q *Query) (*Result, error) {
	eo := exec.Options{
		Strategy:    q.opts.Strategy,
		NoStepDedup: q.opts.NoStepDedup,
		StrictDocs:  q.opts.StrictDocs,
		Trace:       q.opts.Trace,
		Parallelism: q.opts.Parallelism,
	}
	var cal *calibrate.Calibrator
	if q.opts.Calibrate {
		cal = db.cal
	}
	q.prep.Bind(&eo, db.store, db.syn, cal)
	db.mu.RLock()
	catalog := make(map[string]*storage.Store, len(db.catalog))
	for uri, st := range db.catalog {
		catalog[uri] = st
	}
	db.mu.RUnlock()
	eng := exec.New(db.store, eo)
	for uri, st := range catalog {
		eng.AddDocument(uri, st)
	}
	seq, err := eng.Eval(q.Plan, exec.Root())
	if err != nil {
		return nil, err
	}
	return &Result{Seq: seq, Metrics: eng.Metrics, Trace: eng.Trace()}, nil
}

// Query compiles and runs a query with default options.
func (db *Database) Query(src string) (*Result, error) {
	return db.QueryWith(src, Options{})
}

// QueryWith compiles and runs a query with explicit options.
func (db *Database) QueryWith(src string, opts Options) (*Result, error) {
	q, err := db.Compile(src, opts)
	if err != nil {
		return nil, err
	}
	return db.Run(q)
}

// Explain compiles a query and renders its optimized plan.
func (db *Database) Explain(src string) (string, error) {
	q, err := db.Compile(src, Options{})
	if err != nil {
		return "", err
	}
	return q.Explain(), nil
}

// ExplainAnalyze compiles and executes a query with tracing enabled,
// and renders the execution trace: per operator the
// call count, output cardinality and wall time, and per τ the cost
// estimates, chosen and executed strategies, and actual work counters.
func (db *Database) ExplainAnalyze(src string) (string, error) {
	res, err := db.QueryWith(src, Options{Trace: true})
	if err != nil {
		return "", err
	}
	if res.Trace == nil {
		return "", fmt.Errorf("xqp: no trace collected")
	}
	return res.Trace.Format(), nil
}

// Result is a query result: a sequence of items.
type Result struct {
	Seq value.Sequence
	// Metrics are the physical-operator counters of the run.
	Metrics exec.Metrics
	// Cached reports whether the plan came from an Engine's plan cache
	// (always false for Database queries).
	Cached bool
	// Generation is the document generation an Engine query ran against.
	Generation uint64
	// QueueWait and ExecTime are filled by Engine queries: time spent
	// waiting for a worker slot and executing the plan.
	QueueWait time.Duration
	ExecTime  time.Duration
	// Diagnostics are the static analyzer's findings (Engine queries).
	Diagnostics []Diagnostic
	// Trace is the execution trace (nil unless Options.Trace /
	// EngineQueryOptions.Trace was set): a span tree mirroring the
	// physical operator tree; see TraceSpan.
	Trace *TraceSpan
}

// TraceSpan is one node of an execution trace; see Options.Trace and
// Database.ExplainAnalyze.
type TraceSpan = exec.Span

// TraceStrategyRecord documents one τ dispatch inside a trace: the cost
// estimates, the chosen vs. executed strategy, and actual work.
type TraceStrategyRecord = exec.StrategyRecord

// Len reports the number of items.
func (r *Result) Len() int { return len(r.Seq) }

// Strings returns the string value of each item.
func (r *Result) Strings() []string {
	out := make([]string, len(r.Seq))
	for i, it := range r.Seq {
		out[i] = it.String()
	}
	return out
}

// xmlBufPool recycles the byte buffers results are serialized into, so
// that once a buffer has grown a result costs a constant number of
// allocations whatever its size.
var xmlBufPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledXMLBuf keeps the buffer of one exceptionally large result
// from staying pooled.
const maxPooledXMLBuf = 1 << 20

func putXMLBuf(p *[]byte, buf []byte) {
	if cap(buf) <= maxPooledXMLBuf {
		*p = buf[:0]
		xmlBufPool.Put(p)
	}
}

// appendItemXML serializes one item: a node as its XML subtree (an
// attribute as name="value"), an atomic value as its string.
func appendItemXML(dst []byte, it value.Item) []byte {
	if n, ok := it.(value.Node); ok {
		return n.Store.AppendXML(dst, n.Ref)
	}
	return append(dst, it.String()...)
}

// XML serializes the result: node items as XML subtrees, atomic items as
// text, separated by spaces between adjacent atomics.
func (r *Result) XML() string {
	p := xmlBufPool.Get().(*[]byte)
	buf := *p
	prevAtomic := false
	for _, it := range r.Seq {
		_, isNode := it.(value.Node)
		if !isNode && prevAtomic {
			buf = append(buf, ' ')
		}
		buf = appendItemXML(buf, it)
		prevAtomic = !isNode
	}
	s := string(buf)
	putXMLBuf(p, buf)
	return s
}

// Items exposes the raw item sequence.
func (r *Result) Items() value.Sequence { return r.Seq }

// XMLItems serializes each result item separately: node items as XML
// subtrees, atomic items as text (one string per item, for API servers).
// All items are serialized into one buffer and converted to a string
// once; the items are substrings of it.
func (r *Result) XMLItems() []string {
	p := xmlBufPool.Get().(*[]byte)
	buf := *p
	ends := make([]int, len(r.Seq))
	for i, it := range r.Seq {
		buf = appendItemXML(buf, it)
		ends[i] = len(buf)
	}
	all := string(buf)
	putXMLBuf(p, buf)
	out := make([]string, len(r.Seq))
	start := 0
	for i, end := range ends {
		out[i] = all[start:end]
		start = end
	}
	return out
}

// AppendJSONItems appends the JSON array of the result's items: the
// bytes encoding/json writes for XMLItems(), HTML escaping on. Each node
// item is serialized by Store.AppendXMLJSON straight into dst, so no
// per-item string and no slice of items is built.
func (r *Result) AppendJSONItems(dst []byte) []byte {
	dst = append(dst, '[')
	for i, it := range r.Seq {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '"')
		if n, ok := it.(value.Node); ok {
			dst = n.Store.AppendXMLJSON(dst, n.Ref)
		} else {
			dst = storage.AppendJSONEscaped(dst, it.String())
		}
		dst = append(dst, '"')
	}
	return append(dst, ']')
}

// PrettyXML serializes node items with two-space indentation (atomic
// items print on their own lines).
func (r *Result) PrettyXML() string {
	var b strings.Builder
	for _, it := range r.Seq {
		n, ok := it.(value.Node)
		if !ok {
			b.WriteString(it.String())
			b.WriteByte('\n')
			continue
		}
		if n.Store.Kind(n.Ref) == xmldoc.KindAttribute {
			b.WriteString(n.Store.XMLString(n.Ref))
			b.WriteByte('\n')
			continue
		}
		d := n.Store.SubtreeDoc(n.Ref)
		b.WriteString(d.IndentXML(d.Root()))
	}
	return strings.TrimRight(b.String(), "\n")
}
