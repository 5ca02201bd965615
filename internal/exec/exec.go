// Package exec is the physical execution engine: it evaluates logical
// plans (package core) against succinct document stores, choosing among
// the physical implementations of τ — the NoK navigational matcher, the
// holistic TwigStack/PathStack joins, or naive navigation — and
// implementing the remaining operators (Env-based FLWOR evaluation, γ
// construction, πs step navigation, comparisons, and calls of the
// builtin evaluators of package builtin).
package exec

import (
	"fmt"
	"runtime"
	"time"

	"xqp/internal/ast"
	"xqp/internal/batch"
	"xqp/internal/builtin"
	"xqp/internal/core"
	"xqp/internal/join"
	"xqp/internal/naive"
	"xqp/internal/nok"
	"xqp/internal/pattern"
	"xqp/internal/storage"
	"xqp/internal/tally"
	"xqp/internal/value"
)

// Strategy selects the physical τ implementation.
type Strategy uint8

const (
	// StrategyAuto lets the engine choose (NoK for local patterns,
	// TwigStack when the pattern is descendant-heavy; see package cost).
	StrategyAuto Strategy = iota
	// StrategyNoK forces the navigational NoK matcher.
	StrategyNoK
	// StrategyTwigStack forces the holistic twig join.
	StrategyTwigStack
	// StrategyPathStack forces PathStack (non-branching patterns only;
	// branching patterns fall back to TwigStack).
	StrategyPathStack
	// StrategyNaive forces naive recursive navigation.
	StrategyNaive
	// StrategyHybrid partitions the pattern into NoK fragments evaluated
	// navigationally over tag-index candidates, glued by structural
	// joins (the paper's Section 4.2 proposal).
	StrategyHybrid
)

func (s Strategy) String() string {
	return [...]string{"auto", "nok", "twigstack", "pathstack", "naive", "hybrid"}[s]
}

// Options configures an Engine.
type Options struct {
	Strategy Strategy
	// Parallelism bounds the intra-query worker pool for τ dispatch:
	// 0 and 1 evaluate serially, N > 1 partitions pattern matching
	// across up to N goroutines, and a negative value resolves to
	// runtime.NumCPU(). With a cost-model Chooser installed the model
	// still decides serial vs parallel per dispatch (Choice.Parallel);
	// a forced strategy parallelizes unconditionally. Explicit values
	// above NumCPU are honored (capped at MaxParallelism) so the
	// partitioned machinery stays exercisable on small machines.
	Parallelism int
	// NoStepDedup disables document-order deduplication between path
	// steps, reproducing the worst-case exponential behaviour of purely
	// pipelined evaluation (experiment E6). Never enable in production.
	NoStepDedup bool
	// Chooser, when non-nil and Strategy is StrategyAuto, picks the
	// strategy per τ invocation (wired to the cost model). rootAnchored
	// reports whether the context is exactly the document root — the
	// executor can only run the holistic join matchers there, so a
	// model must not recommend them for other contexts.
	Chooser func(st *storage.Store, g *pattern.Graph, rootAnchored bool) Choice
	// Estimator, when non-nil and strategy records are being built
	// (tracing or a Record hook), supplies cost estimates for the
	// records even when no Chooser is installed (so a trace shows
	// estimated-vs-actual without changing the executed plan). It is
	// not consulted for strategy choice.
	Estimator func(st *storage.Store, g *pattern.Graph) *CostEstimate
	// Record, when non-nil, receives the strategy record of every τ
	// dispatch (one per distinct store per evaluation) together with
	// the store and pattern it served, independently of Trace. It is
	// the feed for the cost-model calibration layer (cost/calibrate);
	// the record is complete (actuals, partitions, wall time) by the
	// time the hook runs, and the hook must not retain the graph.
	Record func(st *storage.Store, g *pattern.Graph, rec *StrategyRecord)
	// Trace enables execution-trace collection: each top-level Eval
	// builds a Span tree (see Trace()) mirroring the operator tree,
	// with per-τ strategy records and actual-work counters.
	Trace bool
	// Interrupt, when non-nil, is polled at operator boundaries, between
	// navigation steps, and periodically inside every matcher's scan
	// loops (NoK, naive and the join-based algorithms alike); the first
	// non-nil error aborts the evaluation with that error. Wire it to
	// context.Context.Err to get cancellation and deadlines (the engine
	// service does).
	Interrupt func() error
	// StrictDocs makes doc() references to unknown URIs an error instead
	// of falling back to the default document (the legacy single-document
	// leniency).
	StrictDocs bool
}

// NumStrategies is the number of Strategy values (for per-strategy
// counter arrays).
const NumStrategies = 6

// Metrics counts physical operator invocations for the experiments.
type Metrics struct {
	TPMCalls  int64 // τ evaluations
	StepCalls int64 // πs single-step navigations
	JoinCalls int64 // structural-join invocations (inside Twig/PathStack)
	CtorCalls int64 // γ evaluations
	EnvLeaves int64 // total FLWOR bindings enumerated
	PredEvals int64 // predicate evaluations
	// StrategyFallbacks counts τ dispatches where the chosen strategy
	// could not run (join matchers on a non-root-anchored context,
	// PathStack on a branching pattern) and another was executed.
	StrategyFallbacks int64
	// TauByStrategy counts τ dispatches per *executed* strategy,
	// indexed by Strategy (TauByStrategy[StrategyAuto] stays 0).
	TauByStrategy [NumStrategies]int64
	// ParallelTau counts τ dispatches that fanned out over partitions;
	// ParallelFallbacks counts dispatches where parallelism was
	// requested but the matcher ran serially (no useful partitioning,
	// or the strategy has no parallel mode).
	ParallelTau       int64
	ParallelFallbacks int64
	// BatchedTau counts τ dispatches executed by the compiled batch
	// kernels.
	BatchedTau int64
}

// MaxParallelism is the hard cap on Options.Parallelism: a backstop
// against absurd worker pools, far above any useful fan-out.
const MaxParallelism = 64

// Workers resolves an Options.Parallelism value to the worker bound for
// one τ dispatch (1 means serial). The cost model must price the same
// bound the executor runs.
func Workers(p int) int {
	if p < 0 {
		p = runtime.NumCPU()
	}
	if p > MaxParallelism {
		p = MaxParallelism
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Engine evaluates plans against a catalog of documents.
type Engine struct {
	opts    Options
	def     *storage.Store
	catalog map[string]*storage.Store
	// resolve looks up a doc() URI the catalog lacks; see SetResolver.
	resolve func(uri string) (*storage.Store, bool)
	// Metrics accumulates counters; reset freely between measurements.
	Metrics Metrics
	// tr collects the execution trace when Options.Trace is set; reset
	// at each top-level Eval.
	tr *traceState
}

// New returns an Engine whose default document is def (may be nil if all
// queries use doc("uri")).
func New(def *storage.Store, opts Options) *Engine {
	e := &Engine{opts: opts, def: def, catalog: map[string]*storage.Store{}}
	if def != nil && def.URI != "" {
		e.catalog[def.URI] = def
	}
	return e
}

// AddDocument registers a document under a URI for doc().
func (e *Engine) AddDocument(uri string, st *storage.Store) {
	e.catalog[uri] = st
}

// SetResolver installs the lookup of doc() URIs that no AddDocument
// registered. A URI is resolved on its first use and the store found is
// registered, so one evaluation sees one store per URI. With a resolver
// installed, the catalog lists only the documents used so far, so it
// suits StrictDocs: an unknown URI is an error then.
func (e *Engine) SetResolver(resolve func(uri string) (*storage.Store, bool)) {
	e.resolve = resolve
}

// Context carries the dynamic context: the context item, its position and
// the context size (for position()/last()), and the variable scope.
type Context struct {
	builtin.Focus
	Lookup func(name string) (value.Sequence, bool)
}

// Root returns the empty top-level context.
func Root() *Context { return &Context{Focus: builtin.Focus{Pos: 1, Size: 1}} }

// WithVars returns a context with additional variable bindings.
func (c *Context) WithVars(vars map[string]value.Sequence) *Context {
	outer := c.Lookup
	nc := *c
	nc.Lookup = func(name string) (value.Sequence, bool) {
		if v, ok := vars[name]; ok {
			return v, true
		}
		if outer != nil {
			return outer(name)
		}
		return nil, false
	}
	return &nc
}

// Eval evaluates a plan in the given context. With Options.Trace set it
// additionally records a Span per operator (see Trace); each top-level
// call (the outermost recursion) starts a fresh trace.
func (e *Engine) Eval(op core.Op, ctx *Context) (value.Sequence, error) {
	if !e.opts.Trace {
		return e.eval(op, ctx)
	}
	parent := e.enterSpan(op)
	start := time.Now()
	seq, err := e.eval(op, ctx)
	e.exitSpan(e.tr.cur, parent, start, len(seq))
	return seq, err
}

// eval is the untraced evaluation dispatch.
func (e *Engine) eval(op core.Op, ctx *Context) (value.Sequence, error) {
	if e.opts.Interrupt != nil {
		if err := e.opts.Interrupt(); err != nil {
			return nil, err
		}
	}
	switch o := op.(type) {
	case *core.ConstOp:
		return o.Seq, nil
	case *core.VarOp:
		if ctx.Lookup != nil {
			if v, ok := ctx.Lookup(o.Name); ok {
				return v, nil
			}
		}
		return nil, fmt.Errorf("exec: unbound variable $%s", o.Name)
	case *core.ContextOp:
		if ctx.Item == nil {
			return nil, fmt.Errorf("exec: context item is undefined")
		}
		return value.Singleton(ctx.Item), nil
	case *core.DocOp:
		st, err := e.resolveDoc(o.URI)
		if err != nil {
			return nil, err
		}
		return value.Singleton(value.Node{Store: st, Ref: st.Root()}), nil
	case *core.SeqOp:
		var out value.Sequence
		for _, c := range o.Items {
			v, err := e.Eval(c, ctx)
			if err != nil {
				return nil, err
			}
			out = append(out, v...)
		}
		return out, nil
	case *core.NegOp:
		v, err := e.Eval(o.X, ctx)
		if err != nil {
			return nil, err
		}
		return value.Arith(value.OpSub, value.Singleton(value.Int(0)), v)
	case *core.ArithOp:
		l, err := e.Eval(o.L, ctx)
		if err != nil {
			return nil, err
		}
		r, err := e.Eval(o.R, ctx)
		if err != nil {
			return nil, err
		}
		return value.Arith(o.Op, l, r)
	case *core.CompareOp:
		l, err := e.Eval(o.L, ctx)
		if err != nil {
			return nil, err
		}
		r, err := e.Eval(o.R, ctx)
		if err != nil {
			return nil, err
		}
		ok, err := value.CompareGeneral(o.Op, l, r)
		if err != nil {
			return nil, err
		}
		return value.Singleton(value.Bool(ok)), nil
	case *core.LogicOp:
		l, err := e.Eval(o.L, ctx)
		if err != nil {
			return nil, err
		}
		lb, err := value.EBV(l)
		if err != nil {
			return nil, err
		}
		if o.Kind == core.LogicAnd && !lb {
			return value.Singleton(value.Bool(false)), nil
		}
		if o.Kind == core.LogicOr && lb {
			return value.Singleton(value.Bool(true)), nil
		}
		r, err := e.Eval(o.R, ctx)
		if err != nil {
			return nil, err
		}
		rb, err := value.EBV(r)
		if err != nil {
			return nil, err
		}
		return value.Singleton(value.Bool(rb)), nil
	case *core.UnionOp:
		l, err := e.Eval(o.L, ctx)
		if err != nil {
			return nil, err
		}
		r, err := e.Eval(o.R, ctx)
		if err != nil {
			return nil, err
		}
		switch o.Kind {
		case core.SetIntersect:
			return value.Intersect(l, r)
		case core.SetExcept:
			return value.Except(l, r)
		default:
			return value.Union(l, r)
		}
	case *core.RangeOp:
		return e.evalRange(o, ctx)
	case *core.IfOp:
		c, err := e.Eval(o.Cond, ctx)
		if err != nil {
			return nil, err
		}
		b, err := value.EBV(c)
		if err != nil {
			return nil, err
		}
		if b {
			return e.Eval(o.Then, ctx)
		}
		return e.Eval(o.Else, ctx)
	case *core.FnOp:
		args := make([]value.Sequence, len(o.Args))
		for i, a := range o.Args {
			v, err := e.Eval(a, ctx)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return o.Fn.Eval(args, &ctx.Focus)
	case *core.QuantOp:
		return e.evalQuant(o, ctx)
	case *core.FLWOROp:
		return e.evalFLWOR(o, ctx)
	case *core.PathOp:
		return e.evalPath(o, ctx)
	case *core.TPMOp:
		return e.evalTPM(o, ctx)
	case *core.ConstructOp:
		return e.evalConstruct(o, ctx)
	}
	return nil, fmt.Errorf("exec: unknown operator %T", op)
}

func (e *Engine) resolveDoc(uri string) (*storage.Store, error) {
	if uri == "" {
		if e.def == nil {
			return nil, fmt.Errorf("exec: no default document")
		}
		return e.def, nil
	}
	if st, ok := e.catalog[uri]; ok {
		return st, nil
	}
	if e.resolve != nil {
		if st, ok := e.resolve(uri); ok {
			e.catalog[uri] = st
			return st, nil
		}
	}
	if e.def != nil && !e.opts.StrictDocs {
		// Unregistered URI while only the default document is known:
		// tolerate, as the use-case queries name files like "bib.xml".
		onlyDefault := true
		for _, st := range e.catalog {
			if st != e.def {
				onlyDefault = false
				break
			}
		}
		if onlyDefault {
			return e.def, nil
		}
	}
	return nil, fmt.Errorf("exec: unknown document %q", uri)
}

func (e *Engine) evalRange(o *core.RangeOp, ctx *Context) (value.Sequence, error) {
	l, err := e.Eval(o.L, ctx)
	if err != nil {
		return nil, err
	}
	r, err := e.Eval(o.R, ctx)
	if err != nil {
		return nil, err
	}
	if len(l) == 0 || len(r) == 0 {
		return nil, nil
	}
	if len(l) > 1 || len(r) > 1 {
		return nil, &value.TypeError{Msg: "range over non-singleton"}
	}
	lo := int64(value.NumberOf(value.Atomize(l)[0]))
	hi := int64(value.NumberOf(value.Atomize(r)[0]))
	var out value.Sequence
	for i := lo; i <= hi; i++ {
		out = append(out, value.Int(i))
	}
	return out, nil
}

func (e *Engine) evalQuant(o *core.QuantOp, ctx *Context) (value.Sequence, error) {
	var rec func(i int, ctx *Context) (bool, error)
	rec = func(i int, ctx *Context) (bool, error) {
		if i == len(o.Bindings) {
			s, err := e.Eval(o.Satisfies, ctx)
			if err != nil {
				return false, err
			}
			return value.EBV(s)
		}
		b := o.Bindings[i]
		seq, err := e.Eval(b.Expr, ctx)
		if err != nil {
			return false, err
		}
		for _, it := range seq {
			sub := ctx.WithVars(map[string]value.Sequence{b.Var: value.Singleton(it)})
			ok, err := rec(i+1, sub)
			if err != nil {
				return false, err
			}
			if ok && !o.Every {
				return true, nil
			}
			if !ok && o.Every {
				return false, nil
			}
		}
		return o.Every, nil
	}
	ok, err := rec(0, ctx)
	if err != nil {
		return nil, err
	}
	return value.Singleton(value.Bool(ok)), nil
}

// evalFLWOR builds the Env (Definition 3) layer by layer and evaluates
// the return expression once per total binding.
func (e *Engine) evalFLWOR(o *core.FLWOROp, ctx *Context) (value.Sequence, error) {
	env := core.NewEnv(ctx.Lookup)
	bindCtx := func(b core.Binding) *Context {
		nc := *ctx
		nc.Lookup = b.Lookup
		return &nc
	}
	for _, c := range o.Clauses {
		c := c
		eval := func(b core.Binding) (value.Sequence, error) {
			return e.Eval(c.Expr, bindCtx(b))
		}
		var err error
		if c.Kind == core.BindFor {
			err = env.ExtendFor(c.Var, c.PosVar, eval)
		} else {
			err = env.ExtendLet(c.Var, eval)
		}
		if err != nil {
			return nil, err
		}
	}
	if o.Where != nil {
		err := env.Filter(func(b core.Binding) (bool, error) {
			v, err := e.Eval(o.Where, bindCtx(b))
			if err != nil {
				return false, err
			}
			return value.EBV(v)
		})
		if err != nil {
			return nil, err
		}
	}
	if len(o.OrderBy) > 0 {
		keys := make([]func(core.Binding) (value.Sequence, error), len(o.OrderBy))
		desc := make([]bool, len(o.OrderBy))
		least := make([]bool, len(o.OrderBy))
		for i, k := range o.OrderBy {
			k := k
			keys[i] = func(b core.Binding) (value.Sequence, error) {
				return e.Eval(k.Key, bindCtx(b))
			}
			desc[i] = k.Descending
			least[i] = k.EmptyLeast
		}
		if err := env.SortBy(keys, desc, least); err != nil {
			return nil, err
		}
	}
	var out value.Sequence
	for _, b := range env.Paths() {
		e.Metrics.EnvLeaves++
		v, err := e.Eval(o.Return, bindCtx(b))
		if err != nil {
			return nil, err
		}
		out = append(out, v...)
	}
	return out, nil
}

// evalTPM dispatches the τ operator to the configured physical matcher.
func (e *Engine) evalTPM(o *core.TPMOp, ctx *Context) (value.Sequence, error) {
	e.Metrics.TPMCalls++
	input, err := e.Eval(o.Input, ctx)
	if err != nil {
		return nil, err
	}
	// Group context nodes per store.
	perStore := map[*storage.Store][]storage.NodeRef{}
	var stores []*storage.Store
	for _, it := range input {
		n, ok := it.(value.Node)
		if !ok {
			return nil, &value.TypeError{Msg: fmt.Sprintf("tree pattern matching over %s item", value.ItemKind(it))}
		}
		if _, seen := perStore[n.Store]; !seen {
			stores = append(stores, n.Store)
		}
		perStore[n.Store] = append(perStore[n.Store], n.Ref)
	}
	var out value.Sequence
	tracing := e.opts.Trace && e.tr != nil && e.tr.cur != nil
	if tracing {
		e.tr.cur.In += int64(len(input))
	}
	for _, st := range stores {
		refs, rec, err := e.matchStore(st, o.Graph, perStore[st])
		if err != nil {
			return nil, err
		}
		if tracing && rec != nil {
			e.tr.cur.Strategies = append(e.tr.cur.Strategies, rec)
		}
		for _, r := range refs {
			out = append(out, value.Node{Store: st, Ref: r})
		}
	}
	return out, nil
}

// matchStore runs one τ dispatch against a single store. It decides the
// strategy first (consulting the chooser with the context's anchoring,
// so a cost model never recommends a plan the executor cannot run),
// records any remaining fallback explicitly (Metrics.StrategyFallbacks
// plus the trace's strategy record — never a silent override), and
// counts the executed strategy in Metrics.TauByStrategy. The returned
// record is nil unless tracing or a Record hook is installed; when a
// hook is installed it also receives the record.
func (e *Engine) matchStore(st *storage.Store, g *pattern.Graph, contexts []storage.NodeRef) ([]storage.NodeRef, *StrategyRecord, error) {
	// The holistic join matchers evaluate the pattern from the document
	// root; they can only serve a τ whose context is exactly the root.
	rootAnchored := len(contexts) == 1 && contexts[0] == st.Root()
	chosen := e.opts.Strategy
	workers := Workers(e.opts.Parallelism)
	wantParallel := workers > 1
	wantBatched := false
	var est *CostEstimate
	if chosen == StrategyAuto {
		if e.opts.Chooser != nil {
			c := e.opts.Chooser(st, g, rootAnchored)
			chosen, est = c.Strategy, c.Estimate
			// The model decides serial vs parallel for the strategy it
			// picked; the worker budget only bounds the pool. Batched is
			// a mode of NoK alone: every other strategy runs interpreted.
			wantParallel = wantParallel && c.Parallel
			wantBatched = c.Batched && chosen == StrategyNoK
		} else {
			chosen = StrategyNoK
		}
	}
	wantRecord := e.opts.Trace || e.opts.Record != nil
	if est == nil && wantRecord && e.opts.Estimator != nil {
		est = e.opts.Estimator(st, g)
	}
	if e.opts.Interrupt != nil {
		if err := e.opts.Interrupt(); err != nil {
			return nil, nil, err
		}
	}
	executed, reason := chosen, ""
	switch {
	case (chosen == StrategyTwigStack || chosen == StrategyPathStack) && !rootAnchored:
		executed, reason = StrategyNoK, "context not root-anchored"
	case chosen == StrategyPathStack && !g.IsPath():
		executed, reason = StrategyTwigStack, "pattern branches"
	}
	// NoK's bitmask matchers (interpreter, kernels and the hybrid's
	// fragment matcher) represent at most batch.MaxVertices vertices;
	// the naive matcher has no such bound.
	if (executed == StrategyNoK || executed == StrategyHybrid) && g.VertexCount() > batch.MaxVertices {
		executed, reason = StrategyNaive, "pattern too large for nok"
	}
	if executed != chosen {
		e.Metrics.StrategyFallbacks++
	}
	e.Metrics.TauByStrategy[executed]++
	// Parallel NoK runs only on the batch kernels; serial NoK runs them
	// when the chooser asks.
	useBatched := executed == StrategyNoK && (wantParallel || wantBatched)
	if useBatched {
		e.Metrics.BatchedTau++
	}
	var rec *StrategyRecord
	var sink *tally.Counters
	if wantRecord {
		rec = &StrategyRecord{
			Chosen:   chosen,
			Executed: executed,
			Fallback: executed != chosen,
			Reason:   reason,
			Estimate: est,
			Contexts: len(contexts),
			Batched:  useBatched,
		}
		sink = &rec.Actual
	}
	var dispatchStart time.Time
	if rec != nil {
		dispatchStart = time.Now()
	}
	var refs []storage.NodeRef
	var err error
	// ranParallel/parReason/partitions record the parallel outcome: a
	// requested fan-out that found no useful partitioning (or a strategy
	// without a parallel mode) falls back to serial with a reason —
	// never silently.
	ranParallel := false
	parReason := ""
	var partitions []tally.Partition
	switch executed {
	case StrategyNaive:
		if wantParallel {
			parReason = "naive matcher has no parallel mode"
		}
		refs, err = naive.MatchOutputCounted(st, g, contexts, e.opts.Interrupt, sink)
	case StrategyHybrid:
		e.Metrics.JoinCalls += int64(g.Partition().JoinCount())
		if wantParallel {
			parReason = "hybrid matcher has no parallel mode"
		}
		refs, err = nok.MatchHybridCounted(st, g, contexts, e.opts.Interrupt, sink)
	case StrategyTwigStack:
		e.Metrics.JoinCalls += int64(g.VertexCount() - 1)
		var s join.Stream
		if wantParallel && g.VertexCount() > 2 {
			var streams []join.Stream
			var parts []tally.Partition
			streams, parts, err = join.VertexStreamsParallel(st, g, workers, e.opts.Interrupt)
			if err == nil {
				partitions, ranParallel = parts, true
				s, err = join.TwigStackStreamsCounted(st, g, streams, e.opts.Interrupt, sink)
			}
		} else {
			if wantParallel {
				parReason = "single vertex stream"
			}
			s, err = join.TwigStackCounted(st, g, e.opts.Interrupt, sink)
		}
		refs = s.Refs()
	case StrategyPathStack:
		e.Metrics.JoinCalls += int64(g.VertexCount() - 1)
		var s join.Stream
		if wantParallel && g.VertexCount() > 2 {
			var streams []join.Stream
			var parts []tally.Partition
			streams, parts, err = join.VertexStreamsParallel(st, g, workers, e.opts.Interrupt)
			if err == nil {
				partitions, ranParallel = parts, true
				s, err = join.PathStackStreamsCounted(st, g, streams, e.opts.Interrupt, sink)
			}
		} else {
			if wantParallel {
				parReason = "single vertex stream"
			}
			s, err = join.PathStackCounted(st, g, e.opts.Interrupt, sink)
		}
		refs = s.Refs()
	default:
		if wantParallel {
			var pres nok.ParallelResult
			refs, pres, err = nok.MatchOutputParallel(st, g, contexts, workers, e.opts.Interrupt, sink)
			ranParallel, parReason, partitions = pres.Parallel(), pres.Fallback, pres.Partitions
		} else if useBatched {
			refs, err = nok.MatchOutputBatched(st, g, contexts, e.opts.Interrupt, sink)
		} else {
			refs, err = nok.MatchOutputCounted(st, g, contexts, e.opts.Interrupt, sink)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	if wantParallel {
		if ranParallel {
			e.Metrics.ParallelTau++
		} else {
			e.Metrics.ParallelFallbacks++
		}
	}
	if rec != nil {
		rec.Dur = time.Since(dispatchStart)
		rec.Matches = len(refs)
		rec.Parallel = ranParallel
		rec.ParallelReason = parReason
		rec.Partitions = partitions
		if wantParallel {
			rec.Workers = workers
		}
		if e.opts.Record != nil {
			e.opts.Record(st, g, rec)
		}
	}
	return refs, rec, nil
}

// evalPath evaluates a πs-chain step by step: the unfused fallback for
// paths the pattern builder cannot express, and the ablation baseline.
func (e *Engine) evalPath(o *core.PathOp, ctx *Context) (value.Sequence, error) {
	cur, err := e.Eval(o.Input, ctx)
	if err != nil {
		return nil, err
	}
	for _, st := range o.Steps {
		cur, err = e.evalStep(cur, st, ctx)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// evalStep applies one location step (axis, test, predicates) to every
// context node, respecting positional predicate semantics.
func (e *Engine) evalStep(input value.Sequence, st core.Step, ctx *Context) (value.Sequence, error) {
	e.Metrics.StepCalls++
	if st.Axis == ast.AxisSelf && st.Test.Kind == ast.TestNode {
		// A bare filter step (E[pred] / .[pred]): predicates apply
		// positionally over the whole input sequence, which may contain
		// atomic items.
		cands := input
		var err error
		for _, p := range st.Preds {
			cands, err = e.filterPredicate(cands, p, ctx)
			if err != nil {
				return nil, err
			}
		}
		return cands, nil
	}
	var out value.Sequence
	for _, it := range input {
		if e.opts.Interrupt != nil {
			if err := e.opts.Interrupt(); err != nil {
				return nil, err
			}
		}
		n, ok := it.(value.Node)
		if !ok {
			return nil, &value.TypeError{Msg: fmt.Sprintf("path step over %s item", value.ItemKind(it))}
		}
		cands, err := core.NavigateStep(value.Singleton(n), st.Axis, st.Test)
		if err != nil {
			return nil, err
		}
		if st.Axis.Reverse() {
			// Positional predicates count in axis order (reverse axes
			// count backwards from the context node).
			reverse(cands)
		}
		for _, p := range st.Preds {
			cands, err = e.filterPredicate(cands, p, ctx)
			if err != nil {
				return nil, err
			}
		}
		if st.Axis.Reverse() {
			reverse(cands)
		}
		out = append(out, cands...)
	}
	if e.opts.NoStepDedup {
		return out, nil
	}
	if len(out) > 0 {
		return value.DocOrder(out)
	}
	return out, nil
}

func reverse(s value.Sequence) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// filterPredicate applies one predicate over a candidate list with
// position()/last() semantics; numeric predicate values select by
// position.
func (e *Engine) filterPredicate(cands value.Sequence, pred core.Op, ctx *Context) (value.Sequence, error) {
	var out value.Sequence
	for i, it := range cands {
		e.Metrics.PredEvals++
		sub := *ctx
		sub.Item = it
		sub.Pos = i + 1
		sub.Size = len(cands)
		v, err := e.Eval(pred, &sub)
		if err != nil {
			return nil, err
		}
		keep := false
		if len(v) == 1 && value.IsNumeric(v[0]) {
			keep = int(value.NumberOf(v[0])) == i+1
		} else {
			keep, err = value.EBV(v)
			if err != nil {
				return nil, err
			}
		}
		if keep {
			out = append(out, it)
		}
	}
	return out, nil
}

// evalConstruct runs the γ operator: build the new tree and return its
// top-level nodes as items backed by a fresh store.
func (e *Engine) evalConstruct(o *core.ConstructOp, ctx *Context) (value.Sequence, error) {
	e.Metrics.CtorCalls++
	doc, err := core.BuildTree(o.Schema, func(op core.Op) (value.Sequence, error) {
		return e.Eval(op, ctx)
	})
	if err != nil {
		return nil, err
	}
	st := storage.FromDoc(doc)
	var out value.Sequence
	for c := st.FirstChild(st.Root()); c != storage.NilRef; c = st.NextSibling(c) {
		if e.opts.Interrupt != nil {
			if err := e.opts.Interrupt(); err != nil {
				return nil, err
			}
		}
		out = append(out, value.Node{Store: st, Ref: c})
	}
	return out, nil
}
