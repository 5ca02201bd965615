package exec

import (
	"fmt"
	"strings"
	"time"

	"xqp/internal/core"
	"xqp/internal/tally"
)

// CostEstimate is the chooser's modeled cost for one τ evaluation, in
// the executor's own vocabulary so that package cost (which imports
// exec) can hand estimates across without a dependency cycle.
type CostEstimate struct {
	// NoK, Join and Hybrid are the modeled costs of the three strategy
	// families (abstract units; only ratios matter).
	NoK    float64 `json:"nok"`
	Join   float64 `json:"join"`
	Hybrid float64 `json:"hybrid"`
	// OutputCard is the estimated output cardinality of the pattern.
	OutputCard float64 `json:"output_card"`
}

// Choice is a chooser verdict: the strategy to run and, when the chooser
// is model-backed, the estimate it decided from.
type Choice struct {
	Strategy Strategy
	// Estimate is nil when the chooser had no model for the store (e.g.
	// a γ-constructed temporary document).
	Estimate *CostEstimate
	// Parallel asks for the partitioned parallel variant of the chosen
	// strategy; the cost model sets it when the modeled parallel cost
	// (partitions × per-partition work + merge) beats the serial one.
	// It only takes effect when the executor has a worker budget
	// (Options.Parallelism > 1).
	Parallel bool
	// Batched asks for NoK to run batch-at-a-time on the compiled
	// kernels; the cost model sets it when the pattern fits them (at
	// most batch.MaxVertices vertices) and the modeled kernel cost
	// beats the interpreter's. Results are identical either way. Only
	// a NoK pick honors it: the other strategies always run
	// interpreted.
	Batched bool
}

// StrategyRecord documents one τ dispatch: what the chooser said, what
// actually ran after the executor's anchoring constraints, and the
// actual work counted inside the matcher.
type StrategyRecord struct {
	// Chosen is the chooser's (or forced option's) strategy; Executed is
	// what ran after fallbacks. They differ iff Fallback is set.
	Chosen   Strategy `json:"chosen"`
	Executed Strategy `json:"executed"`
	Fallback bool     `json:"fallback,omitempty"`
	// Reason explains a fallback ("context not root-anchored", "pattern
	// branches"); empty otherwise.
	Reason string `json:"reason,omitempty"`
	// Estimate carries the cost model's verdict when one was available
	// (from the chooser or the Estimator hook).
	Estimate *CostEstimate `json:"estimate,omitempty"`
	// Contexts is the number of context nodes fed into this dispatch;
	// Matches is the number of output-vertex matches it produced.
	Contexts int `json:"contexts"`
	Matches  int `json:"matches"`
	// Actual is the work the matcher counted (see package tally).
	Actual tally.Counters `json:"actual"`
	// Parallel reports whether the dispatch fanned out over partitions.
	// Workers is the worker bound when parallelism was requested (0
	// otherwise); ParallelReason explains a fallback to serial ("single
	// partition", "hybrid matcher has no parallel mode"); Partitions
	// holds the per-partition spans, in document order.
	Parallel       bool              `json:"parallel,omitempty"`
	Workers        int               `json:"workers,omitempty"`
	ParallelReason string            `json:"parallel_reason,omitempty"`
	Partitions     []tally.Partition `json:"partitions,omitempty"`
	// Batched reports whether the dispatch ran on the compiled batch
	// kernels.
	Batched bool `json:"batched,omitempty"`
	// Dur is the wall time of the dispatch itself (matcher entry to
	// exit). The work counters in Actual are mode-independent — the
	// batched kernels do the same logical work as the interpreter — so
	// wall time is what lets the calibration layer fit the batched
	// speed factor from observed records.
	Dur time.Duration `json:"wall_ns,omitempty"`
}

// MarshalJSON renders strategies by name, so trace JSON reads
// "chosen":"twigstack" rather than an enum ordinal.
func (s Strategy) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses the name form written by MarshalJSON (clients
// decode trace JSON back into these types).
func (s *Strategy) UnmarshalJSON(b []byte) error {
	name := strings.Trim(string(b), `"`)
	for i := Strategy(0); i < NumStrategies; i++ {
		if i.String() == name {
			*s = i
			return nil
		}
	}
	return fmt.Errorf("exec: unknown strategy %q", name)
}

// Span is one node of an execution trace: the per-operator record of an
// EXPLAIN ANALYZE run. The span tree mirrors the operator tree of the
// plan; an operator evaluated many times (e.g. a FLWOR return expression
// once per binding) accumulates into a single span, with Calls counting
// the evaluations.
type Span struct {
	// Label is the operator's plan label (core.Op.Label).
	Label string `json:"label"`
	// Calls counts evaluations of this operator; Out sums the lengths of
	// the sequences it returned. In is filled for τ spans only: the total
	// input (context) cardinality.
	Calls int64 `json:"calls"`
	In    int64 `json:"in,omitempty"`
	Out   int64 `json:"out"`
	// Dur is inclusive wall time (children's time counts toward the
	// parent, exactly like EXPLAIN ANALYZE's actual time).
	Dur time.Duration `json:"wall_ns"`
	// Strategies holds one record per τ dispatch (one per distinct store
	// per call); only τ spans have them.
	Strategies []*StrategyRecord `json:"strategies,omitempty"`
	Children   []*Span           `json:"children,omitempty"`
}

// Visit walks the span tree pre-order.
func (s *Span) Visit(f func(*Span)) {
	if s == nil {
		return
	}
	f(s)
	for _, c := range s.Children {
		c.Visit(f)
	}
}

// Format renders the trace as an indented tree, one operator per line
// with its aggregates, and one indented line per strategy record.
func (s *Span) Format() string {
	var b strings.Builder
	var walk func(sp *Span, depth int)
	walk = func(sp *Span, depth int) {
		pad := strings.Repeat("  ", depth)
		fmt.Fprintf(&b, "%s%s  (calls=%d out=%d wall=%s)\n", pad, sp.Label, sp.Calls, sp.Out, sp.Dur.Round(time.Microsecond))
		for _, r := range sp.Strategies {
			fmt.Fprintf(&b, "%s  · strategy chosen=%s executed=%s", pad, r.Chosen, r.Executed)
			if r.Fallback {
				fmt.Fprintf(&b, " (fallback: %s)", r.Reason)
			}
			if r.Estimate != nil {
				fmt.Fprintf(&b, " est{nok=%.0f join=%.0f hybrid=%.0f card=%.1f}",
					r.Estimate.NoK, r.Estimate.Join, r.Estimate.Hybrid, r.Estimate.OutputCard)
			}
			if r.Parallel {
				fmt.Fprintf(&b, " parallel{workers=%d partitions=%d}", r.Workers, len(r.Partitions))
			} else if r.ParallelReason != "" {
				fmt.Fprintf(&b, " parallel=off (%s)", r.ParallelReason)
			}
			if r.Batched {
				fmt.Fprintf(&b, " batched")
			}
			fmt.Fprintf(&b, " actual{nodes=%d stream=%d sols=%d} contexts=%d matches=%d",
				r.Actual.NodesVisited, r.Actual.StreamElems, r.Actual.Solutions, r.Contexts, r.Matches)
			if r.Dur > 0 {
				fmt.Fprintf(&b, " wall=%s", r.Dur.Round(time.Microsecond))
			}
			b.WriteByte('\n')
			for _, p := range r.Partitions {
				fmt.Fprintf(&b, "%s    · partition %s@%d nodes=%d matches=%d wall=%s\n",
					pad, p.Kind, p.Root, p.Nodes, p.Matches, p.Dur.Round(time.Microsecond))
			}
		}
		for _, c := range sp.Children {
			walk(c, depth+1)
		}
	}
	walk(s, 0)
	return b.String()
}

// traceState is the per-top-level-Eval trace collector. Spans are keyed
// by operator identity so re-evaluations aggregate instead of exploding
// the tree; the first evaluation decides a span's parent (for cached
// predicate plans evaluated under several operators this pins the span
// under its first call site).
type traceState struct {
	root  *Span
	cur   *Span
	depth int
	spans map[core.Op]*Span
}

// Trace returns the trace of the most recent top-level Eval, or nil when
// Options.Trace was off.
func (e *Engine) Trace() *Span {
	if e.tr == nil {
		return nil
	}
	return e.tr.root
}

// enterSpan pushes the span for op (creating it on first evaluation) and
// returns the previous cursor for exitSpan.
func (e *Engine) enterSpan(op core.Op) *Span {
	if e.tr == nil || e.tr.depth == 0 {
		e.tr = &traceState{spans: map[core.Op]*Span{}}
	}
	parent := e.tr.cur
	sp := e.tr.spans[op]
	if sp == nil {
		sp = &Span{Label: op.Label()}
		e.tr.spans[op] = sp
		if parent != nil {
			parent.Children = append(parent.Children, sp)
		} else {
			e.tr.root = sp
		}
	}
	e.tr.cur = sp
	e.tr.depth++
	return parent
}

func (e *Engine) exitSpan(sp, parent *Span, start time.Time, out int) {
	sp.Calls++
	sp.Out += int64(out)
	sp.Dur += time.Since(start)
	e.tr.depth--
	e.tr.cur = parent
}
