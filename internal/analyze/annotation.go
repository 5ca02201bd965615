package analyze

import (
	"fmt"

	"xqp/internal/builtin"
)

// Card and Kind are the static cardinality and item type the analyzer
// infers per operator; the builtin table states call results in them.
type (
	Card = builtin.Card
	Kind = builtin.Kind
)

// The cardinalities and kinds.
const (
	CardMany      = builtin.CardMany
	CardOne       = builtin.CardOne
	CardZeroOrOne = builtin.CardZeroOrOne
	CardEmpty     = builtin.CardEmpty
	KindAny       = builtin.KindAny
	KindNode      = builtin.KindNode
	KindBool      = builtin.KindBool
	KindNumber    = builtin.KindNumber
	KindString    = builtin.KindString
)

// Annotation is the static information the analyzer infers per operator.
type Annotation struct {
	// Kind is the inferred item type of the result.
	Kind Kind
	// Card is the inferred cardinality of the result.
	Card Card
	// Pure reports that evaluating the operator has no observable effect
	// besides its value: no impure builtin such as error() anywhere in
	// the subtree. Only pure subplans may be pruned or eliminated.
	Pure bool
	// FromDoc reports that every node in the result provably belongs to
	// the bound default document, so synopsis facts apply to it.
	FromDoc bool
}

func (a Annotation) String() string {
	s := fmt.Sprintf("%s %s", a.Kind, a.Card)
	if !a.Pure {
		s += " impure"
	}
	return s
}

// Severity grades a diagnostic.
type Severity uint8

const (
	// Info diagnostics report analysis facts (e.g. applied pruning).
	Info Severity = iota
	// Warning diagnostics flag queries that are almost certainly wrong
	// (dead branches, unused variables) but still execute.
	Warning
	// Error diagnostics flag queries that cannot produce a meaningful
	// result.
	Error
)

func (s Severity) String() string {
	return [...]string{"info", "warning", "error"}[s]
}

// Diagnostic codes. Each code is documented with examples in ANALYZER.md.
const (
	// CodeEmptyAxis: a path navigates below an attribute, text, comment
	// or processing-instruction node, which have no children by the data
	// model; the step can never match.
	CodeEmptyAxis = "XQA001"
	// CodeEmptyPath: the bound document's path synopsis proves that the
	// path or pattern matches no node.
	CodeEmptyPath = "XQA002"
	// CodeEmptyFor: a for clause iterates a statically empty sequence, so
	// the whole FLWOR expression yields the empty sequence.
	CodeEmptyFor = "XQA003"
	// CodeUnusedVar: a let/for variable is never referenced.
	CodeUnusedVar = "XQA004"
	// CodeShadowedVar: a clause rebinds a variable name that is already
	// visible, hiding the outer binding.
	CodeShadowedVar = "XQA005"
	// CodeCmpType: a comparison is decided by static types alone, e.g. a
	// numeric expression compared against a non-numeric string literal.
	CodeCmpType = "XQA006"
	// CodeWhereFalse: a where clause's condition is statically the empty
	// sequence (its effective boolean value is always false), so the
	// FLWOR expression yields the empty sequence. Emitted only when the
	// dead loop cannot be pruned away (impure body, or pruning off).
	CodeWhereFalse = "XQA007"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Code is the stable identifier of the diagnostic class (XQA...).
	Code string
	// Severity grades the finding.
	Severity Severity
	// Span is the source-text rendering of the offending (sub)expression;
	// the AST carries no byte offsets, so spans are textual excerpts.
	Span string
	// Message explains the finding.
	Message string
}

func (d Diagnostic) String() string {
	if d.Span != "" {
		return fmt.Sprintf("%s %s: %s\n    in: %s", d.Severity, d.Code, d.Message, d.Span)
	}
	return fmt.Sprintf("%s %s: %s", d.Severity, d.Code, d.Message)
}
