package parser

import (
	"fmt"
	"strings"

	"xqp/internal/ast"
)

// Parse parses an XQuery-subset expression.
func Parse(src string) (ast.Expr, error) {
	p := &parser{l: newLexer(src)}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	t, err := p.l.peek()
	if err != nil {
		return nil, err
	}
	if t.kind != tokEOF {
		return nil, p.l.errAt(t.pos, "unexpected %s after expression", t.kind)
	}
	return e, nil
}

// MustParse parses src and panics on error; for tests and examples.
func MustParse(src string) ast.Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

// MaxDepth bounds how deeply a query's expressions nest, counting the
// outermost expression as one level: each parenthesis, predicate,
// function argument, clause body, enclosed expression and direct
// element constructor opens one more. The parser and every later stage
// (translation, rewrite, analysis, evaluation) recurse over the tree,
// so the bound keeps a small query from exhausting the goroutine stack.
const MaxDepth = 1000

type parser struct {
	l *lexer
	// depth is the current nesting level (see MaxDepth).
	depth int
}

// enter opens one nesting level at source position pos and fails with a
// positioned syntax error beyond MaxDepth. Every call, failed or not,
// is paired with a deferred leave.
func (p *parser) enter(pos int) error {
	p.depth++
	if p.depth > MaxDepth {
		return p.l.errAt(pos, "expression nests deeper than %d levels", MaxDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

type lexState struct {
	pos    int
	peeked *token
}

func (p *parser) mark() lexState { return lexState{p.l.pos, p.l.peeked} }
func (p *parser) restore(s lexState) {
	p.l.pos = s.pos
	p.l.peeked = s.peeked
}

func (p *parser) peek() (token, error) { return p.l.peek() }
func (p *parser) next() (token, error) { return p.l.next() }

func (p *parser) expect(k tokKind) (token, error) {
	t, err := p.next()
	if err != nil {
		return t, err
	}
	if t.kind != k {
		return t, p.l.errAt(t.pos, "expected %s, found %s", k, describe(t))
	}
	return t, nil
}

func describe(t token) string {
	switch t.kind {
	case tokName:
		return fmt.Sprintf("'%s'", t.text)
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	case tokNumber:
		return fmt.Sprintf("number %s", t.text)
	default:
		return t.kind.String()
	}
}

// accept consumes the next token if it has kind k.
func (p *parser) accept(k tokKind) (bool, error) {
	t, err := p.peek()
	if err != nil {
		return false, err
	}
	if t.kind == k {
		_, err = p.next()
		return true, err
	}
	return false, nil
}

// peekIsName reports whether the next token is the name s.
func (p *parser) peekIsName(s string) (bool, error) {
	t, err := p.peek()
	if err != nil {
		return false, err
	}
	return t.kind == tokName && t.text == s, nil
}

// acceptName consumes the next token if it is the name s.
func (p *parser) acceptName(s string) (bool, error) {
	ok, err := p.peekIsName(s)
	if err != nil || !ok {
		return false, err
	}
	_, err = p.next()
	return true, err
}

// keywordThenDollar reports whether the next tokens are the name kw
// followed by '$' (distinguishing FLWOR/quantifier keywords from paths).
func (p *parser) keywordThenDollar(kw string) (bool, error) {
	st := p.mark()
	defer func() { p.restore(st) }()
	t, err := p.next()
	if err != nil || t.kind != tokName || t.text != kw {
		return false, err
	}
	t2, err := p.next()
	if err != nil {
		return false, err
	}
	return t2.kind == tokDollar, nil
}

// parseExpr parses a comma-separated sequence expression.
func (p *parser) parseExpr() (ast.Expr, error) {
	first, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	items := []ast.Expr{first}
	for {
		ok, err := p.accept(tokComma)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		e, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		items = append(items, e)
	}
	if len(items) == 1 {
		return items[0], nil
	}
	return &ast.SequenceExpr{Items: items}, nil
}

func (p *parser) parseExprSingle() (ast.Expr, error) {
	t, err := p.peek()
	if err != nil {
		return nil, err
	}
	defer p.leave()
	if err := p.enter(t.pos); err != nil {
		return nil, err
	}
	if ok, err := p.keywordThenDollar("for"); err != nil {
		return nil, err
	} else if ok {
		return p.parseFLWOR()
	}
	if ok, err := p.keywordThenDollar("let"); err != nil {
		return nil, err
	} else if ok {
		return p.parseFLWOR()
	}
	if ok, err := p.keywordThenDollar("some"); err != nil {
		return nil, err
	} else if ok {
		return p.parseQuantified(ast.QuantSome)
	}
	if ok, err := p.keywordThenDollar("every"); err != nil {
		return nil, err
	} else if ok {
		return p.parseQuantified(ast.QuantEvery)
	}
	if ok, err := p.peekIsName("if"); err != nil {
		return nil, err
	} else if ok {
		st := p.mark()
		if _, err := p.next(); err != nil {
			return nil, err
		}
		t, err := p.peek()
		if err != nil {
			return nil, err
		}
		if t.kind == tokLParen {
			return p.parseIf()
		}
		p.restore(st) // "if" as an element name in a path
	}
	return p.parseOr()
}

func (p *parser) parseFLWOR() (ast.Expr, error) {
	f := &ast.FLWOR{}
	for {
		isFor, err := p.keywordThenDollar("for")
		if err != nil {
			return nil, err
		}
		isLet := false
		if !isFor {
			isLet, err = p.keywordThenDollar("let")
			if err != nil {
				return nil, err
			}
		}
		if !isFor && !isLet {
			break
		}
		if _, err := p.next(); err != nil { // consume for/let
			return nil, err
		}
		for {
			if _, err := p.expect(tokDollar); err != nil {
				return nil, err
			}
			v, err := p.expect(tokName)
			if err != nil {
				return nil, err
			}
			cl := ast.Clause{Var: v.text}
			if isFor {
				cl.Kind = ast.ClauseFor
				if ok, err := p.acceptName("at"); err != nil {
					return nil, err
				} else if ok {
					if _, err := p.expect(tokDollar); err != nil {
						return nil, err
					}
					pv, err := p.expect(tokName)
					if err != nil {
						return nil, err
					}
					cl.PosVar = pv.text
				}
				if ok, err := p.acceptName("in"); err != nil {
					return nil, err
				} else if !ok {
					t, _ := p.peek()
					return nil, p.l.errAt(t.pos, "expected 'in' in for clause")
				}
			} else {
				cl.Kind = ast.ClauseLet
				if _, err := p.expect(tokAssign); err != nil {
					return nil, err
				}
			}
			e, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			cl.Expr = e
			f.Clauses = append(f.Clauses, cl)
			ok, err := p.accept(tokComma)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
	}
	if len(f.Clauses) == 0 {
		t, _ := p.peek()
		return nil, p.l.errAt(t.pos, "FLWOR expression needs at least one for/let clause")
	}
	if ok, err := p.acceptName("where"); err != nil {
		return nil, err
	} else if ok {
		w, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		f.Where = w
	}
	// "stable order by" / "order by"
	if ok, err := p.acceptName("stable"); err != nil {
		return nil, err
	} else if ok {
		if ok2, err := p.acceptName("order"); err != nil || !ok2 {
			t, _ := p.peek()
			return nil, p.l.errAt(t.pos, "expected 'order' after 'stable'")
		}
		if err := p.parseOrderTail(f); err != nil {
			return nil, err
		}
	} else if ok, err := p.acceptName("order"); err != nil {
		return nil, err
	} else if ok {
		if err := p.parseOrderTail(f); err != nil {
			return nil, err
		}
	}
	if ok, err := p.acceptName("return"); err != nil {
		return nil, err
	} else if !ok {
		t, _ := p.peek()
		return nil, p.l.errAt(t.pos, "expected 'return' in FLWOR expression")
	}
	r, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	f.Return = r
	return f, nil
}

func (p *parser) parseOrderTail(f *ast.FLWOR) error {
	if ok, err := p.acceptName("by"); err != nil || !ok {
		t, _ := p.peek()
		return p.l.errAt(t.pos, "expected 'by' after 'order'")
	}
	for {
		key, err := p.parseExprSingle()
		if err != nil {
			return err
		}
		spec := ast.OrderSpec{Key: key}
		if ok, err := p.acceptName("descending"); err != nil {
			return err
		} else if ok {
			spec.Descending = true
		} else if _, err := p.acceptName("ascending"); err != nil {
			return err
		}
		if ok, err := p.acceptName("empty"); err != nil {
			return err
		} else if ok {
			if ok2, err := p.acceptName("least"); err != nil {
				return err
			} else if ok2 {
				spec.EmptyLeast = true
			} else if ok2, err := p.acceptName("greatest"); err != nil {
				return err
			} else if !ok2 {
				t, _ := p.peek()
				return p.l.errAt(t.pos, "expected 'greatest' or 'least' after 'empty'")
			}
		}
		f.OrderBy = append(f.OrderBy, spec)
		ok, err := p.accept(tokComma)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

func (p *parser) parseQuantified(kind ast.QuantKind) (ast.Expr, error) {
	if _, err := p.next(); err != nil { // some/every
		return nil, err
	}
	q := &ast.Quantified{Kind: kind}
	for {
		if _, err := p.expect(tokDollar); err != nil {
			return nil, err
		}
		v, err := p.expect(tokName)
		if err != nil {
			return nil, err
		}
		if ok, err := p.acceptName("in"); err != nil {
			return nil, err
		} else if !ok {
			t, _ := p.peek()
			return nil, p.l.errAt(t.pos, "expected 'in' in quantified expression")
		}
		e, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		q.Bindings = append(q.Bindings, ast.QuantBinding{Var: v.text, In: e})
		ok, err := p.accept(tokComma)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	if ok, err := p.acceptName("satisfies"); err != nil {
		return nil, err
	} else if !ok {
		t, _ := p.peek()
		return nil, p.l.errAt(t.pos, "expected 'satisfies'")
	}
	s, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	q.Satisfies = s
	return q, nil
}

func (p *parser) parseIf() (ast.Expr, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	if ok, err := p.acceptName("then"); err != nil || !ok {
		t, _ := p.peek()
		return nil, p.l.errAt(t.pos, "expected 'then'")
	}
	th, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if ok, err := p.acceptName("else"); err != nil || !ok {
		t, _ := p.peek()
		return nil, p.l.errAt(t.pos, "expected 'else'")
	}
	el, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	return &ast.If{Cond: cond, Then: th, Else: el}, nil
}

func (p *parser) parseOr() (ast.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for {
		ok, err := p.acceptName("or")
		if err != nil {
			return nil, err
		}
		if !ok {
			return left, nil
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: ast.OpOr, L: left, R: right}
	}
}

func (p *parser) parseAnd() (ast.Expr, error) {
	left, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for {
		ok, err := p.acceptName("and")
		if err != nil {
			return nil, err
		}
		if !ok {
			return left, nil
		}
		right, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: ast.OpAnd, L: left, R: right}
	}
}

var valueComps = map[string]ast.BinOp{
	"eq": ast.OpEq, "ne": ast.OpNe, "lt": ast.OpLt,
	"le": ast.OpLe, "gt": ast.OpGt, "ge": ast.OpGe,
}

func (p *parser) parseComparison() (ast.Expr, error) {
	left, err := p.parseRange()
	if err != nil {
		return nil, err
	}
	t, err := p.peek()
	if err != nil {
		return nil, err
	}
	var op ast.BinOp
	found := false
	switch t.kind {
	case tokEq:
		op, found = ast.OpEq, true
	case tokNe:
		op, found = ast.OpNe, true
	case tokLt:
		op, found = ast.OpLt, true
	case tokLe:
		op, found = ast.OpLe, true
	case tokGt:
		op, found = ast.OpGt, true
	case tokGe:
		op, found = ast.OpGe, true
	case tokName:
		if o, ok := valueComps[t.text]; ok {
			op, found = o, true
		}
	}
	if !found {
		return left, nil
	}
	if _, err := p.next(); err != nil {
		return nil, err
	}
	right, err := p.parseRange()
	if err != nil {
		return nil, err
	}
	return &ast.Binary{Op: op, L: left, R: right}, nil
}

func (p *parser) parseRange() (ast.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	ok, err := p.acceptName("to")
	if err != nil || !ok {
		return left, err
	}
	right, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &ast.Binary{Op: ast.OpTo, L: left, R: right}, nil
}

func (p *parser) parseAdditive() (ast.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t, err := p.peek()
		if err != nil {
			return nil, err
		}
		var op ast.BinOp
		switch t.kind {
		case tokPlus:
			op = ast.OpAdd
		case tokMinus:
			op = ast.OpSub
		default:
			return left, nil
		}
		if _, err := p.next(); err != nil {
			return nil, err
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: op, L: left, R: right}
	}
}

func (p *parser) parseMultiplicative() (ast.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t, err := p.peek()
		if err != nil {
			return nil, err
		}
		var op ast.BinOp
		switch {
		case t.kind == tokStar:
			op = ast.OpMul
		case t.kind == tokName && t.text == "div":
			op = ast.OpDiv
		case t.kind == tokName && t.text == "idiv":
			op = ast.OpIDiv
		case t.kind == tokName && t.text == "mod":
			op = ast.OpMod
		default:
			return left, nil
		}
		if _, err := p.next(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: op, L: left, R: right}
	}
}

func (p *parser) parseUnary() (ast.Expr, error) {
	neg := false
	for {
		t, err := p.peek()
		if err != nil {
			return nil, err
		}
		if t.kind == tokMinus {
			neg = !neg
			if _, err := p.next(); err != nil {
				return nil, err
			}
			continue
		}
		if t.kind == tokPlus {
			if _, err := p.next(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	e, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	if neg {
		return &ast.Unary{Neg: true, X: e}, nil
	}
	return e, nil
}

func (p *parser) parseUnion() (ast.Expr, error) {
	left, err := p.parseIntersectExcept()
	if err != nil {
		return nil, err
	}
	for {
		t, err := p.peek()
		if err != nil {
			return nil, err
		}
		isUnion := t.kind == tokPipe || (t.kind == tokName && t.text == "union")
		if !isUnion {
			return left, nil
		}
		if _, err := p.next(); err != nil {
			return nil, err
		}
		right, err := p.parseIntersectExcept()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: ast.OpUnion, L: left, R: right}
	}
}

func (p *parser) parseIntersectExcept() (ast.Expr, error) {
	left, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	for {
		t, err := p.peek()
		if err != nil {
			return nil, err
		}
		var op ast.BinOp
		switch {
		case t.kind == tokName && t.text == "intersect":
			op = ast.OpIntersect
		case t.kind == tokName && t.text == "except":
			op = ast.OpExcept
		default:
			return left, nil
		}
		if _, err := p.next(); err != nil {
			return nil, err
		}
		right, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{Op: op, L: left, R: right}
	}
}

// descOrSelfStep is the step inserted for the // abbreviation.
func descOrSelfStep() ast.Step {
	return ast.Step{Axis: ast.AxisDescendantOrSelf, Test: ast.NodeTest{Kind: ast.TestNode}}
}

func (p *parser) parsePath() (ast.Expr, error) {
	t, err := p.peek()
	if err != nil {
		return nil, err
	}
	switch t.kind {
	case tokSlash:
		if _, err := p.next(); err != nil {
			return nil, err
		}
		pe := &ast.PathExpr{Rooted: true}
		nt, err := p.peek()
		if err != nil {
			return nil, err
		}
		if startsStep(nt) {
			if err := p.parseRelative(pe); err != nil {
				return nil, err
			}
		}
		return pe, nil
	case tokSlash2:
		if _, err := p.next(); err != nil {
			return nil, err
		}
		pe := &ast.PathExpr{Rooted: true, Steps: []ast.Step{descOrSelfStep()}}
		if err := p.parseRelative(pe); err != nil {
			return nil, err
		}
		return pe, nil
	}
	// Relative path: first a step or primary, then optional /... tail.
	first, step, isStep, err := p.parseFirstStep()
	if err != nil {
		return nil, err
	}
	pe := &ast.PathExpr{}
	if isStep {
		pe.Steps = append(pe.Steps, step)
	} else {
		// Check whether a path tail follows; if not, return the primary
		// unwrapped to keep the AST small.
		nt, err := p.peek()
		if err != nil {
			return nil, err
		}
		if nt.kind != tokSlash && nt.kind != tokSlash2 {
			return first, nil
		}
		pe.Base = first
	}
	for {
		nt, err := p.peek()
		if err != nil {
			return nil, err
		}
		if nt.kind == tokSlash {
			if _, err := p.next(); err != nil {
				return nil, err
			}
		} else if nt.kind == tokSlash2 {
			if _, err := p.next(); err != nil {
				return nil, err
			}
			pe.Steps = append(pe.Steps, descOrSelfStep())
		} else {
			break
		}
		s, err := p.parseAxisStep()
		if err != nil {
			return nil, err
		}
		pe.Steps = append(pe.Steps, s)
	}
	return pe, nil
}

// parseRelative parses "step ((/|//) step)*" appending onto pe.
func (p *parser) parseRelative(pe *ast.PathExpr) error {
	s, err := p.parseAxisStep()
	if err != nil {
		return err
	}
	pe.Steps = append(pe.Steps, s)
	for {
		nt, err := p.peek()
		if err != nil {
			return err
		}
		switch nt.kind {
		case tokSlash:
			if _, err := p.next(); err != nil {
				return err
			}
		case tokSlash2:
			if _, err := p.next(); err != nil {
				return err
			}
			pe.Steps = append(pe.Steps, descOrSelfStep())
		default:
			return nil
		}
		s, err := p.parseAxisStep()
		if err != nil {
			return err
		}
		pe.Steps = append(pe.Steps, s)
	}
}

// startsStep reports whether the token can begin an axis step.
func startsStep(t token) bool {
	switch t.kind {
	case tokName, tokStar, tokAt, tokDotDot, tokDot:
		return true
	}
	return false
}

// parseFirstStep parses the head of a relative path: either an axis step
// (returned with isStep=true) or a primary expression with optional
// predicates.
func (p *parser) parseFirstStep() (ast.Expr, ast.Step, bool, error) {
	t, err := p.peek()
	if err != nil {
		return nil, ast.Step{}, false, err
	}
	switch t.kind {
	case tokAt, tokDotDot, tokStar:
		s, err := p.parseAxisStep()
		return nil, s, true, err
	case tokDot:
		// Context item; predicates attach as a self step.
		if _, err := p.next(); err != nil {
			return nil, ast.Step{}, false, err
		}
		preds, err := p.parsePredicates()
		if err != nil {
			return nil, ast.Step{}, false, err
		}
		if len(preds) == 0 {
			return &ast.ContextItem{}, ast.Step{}, false, nil
		}
		return nil, ast.Step{Axis: ast.AxisSelf, Test: ast.NodeTest{Kind: ast.TestNode}, Preds: preds}, true, nil
	case tokName:
		// Could be: axis::..., kindtest(, function call(, computed ctor,
		// or a plain name test.
		st := p.mark()
		name := t.text
		if _, err := p.next(); err != nil {
			return nil, ast.Step{}, false, err
		}
		nt, err := p.peek()
		if err != nil {
			return nil, ast.Step{}, false, err
		}
		switch {
		case nt.kind == tokColon2:
			p.restore(st)
			s, err := p.parseAxisStep()
			return nil, s, true, err
		case nt.kind == tokLParen:
			if isKindTestName(name) {
				p.restore(st)
				s, err := p.parseAxisStep()
				return nil, s, true, err
			}
			p.restore(st)
			e, err := p.parsePostfix()
			return e, ast.Step{}, false, err
		case nt.kind == tokLBrace && (name == "text"):
			p.restore(st)
			e, err := p.parsePostfix()
			return e, ast.Step{}, false, err
		case nt.kind == tokName && (name == "element" || name == "attribute"):
			// computed constructor: element name { ... }
			st2 := p.mark()
			if _, err := p.next(); err != nil {
				return nil, ast.Step{}, false, err
			}
			b, err := p.peek()
			if err != nil {
				return nil, ast.Step{}, false, err
			}
			if b.kind == tokLBrace {
				p.restore(st)
				e, err := p.parsePostfix()
				return e, ast.Step{}, false, err
			}
			p.restore(st2)
			fallthrough
		default:
			// Plain name test step.
			p.restore(st)
			s, err := p.parseAxisStep()
			return nil, s, true, err
		}
	default:
		e, err := p.parsePostfix()
		return e, ast.Step{}, false, err
	}
}

func isKindTestName(s string) bool {
	switch s {
	case "text", "node", "comment", "processing-instruction":
		return true
	}
	return false
}

var axisNames = map[string]ast.Axis{
	"child":              ast.AxisChild,
	"descendant":         ast.AxisDescendant,
	"descendant-or-self": ast.AxisDescendantOrSelf,
	"self":               ast.AxisSelf,
	"parent":             ast.AxisParent,
	"ancestor":           ast.AxisAncestor,
	"ancestor-or-self":   ast.AxisAncestorOrSelf,
	"attribute":          ast.AxisAttribute,
	"following-sibling":  ast.AxisFollowingSibling,
	"preceding-sibling":  ast.AxisPrecedingSibling,
}

func (p *parser) parseAxisStep() (ast.Step, error) {
	t, err := p.peek()
	if err != nil {
		return ast.Step{}, err
	}
	step := ast.Step{Axis: ast.AxisChild}
	switch t.kind {
	case tokAt:
		if _, err := p.next(); err != nil {
			return ast.Step{}, err
		}
		step.Axis = ast.AxisAttribute
	case tokDotDot:
		if _, err := p.next(); err != nil {
			return ast.Step{}, err
		}
		step.Axis = ast.AxisParent
		step.Test = ast.NodeTest{Kind: ast.TestNode}
		preds, err := p.parsePredicates()
		if err != nil {
			return ast.Step{}, err
		}
		step.Preds = preds
		return step, nil
	case tokDot:
		if _, err := p.next(); err != nil {
			return ast.Step{}, err
		}
		step.Axis = ast.AxisSelf
		step.Test = ast.NodeTest{Kind: ast.TestNode}
		preds, err := p.parsePredicates()
		if err != nil {
			return ast.Step{}, err
		}
		step.Preds = preds
		return step, nil
	case tokName:
		// Possible explicit axis.
		if ax, ok := axisNames[t.text]; ok {
			st := p.mark()
			if _, err := p.next(); err != nil {
				return ast.Step{}, err
			}
			c, err := p.peek()
			if err != nil {
				return ast.Step{}, err
			}
			if c.kind == tokColon2 {
				if _, err := p.next(); err != nil {
					return ast.Step{}, err
				}
				step.Axis = ax
			} else {
				p.restore(st)
			}
		}
	}
	// Node test.
	t, err = p.peek()
	if err != nil {
		return ast.Step{}, err
	}
	switch t.kind {
	case tokStar:
		if _, err := p.next(); err != nil {
			return ast.Step{}, err
		}
		step.Test = ast.NodeTest{Kind: ast.TestName, Name: "*"}
	case tokName:
		name := t.text
		if _, err := p.next(); err != nil {
			return ast.Step{}, err
		}
		if isKindTestName(name) {
			nt, err := p.peek()
			if err != nil {
				return ast.Step{}, err
			}
			if nt.kind == tokLParen {
				if _, err := p.next(); err != nil {
					return ast.Step{}, err
				}
				test := ast.NodeTest{}
				switch name {
				case "text":
					test.Kind = ast.TestText
				case "node":
					test.Kind = ast.TestNode
				case "comment":
					test.Kind = ast.TestComment
				case "processing-instruction":
					test.Kind = ast.TestPI
					a, err := p.peek()
					if err != nil {
						return ast.Step{}, err
					}
					if a.kind == tokString || a.kind == tokName {
						if _, err := p.next(); err != nil {
							return ast.Step{}, err
						}
						test.Name = a.text
					}
				}
				if _, err := p.expect(tokRParen); err != nil {
					return ast.Step{}, err
				}
				step.Test = test
				break
			}
		}
		step.Test = ast.NodeTest{Kind: ast.TestName, Name: name}
	default:
		return ast.Step{}, p.l.errAt(t.pos, "expected node test, found %s", describe(t))
	}
	preds, err := p.parsePredicates()
	if err != nil {
		return ast.Step{}, err
	}
	step.Preds = preds
	return step, nil
}

func (p *parser) parsePredicates() ([]ast.Expr, error) {
	var preds []ast.Expr
	for {
		ok, err := p.accept(tokLBrack)
		if err != nil {
			return nil, err
		}
		if !ok {
			return preds, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBrack); err != nil {
			return nil, err
		}
		preds = append(preds, e)
	}
}

// parsePostfix parses a primary expression with trailing predicates.
func (p *parser) parsePostfix() (ast.Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	preds, err := p.parsePredicates()
	if err != nil {
		return nil, err
	}
	if len(preds) == 0 {
		return e, nil
	}
	return &ast.PathExpr{
		Base:  e,
		Steps: []ast.Step{{Axis: ast.AxisSelf, Test: ast.NodeTest{Kind: ast.TestNode}, Preds: preds}},
	}, nil
}

func (p *parser) parsePrimary() (ast.Expr, error) {
	t, err := p.peek()
	if err != nil {
		return nil, err
	}
	switch t.kind {
	case tokString:
		if _, err := p.next(); err != nil {
			return nil, err
		}
		return &ast.StringLit{Val: t.text}, nil
	case tokNumber:
		if _, err := p.next(); err != nil {
			return nil, err
		}
		return &ast.NumberLit{Val: t.num, IsInt: t.isInt, Int: t.ival}, nil
	case tokDollar:
		if _, err := p.next(); err != nil {
			return nil, err
		}
		v, err := p.expect(tokName)
		if err != nil {
			return nil, err
		}
		return &ast.VarRef{Name: v.text}, nil
	case tokDot:
		if _, err := p.next(); err != nil {
			return nil, err
		}
		return &ast.ContextItem{}, nil
	case tokLParen:
		if _, err := p.next(); err != nil {
			return nil, err
		}
		if ok, err := p.accept(tokRParen); err != nil {
			return nil, err
		} else if ok {
			return &ast.EmptySeq{}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokLt:
		if _, err := p.next(); err != nil {
			return nil, err
		}
		return p.parseDirectCtor()
	case tokName:
		name := t.text
		if _, err := p.next(); err != nil {
			return nil, err
		}
		nt, err := p.peek()
		if err != nil {
			return nil, err
		}
		// Computed constructors.
		if (name == "element" || name == "attribute") && nt.kind == tokName {
			ctorName := nt.text
			if _, err := p.next(); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokLBrace); err != nil {
				return nil, err
			}
			var content ast.Expr
			if ok, err := p.accept(tokRBrace); err != nil {
				return nil, err
			} else if !ok {
				content, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tokRBrace); err != nil {
					return nil, err
				}
			}
			return &ast.ComputedCtor{Kind: name, Name: ctorName, Content: content}, nil
		}
		if name == "text" && nt.kind == tokLBrace {
			if _, err := p.next(); err != nil {
				return nil, err
			}
			var content ast.Expr
			if ok, err := p.accept(tokRBrace); err != nil {
				return nil, err
			} else if !ok {
				content, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tokRBrace); err != nil {
					return nil, err
				}
			}
			return &ast.ComputedCtor{Kind: "text", Content: content}, nil
		}
		if nt.kind == tokLParen {
			if _, err := p.next(); err != nil {
				return nil, err
			}
			call := &ast.FuncCall{Name: strings.TrimPrefix(name, "fn:")}
			call.Line, call.Col = p.l.lineCol(t.pos)
			if ok, err := p.accept(tokRParen); err != nil {
				return nil, err
			} else if ok {
				return call, nil
			}
			for {
				a, err := p.parseExprSingle()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				ok, err := p.accept(tokComma)
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return call, nil
		}
		return nil, p.l.errAt(t.pos, "unexpected name '%s' in expression", name)
	}
	return nil, p.l.errAt(t.pos, "unexpected %s", describe(t))
}
