// Package parser turns XQuery-subset source text into the AST of package
// ast. The grammar covers the non-recursive fragment the paper targets:
// FLWOR, quantified, conditional, path, arithmetic/comparison/logical
// expressions, direct and computed constructors, and function calls.
package parser

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokKind enumerates token kinds. XQuery keywords are lexed as names and
// recognized contextually by the parser.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokName
	tokString // quoted literal, value unescaped
	tokNumber
	tokDollar  // $
	tokLParen  // (
	tokRParen  // )
	tokLBrack  // [
	tokRBrack  // ]
	tokLBrace  // {
	tokRBrace  // }
	tokComma   // ,
	tokDot     // .
	tokDotDot  // ..
	tokSlash   // /
	tokSlash2  // //
	tokAt      // @
	tokPipe    // |
	tokPlus    // +
	tokMinus   // -
	tokStar    // *
	tokEq      // =
	tokNe      // !=
	tokLt      // <
	tokLe      // <=
	tokGt      // >
	tokGe      // >=
	tokAssign  // :=
	tokColon2  // ::
	tokLtSlash // </  (only meaningful inside constructors)
	tokQMark   // ?
)

func (k tokKind) String() string {
	names := map[tokKind]string{
		tokEOF: "end of input", tokName: "name", tokString: "string literal",
		tokNumber: "number", tokDollar: "'$'", tokLParen: "'('", tokRParen: "')'",
		tokLBrack: "'['", tokRBrack: "']'", tokLBrace: "'{'", tokRBrace: "'}'",
		tokComma: "','", tokDot: "'.'", tokDotDot: "'..'", tokSlash: "'/'",
		tokSlash2: "'//'", tokAt: "'@'", tokPipe: "'|'", tokPlus: "'+'",
		tokMinus: "'-'", tokStar: "'*'", tokEq: "'='", tokNe: "'!='",
		tokLt: "'<'", tokLe: "'<='", tokGt: "'>'", tokGe: "'>='",
		tokAssign: "':='", tokColon2: "'::'", tokLtSlash: "'</'", tokQMark: "'?'",
	}
	if s, ok := names[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", uint8(k))
}

type token struct {
	kind  tokKind
	text  string // name text, unescaped string value, or number text
	pos   int    // byte offset in source
	num   float64
	isInt bool
	ival  int64 // an integer literal's exact value (isInt)
}

// SyntaxError reports a parse failure with its source position.
type SyntaxError struct {
	Pos  int
	Line int
	Col  int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("syntax error at line %d, column %d: %s", e.Line, e.Col, e.Msg)
}

type lexer struct {
	src    string
	pos    int
	peeked *token
}

func newLexer(src string) *lexer { return &lexer{src: src} }

func (l *lexer) errAt(pos int, format string, args ...any) *SyntaxError {
	line, col := l.lineCol(pos)
	return &SyntaxError{Pos: pos, Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// lineCol converts a byte offset into a 1-based line and column.
func (l *lexer) lineCol(pos int) (line, col int) {
	line, col = 1, 1
	for i := 0; i < pos && i < len(l.src); i++ {
		if l.src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}

// skipSpaceAndComments advances over whitespace and (: ... :) comments,
// which nest per the XQuery spec.
func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		if c == '(' && l.pos+1 < len(l.src) && l.src[l.pos+1] == ':' {
			depth := 1
			l.pos += 2
			for l.pos < len(l.src) && depth > 0 {
				if strings.HasPrefix(l.src[l.pos:], "(:") {
					depth++
					l.pos += 2
				} else if strings.HasPrefix(l.src[l.pos:], ":)") {
					depth--
					l.pos += 2
				} else {
					l.pos++
				}
			}
			if depth > 0 {
				return l.errAt(l.pos, "unterminated comment")
			}
			continue
		}
		break
	}
	return nil
}

// peek returns the next token without consuming it.
func (l *lexer) peek() (token, error) {
	if l.peeked == nil {
		t, err := l.lex()
		if err != nil {
			return token{}, err
		}
		l.peeked = &t
	}
	return *l.peeked, nil
}

// next consumes and returns the next token.
func (l *lexer) next() (token, error) {
	if l.peeked != nil {
		t := *l.peeked
		l.peeked = nil
		return t, nil
	}
	return l.lex()
}

// rawPos returns the byte position right after the last consumed token
// (only valid when no token is peeked); used to hand control to the
// direct-constructor scanner.
func (l *lexer) rawPos() int { return l.pos }

// setPos repositions the lexer (after raw constructor scanning) and drops
// any peeked token.
func (l *lexer) setPos(p int) {
	l.pos = p
	l.peeked = nil
}

func isNameStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isNameChar(r rune) bool {
	return r == '_' || r == '-' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (l *lexer) lex() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.src[l.pos]
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch {
	case two == "//":
		l.pos += 2
		return token{kind: tokSlash2, pos: start}, nil
	case two == "..":
		l.pos += 2
		return token{kind: tokDotDot, pos: start}, nil
	case two == "!=":
		l.pos += 2
		return token{kind: tokNe, pos: start}, nil
	case two == "<=":
		l.pos += 2
		return token{kind: tokLe, pos: start}, nil
	case two == ">=":
		l.pos += 2
		return token{kind: tokGe, pos: start}, nil
	case two == ":=":
		l.pos += 2
		return token{kind: tokAssign, pos: start}, nil
	case two == "::":
		l.pos += 2
		return token{kind: tokColon2, pos: start}, nil
	case two == "</":
		l.pos += 2
		return token{kind: tokLtSlash, pos: start}, nil
	}
	switch c {
	case '$':
		l.pos++
		return token{kind: tokDollar, pos: start}, nil
	case '(':
		l.pos++
		return token{kind: tokLParen, pos: start}, nil
	case ')':
		l.pos++
		return token{kind: tokRParen, pos: start}, nil
	case '[':
		l.pos++
		return token{kind: tokLBrack, pos: start}, nil
	case ']':
		l.pos++
		return token{kind: tokRBrack, pos: start}, nil
	case '{':
		l.pos++
		return token{kind: tokLBrace, pos: start}, nil
	case '}':
		l.pos++
		return token{kind: tokRBrace, pos: start}, nil
	case ',':
		l.pos++
		return token{kind: tokComma, pos: start}, nil
	case '/':
		l.pos++
		return token{kind: tokSlash, pos: start}, nil
	case '@':
		l.pos++
		return token{kind: tokAt, pos: start}, nil
	case '|':
		l.pos++
		return token{kind: tokPipe, pos: start}, nil
	case '+':
		l.pos++
		return token{kind: tokPlus, pos: start}, nil
	case '-':
		l.pos++
		return token{kind: tokMinus, pos: start}, nil
	case '*':
		l.pos++
		return token{kind: tokStar, pos: start}, nil
	case '=':
		l.pos++
		return token{kind: tokEq, pos: start}, nil
	case '<':
		l.pos++
		return token{kind: tokLt, pos: start}, nil
	case '>':
		l.pos++
		return token{kind: tokGt, pos: start}, nil
	case '?':
		l.pos++
		return token{kind: tokQMark, pos: start}, nil
	case '\'', '"':
		return l.lexString(rune(c))
	case '.':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
			return l.lexNumber()
		}
		l.pos++
		return token{kind: tokDot, pos: start}, nil
	}
	if c >= '0' && c <= '9' {
		return l.lexNumber()
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	if isNameStart(r) {
		return l.lexName()
	}
	return token{}, l.errAt(start, "unexpected character %q", c)
}

func (l *lexer) lexString(quote rune) (token, error) {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if r == quote {
			// Doubled quote is an escaped quote.
			if l.pos+size < len(l.src) && rune(l.src[l.pos+size]) == quote {
				b.WriteRune(quote)
				l.pos += 2 * size
				continue
			}
			l.pos += size
			return token{kind: tokString, text: b.String(), pos: start}, nil
		}
		b.WriteRune(r)
		l.pos += size
	}
	return token{}, l.errAt(start, "unterminated string literal")
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	isInt := true
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.pos++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		isInt = false
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		isInt = false
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.pos++
		}
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
	}
	text := l.src[start:l.pos]
	if isInt {
		// Integer literals are read exactly, never through a float64.
		iv, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return token{}, l.errAt(start, "FOAR0002: integer literal %s out of range", text)
		}
		return token{kind: tokNumber, text: text, pos: start, num: float64(iv), isInt: true, ival: iv}, nil
	}
	var val float64
	if _, err := fmt.Sscanf(text, "%g", &val); err != nil {
		return token{}, l.errAt(start, "bad number %q", text)
	}
	return token{kind: tokNumber, text: text, pos: start, num: val}, nil
}

func (l *lexer) lexName() (token, error) {
	start := l.pos
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isNameChar(r) {
			break
		}
		l.pos += size
	}
	// Allow one namespace-style colon inside a QName (name:name), but not
	// "::" which is an axis separator.
	if l.pos < len(l.src) && l.src[l.pos] == ':' &&
		l.pos+1 < len(l.src) && l.src[l.pos+1] != ':' && l.src[l.pos+1] != '=' {
		r, _ := utf8.DecodeRuneInString(l.src[l.pos+1:])
		if isNameStart(r) {
			l.pos++
			for l.pos < len(l.src) {
				r, size := utf8.DecodeRuneInString(l.src[l.pos:])
				if !isNameChar(r) {
					break
				}
				l.pos += size
			}
		}
	}
	return token{kind: tokName, text: l.src[start:l.pos], pos: start}, nil
}
