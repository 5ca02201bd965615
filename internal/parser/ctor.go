package parser

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"xqp/internal/ast"
)

// parseDirectCtor parses a direct element constructor. The opening '<' has
// already been consumed by the token lexer; scanning proceeds over the raw
// source (constructors are a different lexical state than expressions) and
// re-enters the expression parser for enclosed {expr} blocks.
func (p *parser) parseDirectCtor() (ast.Expr, error) {
	e, end, err := p.scanElement(p.l.rawPos())
	if err != nil {
		return nil, err
	}
	p.l.setPos(end)
	return e, nil
}

// scanElement scans an element whose name starts at pos (after '<').
// It returns the constructor and the position just past the element.
func (p *parser) scanElement(pos int) (*ast.ElementCtor, int, error) {
	defer p.leave()
	if err := p.enter(pos); err != nil {
		return nil, 0, err
	}
	src := p.l.src
	name, pos, err := p.scanQName(pos)
	if err != nil {
		return nil, 0, err
	}
	e := &ast.ElementCtor{Name: name}
	for {
		pos = skipWS(src, pos)
		if pos >= len(src) {
			return nil, 0, p.l.errAt(pos, "unterminated element constructor <%s>", name)
		}
		if strings.HasPrefix(src[pos:], "/>") {
			return e, pos + 2, nil
		}
		if src[pos] == '>' {
			pos++
			return p.scanContent(e, pos)
		}
		// Attribute.
		aname, npos, err := p.scanQName(pos)
		if err != nil {
			return nil, 0, err
		}
		pos = skipWS(src, npos)
		if pos >= len(src) || src[pos] != '=' {
			return nil, 0, p.l.errAt(pos, "expected '=' after attribute name %q", aname)
		}
		pos = skipWS(src, pos+1)
		if pos >= len(src) || (src[pos] != '"' && src[pos] != '\'') {
			return nil, 0, p.l.errAt(pos, "expected quoted attribute value")
		}
		attr := ast.AttrConstructor{Name: aname}
		parts, npos2, err := p.scanAttrValue(pos)
		if err != nil {
			return nil, 0, err
		}
		attr.Parts = parts
		pos = npos2
		e.Attrs = append(e.Attrs, attr)
	}
}

// scanAttrValue scans a quoted attribute value template starting at the
// opening quote; returns the parts and the position past the closing quote.
func (p *parser) scanAttrValue(pos int) ([]ast.AttrValuePart, int, error) {
	src := p.l.src
	quote := src[pos]
	pos++
	var parts []ast.AttrValuePart
	var lit strings.Builder
	flush := func() {
		if lit.Len() > 0 {
			parts = append(parts, ast.AttrValuePart{Lit: lit.String()})
			lit.Reset()
		}
	}
	for pos < len(src) {
		c := src[pos]
		switch {
		case c == quote:
			if pos+1 < len(src) && src[pos+1] == quote {
				lit.WriteByte(quote)
				pos += 2
				continue
			}
			flush()
			return parts, pos + 1, nil
		case c == '{':
			if pos+1 < len(src) && src[pos+1] == '{' {
				lit.WriteByte('{')
				pos += 2
				continue
			}
			flush()
			expr, npos, err := p.parseEnclosed(pos + 1)
			if err != nil {
				return nil, 0, err
			}
			parts = append(parts, ast.AttrValuePart{Expr: expr})
			pos = npos
		case c == '}':
			if pos+1 < len(src) && src[pos+1] == '}' {
				lit.WriteByte('}')
				pos += 2
				continue
			}
			return nil, 0, p.l.errAt(pos, "unescaped '}' in attribute value")
		case c == '&':
			s, npos, err := p.scanEntity(pos)
			if err != nil {
				return nil, 0, err
			}
			lit.WriteString(s)
			pos = npos
		default:
			lit.WriteByte(c)
			pos++
		}
	}
	return nil, 0, p.l.errAt(pos, "unterminated attribute value")
}

// scanContent scans element content up to and including the matching end
// tag of e; returns the position past the end tag.
func (p *parser) scanContent(e *ast.ElementCtor, pos int) (*ast.ElementCtor, int, error) {
	src := p.l.src
	var lit strings.Builder
	flush := func() {
		if lit.Len() == 0 {
			return
		}
		s := lit.String()
		lit.Reset()
		// Boundary-space policy: strip whitespace-only text particles.
		if strings.TrimSpace(s) == "" {
			return
		}
		e.Content = append(e.Content, ast.ContentItem{Lit: s})
	}
	for pos < len(src) {
		switch {
		case strings.HasPrefix(src[pos:], "</"):
			flush()
			name, npos, err := p.scanQName(pos + 2)
			if err != nil {
				return nil, 0, err
			}
			npos = skipWS(src, npos)
			if npos >= len(src) || src[npos] != '>' {
				return nil, 0, p.l.errAt(npos, "malformed end tag </%s", name)
			}
			if name != e.Name {
				return nil, 0, p.l.errAt(pos, "end tag </%s> does not match <%s>", name, e.Name)
			}
			return e, npos + 1, nil
		case strings.HasPrefix(src[pos:], "<!--"):
			end := strings.Index(src[pos+4:], "-->")
			if end < 0 {
				return nil, 0, p.l.errAt(pos, "unterminated comment in constructor")
			}
			pos += 4 + end + 3
		case strings.HasPrefix(src[pos:], "<![CDATA["):
			end := strings.Index(src[pos+9:], "]]>")
			if end < 0 {
				return nil, 0, p.l.errAt(pos, "unterminated CDATA section")
			}
			lit.WriteString(src[pos+9 : pos+9+end])
			pos += 9 + end + 3
		case strings.HasPrefix(src[pos:], "<?"):
			end := strings.Index(src[pos+2:], "?>")
			if end < 0 {
				return nil, 0, p.l.errAt(pos, "unterminated processing instruction")
			}
			pos += 2 + end + 2
		case src[pos] == '<':
			flush()
			child, npos, err := p.scanElement(pos + 1)
			if err != nil {
				return nil, 0, err
			}
			e.Content = append(e.Content, ast.ContentItem{Child: child})
			pos = npos
		case src[pos] == '{':
			if pos+1 < len(src) && src[pos+1] == '{' {
				lit.WriteByte('{')
				pos += 2
				continue
			}
			flush()
			expr, npos, err := p.parseEnclosed(pos + 1)
			if err != nil {
				return nil, 0, err
			}
			e.Content = append(e.Content, ast.ContentItem{Expr: expr})
			pos = npos
		case src[pos] == '}':
			if pos+1 < len(src) && src[pos+1] == '}' {
				lit.WriteByte('}')
				pos += 2
				continue
			}
			return nil, 0, p.l.errAt(pos, "unescaped '}' in element content")
		case src[pos] == '&':
			s, npos, err := p.scanEntity(pos)
			if err != nil {
				return nil, 0, err
			}
			lit.WriteString(s)
			pos = npos
		default:
			lit.WriteByte(src[pos])
			pos++
		}
	}
	return nil, 0, p.l.errAt(pos, "missing end tag </%s>", e.Name)
}

// parseEnclosed re-enters the expression parser at pos (just past '{');
// returns the expression and the position just past the matching '}'.
func (p *parser) parseEnclosed(pos int) (ast.Expr, int, error) {
	p.l.setPos(pos)
	e, err := p.parseExpr()
	if err != nil {
		return nil, 0, err
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, 0, err
	}
	return e, p.l.rawPos(), nil
}

// scanQName scans an XML name at pos.
func (p *parser) scanQName(pos int) (string, int, error) {
	src := p.l.src
	start := pos
	if pos >= len(src) {
		return "", 0, p.l.errAt(pos, "expected name")
	}
	r, size := utf8.DecodeRuneInString(src[pos:])
	if !isNameStart(r) {
		return "", 0, p.l.errAt(pos, "expected name, found %q", src[pos])
	}
	pos += size
	for pos < len(src) {
		r, size := utf8.DecodeRuneInString(src[pos:])
		if !isNameChar(r) && r != ':' {
			break
		}
		pos += size
	}
	return src[start:pos], pos, nil
}

// scanEntity decodes a character/entity reference starting at '&'.
func (p *parser) scanEntity(pos int) (string, int, error) {
	src := p.l.src
	semi := strings.IndexByte(src[pos:], ';')
	if semi < 0 || semi > 12 {
		return "", 0, p.l.errAt(pos, "malformed entity reference")
	}
	ref := src[pos+1 : pos+semi]
	end := pos + semi + 1
	switch ref {
	case "lt":
		return "<", end, nil
	case "gt":
		return ">", end, nil
	case "amp":
		return "&", end, nil
	case "apos":
		return "'", end, nil
	case "quot":
		return `"`, end, nil
	}
	if strings.HasPrefix(ref, "#x") || strings.HasPrefix(ref, "#X") {
		n, err := strconv.ParseInt(ref[2:], 16, 32)
		if err != nil {
			return "", 0, p.l.errAt(pos, "bad character reference &%s;", ref)
		}
		return string(rune(n)), end, nil
	}
	if strings.HasPrefix(ref, "#") {
		n, err := strconv.ParseInt(ref[1:], 10, 32)
		if err != nil {
			return "", 0, p.l.errAt(pos, "bad character reference &%s;", ref)
		}
		return string(rune(n)), end, nil
	}
	return "", 0, p.l.errAt(pos, fmt.Sprintf("unknown entity &%s;", ref))
}

func skipWS(src string, pos int) int {
	for pos < len(src) {
		switch src[pos] {
		case ' ', '\t', '\n', '\r':
			pos++
		default:
			return pos
		}
	}
	return pos
}
