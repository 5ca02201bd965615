package storage

import (
	"unicode/utf8"

	"xqp/internal/vocab"
	"xqp/internal/xmldoc"
)

// AppendXML appends the XML serialization of the subtree rooted at n to
// dst and returns the extended buffer. An attribute serializes as
// name="value", a text node as its escaped content, the document root as
// the concatenation of its children.
//
// The subtree is one contiguous parenthesis interval, so serialization is
// a single forward scan from Open(n) until n's parenthesis closes: an
// opening parenthesis is the next node in pre-order, whose tag, kind and
// content are read by that number, and a closing one ends the innermost
// open element, kept on a small stack. No DOM is built and no node is
// located by FindClose or rank.
//
// The output is byte-identical to serializing SubtreeDoc(n) with
// xmldoc.Document.XMLString, which remains the reference:
//   - empty text nodes are dropped and adjacent text siblings are merged
//     before escaping, as xmldoc.Builder.Text does, so an element whose
//     only non-attribute children are empty texts prints as <a/>;
//   - attributes print inside the start tag while no other child has
//     been seen; a later attribute is dropped;
//   - escaping works rune by rune, so an invalid UTF-8 byte becomes
//     U+FFFD.
//
// With an Accountant installed, every parenthesis and content item read
// is charged, as the navigation accessors charge theirs.
func (s *Store) AppendXML(dst []byte, n NodeRef) []byte {
	return s.appendSubtree(dst, n, &xmlSyntax)
}

// AppendXMLJSON appends what encoding/json writes for the string
// AppendXML(nil, n), without the enclosing quotes: the XML serialization
// escaped as the body of a JSON string, HTML escaping on. It makes the
// same single scan as AppendXML and writes each byte once: tokens are
// appended already escaped, and text and attribute values are escaped
// for XML and JSON in one pass.
func (s *Store) AppendXMLJSON(dst []byte, n NodeRef) []byte {
	return s.appendSubtree(dst, n, &jsonSyntax)
}

// appendSubtree is the scan behind AppendXML and AppendXMLJSON; sx
// supplies the tokens and escapers it writes with.
func (s *Store) appendSubtree(dst []byte, n NodeRef, sx *syntax) []byte {
	words := s.Seq.Words()
	var stackBuf [32]NodeRef
	stack := stackBuf[:0] // open elements and the document root
	tagOpen := false      // the innermost element's start tag still lacks its '>'
	pend := ""            // text held back so that adjacent text siblings are escaped as one
	p, r := int(s.openPos[n]), n
	for {
		s.touchStructure(p)
		if words[p>>6]>>(uint(p)&63)&1 == 0 {
			// A closing parenthesis ends the innermost open node.
			if pend != "" {
				dst = sx.text.append(dst, pend)
				pend = ""
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if s.kinds[top] == xmldoc.KindElement {
				if tagOpen {
					dst = appendToken(dst, sx.emptyEnd)
				} else {
					dst = appendToken(dst, sx.endOpen)
					dst = s.appendName(dst, sx, s.tags[top], 0)
					dst = appendToken(dst, sx.gt)
				}
				tagOpen = false
			}
			p++
		} else {
			kind := s.kinds[r]
			val := ""
			if idx := s.cref[r]; idx >= 0 {
				s.touchContent(idx)
				val = s.content[idx]
			}
			// Everything but an attribute or an empty text is a child in
			// the DOM sense and ends its parent's start tag; everything
			// but text ends a run of text siblings.
			if tagOpen && kind != xmldoc.KindAttribute && (kind != xmldoc.KindText || val != "") {
				dst = appendToken(dst, sx.gt)
				tagOpen = false
			}
			if kind != xmldoc.KindText && pend != "" {
				dst = sx.text.append(dst, pend)
				pend = ""
			}
			p++
			switch kind {
			case xmldoc.KindDocument:
				stack = append(stack, r)
			case xmldoc.KindElement:
				dst = appendToken(dst, sx.lt)
				dst = s.appendName(dst, sx, s.tags[r], 0)
				tagOpen = true
				stack = append(stack, r)
			case xmldoc.KindText:
				if pend == "" {
					pend = val
				} else if val != "" {
					pend += val // only text siblings left adjacent by updates
				}
			case xmldoc.KindAttribute:
				inElement := len(stack) > 0 && s.kinds[stack[len(stack)-1]] == xmldoc.KindElement
				if inElement && !tagOpen {
					break
				}
				if inElement {
					dst = append(dst, ' ')
				}
				dst = s.appendName(dst, sx, s.tags[r], 1)
				dst = appendToken(dst, sx.attrOpen)
				dst = sx.attr.append(dst, val)
				dst = appendToken(dst, sx.quote)
			case xmldoc.KindComment:
				dst = appendToken(dst, sx.commentOpen)
				dst = sx.raw.append(dst, val)
				dst = appendToken(dst, sx.commentEnd)
			case xmldoc.KindPI:
				dst = appendToken(dst, sx.piOpen)
				dst = s.appendName(dst, sx, s.tags[r], 1)
				dst = append(dst, ' ')
				dst = sx.raw.append(dst, val)
				dst = appendToken(dst, sx.piEnd)
			}
			if kind != xmldoc.KindDocument && kind != xmldoc.KindElement {
				p++ // a leaf's closing parenthesis follows its opening one
			}
			r++
		}
		if len(stack) == 0 {
			break
		}
	}
	if pend != "" {
		dst = sx.text.append(dst, pend)
	}
	return dst
}

// syntax is what appendSubtree writes with: its literal tokens, the
// escaper of text and the one of attribute values, and raw, the escaper
// of what XML prints unescaped (names, comment and PI content): nil for
// XML, jsonString for JSON.
type syntax struct {
	lt, gt, endOpen, emptyEnd string // "<", ">", "</", "/>"
	attrOpen, quote           string // `="`, `"`
	commentOpen, commentEnd   string // "<!--", "-->"
	piOpen, piEnd             string // "<?", "?>"
	text, attr, raw           *escaper
}

// appendToken appends one of a syntax's tokens. A one-byte token is
// appended as a byte, which spares XML's most frequent tokens a copy
// call.
func appendToken(dst []byte, tok string) []byte {
	if len(tok) == 1 {
		return append(dst, tok[0])
	}
	return append(dst, tok...)
}

// escaper rewrites a string byte by byte through a table. Plain ASCII
// bytes are copied in runs; any other byte starts a UTF-8 sequence that
// is decoded, so an invalid byte can be replaced. A nil escaper copies
// its input unchanged.
type escaper struct {
	plain   [256]bool             // the bytes copied as they are
	ascii   [utf8.RuneSelf]string // the replacement of every other ASCII byte
	invalid string                // the replacement of a byte that is not valid UTF-8
	lineSep bool                  // U+2028 and U+2029 become \u2028 and \u2029, as in encoding/json
}

// newEscaper builds an escaper from its ASCII replacements.
func newEscaper(ascii map[byte]string, invalid string, lineSep bool) *escaper {
	e := &escaper{invalid: invalid, lineSep: lineSep}
	for c := 0; c < utf8.RuneSelf; c++ {
		e.ascii[c] = ascii[byte(c)]
		e.plain[c] = e.ascii[c] == ""
	}
	return e
}

// then composes e with a second escaper j: its output is j applied to
// e's output. That holds because e leaves every valid multi-byte
// character as it is, so only ASCII bytes and invalid bytes change.
func (e *escaper) then(j *escaper) *escaper {
	c := &escaper{invalid: string(j.append(nil, e.invalid)), lineSep: e.lineSep || j.lineSep}
	for b := 0; b < utf8.RuneSelf; b++ {
		out := e.ascii[b]
		if out == "" {
			out = string(rune(b))
		}
		if out = string(j.append(nil, out)); out != string(rune(b)) {
			c.ascii[b] = out
		}
		c.plain[b] = c.ascii[b] == ""
	}
	return c
}

// append appends s to dst through the escaper.
func (e *escaper) append(dst []byte, s string) []byte {
	if e == nil {
		return append(dst, s...)
	}
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if e.plain[c] {
			i++
			continue
		}
		esc, size := "", 1
		if c < utf8.RuneSelf {
			esc = e.ascii[c]
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				esc = e.invalid
			case e.lineSep && r == '\u2028':
				esc = `\u2028`
			case e.lineSep && r == '\u2029':
				esc = `\u2029`
			}
		}
		if esc != "" {
			dst = append(dst, s[start:i]...)
			dst = append(dst, esc...)
			start = i + size
		}
		i += size
	}
	return append(dst, s[start:]...)
}

// appendName appends the tag, attribute or PI name of symbol sym, less
// the first skip bytes (the "@" or "?" that storage prefixes attribute
// and PI names with), through sx.raw. That escaper is nil or jsonString,
// and the vocabulary records once per name whether jsonString leaves it
// unchanged, so plain names, the rule in practice, are copied as they
// are.
func (s *Store) appendName(dst []byte, sx *syntax, sym vocab.Symbol, skip int) []byte {
	name := s.Vocab.Name(sym)[skip:]
	if sx.raw == nil || s.Vocab.JSONPlain(sym) {
		return append(dst, name...)
	}
	return sx.raw.append(dst, name)
}

var (
	// xmlText and xmlAttr escape text and attribute values as xmldoc's
	// serializer does: entity references for &, < and > (and " in an
	// attribute), and U+FFFD for each invalid UTF-8 byte.
	xmlText = newEscaper(map[byte]string{'&': "&amp;", '<': "&lt;", '>': "&gt;"}, string(utf8.RuneError), false)
	xmlAttr = newEscaper(map[byte]string{'&': "&amp;", '<': "&lt;", '>': "&gt;", '"': "&quot;"}, string(utf8.RuneError), false)

	// jsonString escapes as encoding/json escapes a string with HTML
	// escaping on: \" and \\, short escapes for \b \f \n \r \t,
	// \u00XX for the other control bytes and for <, > and &, \ufffd
	// for an invalid byte, and \u2028 and \u2029.
	jsonString = func() *escaper {
		m := map[byte]string{'"': `\"`, '\\': `\\`, '\b': `\b`, '\f': `\f`, '\n': `\n`, '\r': `\r`, '\t': `\t`}
		const hex = "0123456789abcdef"
		for _, c := range []byte{'<', '>', '&'} {
			m[c] = `\u00` + string(hex[c>>4]) + string(hex[c&15])
		}
		for c := byte(0); c < 0x20; c++ {
			if m[c] == "" {
				m[c] = `\u00` + string(hex[c>>4]) + string(hex[c&15])
			}
		}
		return newEscaper(m, `\ufffd`, true)
	}()

	xmlSyntax = syntax{
		lt: "<", gt: ">", endOpen: "</", emptyEnd: "/>",
		attrOpen: `="`, quote: `"`,
		commentOpen: "<!--", commentEnd: "-->",
		piOpen: "<?", piEnd: "?>",
		text: xmlText, attr: xmlAttr,
	}
	jsonSyntax = func() syntax {
		j := func(tok string) string { return string(jsonString.append(nil, tok)) }
		x := xmlSyntax
		return syntax{
			lt: j(x.lt), gt: j(x.gt), endOpen: j(x.endOpen), emptyEnd: j(x.emptyEnd),
			attrOpen: j(x.attrOpen), quote: j(x.quote),
			commentOpen: j(x.commentOpen), commentEnd: j(x.commentEnd),
			piOpen: j(x.piOpen), piEnd: j(x.piEnd),
			text: x.text.then(jsonString), attr: x.attr.then(jsonString), raw: jsonString,
		}
	}()
)

// AppendJSONEscaped appends s escaped as the body of a JSON string,
// exactly as encoding/json escapes it (HTML escaping on), without the
// enclosing quotes.
func AppendJSONEscaped(dst []byte, s string) []byte {
	return jsonString.append(dst, s)
}
