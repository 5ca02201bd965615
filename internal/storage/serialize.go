package storage

import (
	"unicode/utf8"

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
				dst = appendEscaped(dst, pend, false)
				pend = ""
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if s.kinds[top] == xmldoc.KindElement {
				if tagOpen {
					dst = append(dst, "/>"...)
				} else {
					dst = append(dst, "</"...)
					dst = append(dst, s.Vocab.Name(s.tags[top])...)
					dst = append(dst, '>')
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
				dst = append(dst, '>')
				tagOpen = false
			}
			if kind != xmldoc.KindText && pend != "" {
				dst = appendEscaped(dst, pend, false)
				pend = ""
			}
			p++
			switch kind {
			case xmldoc.KindDocument:
				stack = append(stack, r)
			case xmldoc.KindElement:
				dst = append(dst, '<')
				dst = append(dst, s.Vocab.Name(s.tags[r])...)
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
				dst = append(dst, s.Vocab.Name(s.tags[r])[1:]...)
				dst = append(dst, `="`...)
				dst = appendEscaped(dst, val, true)
				dst = append(dst, '"')
			case xmldoc.KindComment:
				dst = append(dst, "<!--"...)
				dst = append(dst, val...)
				dst = append(dst, "-->"...)
			case xmldoc.KindPI:
				dst = append(dst, "<?"...)
				dst = append(dst, s.Vocab.Name(s.tags[r])[1:]...)
				dst = append(dst, ' ')
				dst = append(dst, val...)
				dst = append(dst, "?>"...)
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
		dst = appendEscaped(dst, pend, false)
	}
	return dst
}

// plainByte marks the ASCII bytes that serialize as themselves in both
// text and attribute values.
var plainByte = func() (t [256]bool) {
	for c := 0; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `<>&"` {
		t[c] = false
	}
	return t
}()

// appendEscaped appends s with &, < and > (and " when attr) replaced by
// entity references. Like xmldoc's serializer it decodes rune by rune,
// so each invalid UTF-8 byte comes out as U+FFFD; runs of bytes that
// need no change are copied in one append.
func appendEscaped(dst []byte, s string, attr bool) []byte {
	start := 0
	for i := 0; i < len(s); {
		if plainByte[s[i]] {
			i++
			continue
		}
		esc, size := "", 1
		switch s[i] {
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '&':
			esc = "&amp;"
		case '"':
			if attr {
				esc = "&quot;"
			}
		default: // the first byte of a multi-byte sequence
			var r rune
			r, size = utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				esc = string(utf8.RuneError)
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
