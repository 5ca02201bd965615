package storage

import (
	"testing"

	"xqp/internal/vocab"
)

// TestJSONPlainMatchesEscaper: the vocabulary flags a name JSON-plain
// exactly when jsonString, the escaper AppendXMLJSON writes names
// through, copies each of its bytes unchanged.
func TestJSONPlainMatchesEscaper(t *testing.T) {
	v := vocab.New()
	for c := 0; c < 256; c++ {
		name := "n" + string([]byte{byte(c)})
		if got, want := v.JSONPlain(v.Intern(name)), jsonString.plain[c]; got != want {
			t.Errorf("byte %#x: JSONPlain = %v, escaper plain = %v", c, got, want)
		}
	}
}
