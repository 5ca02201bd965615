package pattern_test

import (
	"testing"

	"xqp/internal/storage"
)

func mustStore(t testing.TB, xml string) *storage.Store {
	t.Helper()
	st, err := storage.LoadString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
