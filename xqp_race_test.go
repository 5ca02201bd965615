package xqp

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"xqp/internal/xmark"
)

// TestConcurrentCostBasedQueries hammers one shared Database with
// cost-based queries from many goroutines. The Database godoc promises
// this is safe: the primary document's synopsis is built once when the
// Database is constructed and the read path takes only a read lock. Run
// under -race this guards against regressions to lazy, unsynchronized
// chooser or synopsis initialization on the query path.
func TestConcurrentCostBasedQueries(t *testing.T) {
	db := FromStore(xmark.StoreAuction(2))
	queries := []string{
		"//profile/interest",
		"/site/regions/*/item/name",
		"//person/name",
		"for $i in /site/regions/africa/item return $i/name",
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				src := queries[(w+i)%len(queries)]
				res, err := db.QueryWith(src, Options{CostBased: true, Trace: i%2 == 0})
				if err != nil {
					errs <- fmt.Errorf("worker %d: %q: %w", w, src, err)
					return
				}
				if res.Len() == 0 {
					errs <- fmt.Errorf("worker %d: %q: empty result", w, src)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentQueriesWithCatalogChurn interleaves cost-based queries
// with AddDocument replacements, exercising the locked catalog.
func TestConcurrentCostBasedWithCatalogChurn(t *testing.T) {
	db := FromStore(xmark.StoreBib(4))
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, err := db.QueryWith("//book/title", Options{CostBased: true}); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			uri := fmt.Sprintf("aux%d.xml", i%3)
			if err := db.AddDocument(uri, strings.NewReader("<aux><v>1</v></aux>")); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestExplainAnalyze(t *testing.T) {
	db := FromStore(xmark.StoreAuction(1))
	out, err := db.ExplainAnalyze("//item[location][quantity]/name")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"chosen=", "executed=", "est{nok=", "actual{", "matches="} {
		if !strings.Contains(out, want) {
			t.Errorf("ExplainAnalyze output missing %q:\n%s", want, out)
		}
	}
}
