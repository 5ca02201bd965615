package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"xqp/internal/compile"
	"xqp/internal/cost"
	"xqp/internal/exec"
	"xqp/internal/stats"
	"xqp/internal/storage"
	"xqp/internal/xmark"
	"xqp/internal/xmldoc"
)

const bibXML = `<bib>
  <book year="1994"><title>TCP/IP Illustrated</title><author><last>Stevens</last></author><price>65.95</price></book>
  <book year="2000"><title>Data on the Web</title><author><last>Abiteboul</last></author><price>39.95</price></book>
</bib>`

func newBibEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	if err := e.Register("bib.xml", strings.NewReader(bibXML)); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestQueryBasic(t *testing.T) {
	e := newBibEngine(t, Config{})
	res, err := e.Query(context.Background(), "bib.xml", `//book/title`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seq) != 2 {
		t.Fatalf("got %d items, want 2", len(res.Seq))
	}
	if res.Cached {
		t.Fatal("first execution reported Cached")
	}
	if res.Generation != 1 {
		t.Fatalf("generation = %d, want 1", res.Generation)
	}
}

func TestUnknownDocument(t *testing.T) {
	e := newBibEngine(t, Config{})
	_, err := e.Query(context.Background(), "nope.xml", `//a`, QueryOptions{})
	if !errors.Is(err, ErrUnknownDocument) {
		t.Fatalf("err = %v, want ErrUnknownDocument", err)
	}
	if err := e.Close("nope.xml"); !errors.Is(err, ErrUnknownDocument) {
		t.Fatalf("Close err = %v, want ErrUnknownDocument", err)
	}
	if err := e.Close("bib.xml"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(context.Background(), "bib.xml", `//a`, QueryOptions{}); !errors.Is(err, ErrUnknownDocument) {
		t.Fatalf("after Close err = %v, want ErrUnknownDocument", err)
	}
}

// TestCacheHitSkipsCompilation is the tentpole acceptance check: a plan
// cache hit must perform zero parse/translate/analyze/rewrite work,
// observed through the pipeline-run counter.
func TestCacheHitSkipsCompilation(t *testing.T) {
	e := newBibEngine(t, Config{})
	const q = `//book[price > 40.0]/title`
	for i := 0; i < 5; i++ {
		res, err := e.Query(context.Background(), "bib.xml", q, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if wantCached := i > 0; res.Cached != wantCached {
			t.Fatalf("run %d: Cached = %v, want %v", i, res.Cached, wantCached)
		}
		if len(res.Seq) != 1 {
			t.Fatalf("run %d: got %d items, want 1", i, len(res.Seq))
		}
	}
	s := e.Stats()
	if s.Compilations != 1 {
		t.Fatalf("Compilations = %d, want 1 (cache hits must not compile)", s.Compilations)
	}
	if s.CacheHits != 4 || s.CacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 4/1", s.CacheHits, s.CacheMisses)
	}
	if s.CachedPlans != 1 {
		t.Fatalf("CachedPlans = %d, want 1", s.CachedPlans)
	}
	if got := s.HitRate(); got != 0.8 {
		t.Fatalf("HitRate = %v, want 0.8", got)
	}
}

func TestOptionsFingerprintSeparatesPlans(t *testing.T) {
	e := newBibEngine(t, Config{})
	const q = `//book/title`
	if _, err := e.Query(context.Background(), "bib.xml", q, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	// Different plan-shaping flags must not share a cache slot.
	res, err := e.Query(context.Background(), "bib.xml", q, QueryOptions{DisableRewrites: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("different options fingerprint served a cached plan")
	}
	// Exec-only knobs (Strategy, CostBased) share the compiled plan.
	res, err = e.Query(context.Background(), "bib.xml", q, QueryOptions{Strategy: exec.StrategyTwigStack, CostBased: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("exec-only option variation missed the cache")
	}
	if s := e.Stats(); s.Compilations != 2 {
		t.Fatalf("Compilations = %d, want 2", s.Compilations)
	}
}

func TestNoCacheBypasses(t *testing.T) {
	e := newBibEngine(t, Config{})
	for i := 0; i < 3; i++ {
		res, err := e.Query(context.Background(), "bib.xml", `//book`, QueryOptions{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatal("NoCache query served from cache")
		}
	}
	if s := e.Stats(); s.Compilations != 3 || s.CachedPlans != 0 {
		t.Fatalf("Compilations/CachedPlans = %d/%d, want 3/0", s.Compilations, s.CachedPlans)
	}
}

func TestDisabledCache(t *testing.T) {
	e := newBibEngine(t, Config{PlanCacheSize: -1})
	for i := 0; i < 2; i++ {
		res, err := e.Query(context.Background(), "bib.xml", `//book`, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatal("disabled cache served a plan")
		}
	}
	if s := e.Stats(); s.Compilations != 2 {
		t.Fatalf("Compilations = %d, want 2", s.Compilations)
	}
}

// TestUpdateInvalidatesPlans: bumping the generation must force a fresh
// compile (stale plans keyed on the old generation are never served) and
// results must reflect the new content.
func TestUpdateInvalidatesPlans(t *testing.T) {
	e := newBibEngine(t, Config{})
	const q = `//book/title`
	res, err := e.Query(context.Background(), "bib.xml", q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seq) != 2 {
		t.Fatalf("got %d titles, want 2", len(res.Seq))
	}
	err = e.Update("bib.xml", func(st *storage.Store) (*storage.Store, error) {
		frag := xmldoc.MustParse(`<book year="2004"><title>XQuery</title><price>25.00</price></book>`)
		out, _, err := st.InsertChild(st.DocumentElement(), frag)
		return out, err
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err = e.Query(context.Background(), "bib.xml", q, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("post-update query served the stale plan")
	}
	if res.Generation != 2 {
		t.Fatalf("generation = %d, want 2", res.Generation)
	}
	if len(res.Seq) != 3 {
		t.Fatalf("got %d titles after insert, want 3", len(res.Seq))
	}
	if s := e.Stats(); s.Compilations != 2 {
		t.Fatalf("Compilations = %d, want 2", s.Compilations)
	}
}

// TestCloseReregisterDoesNotServeStalePlans: generations must stay
// monotonic across Close + Register of the same name, or the cache key
// (doc, gen, query, fp) would collide with plans compiled against the
// old content — worst case a plan the analyzer pruned to provably-empty
// against the old synopsis, returning zero rows from the new document.
func TestCloseReregisterDoesNotServeStalePlans(t *testing.T) {
	e := New(Config{})
	ctx := context.Background()
	if err := e.Register("d.xml", strings.NewReader(`<a><c/></a>`)); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(ctx, "d.xml", `//b`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seq) != 0 {
		t.Fatalf("got %d items from <a><c/></a>, want 0", len(res.Seq))
	}
	if err := e.Close("d.xml"); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("d.xml", strings.NewReader(`<a><b/></a>`)); err != nil {
		t.Fatal(err)
	}
	res, err = e.Query(ctx, "d.xml", `//b`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("re-registered document served a plan cached against the old content")
	}
	if res.Generation <= 1 {
		t.Fatalf("generation = %d after close + re-register, want > 1", res.Generation)
	}
	if len(res.Seq) != 1 {
		t.Fatalf("got %d items from <a><b/></a>, want 1", len(res.Seq))
	}
}

// TestPagesTouchedMonotonic: updates and re-registrations must not reset
// the page-touch counter (rate/delta monitors rely on it never dropping).
func TestPagesTouchedMonotonic(t *testing.T) {
	e := New(Config{TrackPages: true})
	ctx := context.Background()
	if err := e.Register("bib.xml", strings.NewReader(bibXML)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(ctx, "bib.xml", `//book/title`, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	p1 := e.Stats().PagesTouched
	if p1 == 0 {
		t.Fatal("TrackPages on but PagesTouched = 0 after a query")
	}
	err := e.Update("bib.xml", func(st *storage.Store) (*storage.Store, error) {
		frag := xmldoc.MustParse(`<book><title>More</title></book>`)
		out, _, err := st.InsertChild(st.DocumentElement(), frag)
		return out, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if p2 := e.Stats().PagesTouched; p2 < p1 {
		t.Fatalf("PagesTouched dropped from %d to %d after Update", p1, p2)
	}
	if err := e.Register("bib.xml", strings.NewReader(bibXML)); err != nil {
		t.Fatal(err)
	}
	if p3 := e.Stats().PagesTouched; p3 < p1 {
		t.Fatalf("PagesTouched dropped from %d to %d after re-Register", p1, p3)
	}
	if _, err := e.Query(ctx, "bib.xml", `//book/title`, QueryOptions{NoCache: true}); err != nil {
		t.Fatal(err)
	}
	if p4 := e.Stats().PagesTouched; p4 <= p1 {
		t.Fatalf("PagesTouched = %d after post-replace query, want > %d", p4, p1)
	}
}

// TestConcurrentRegisterAndRead races registration, close, and the read
// paths (Query/Docs/Stats): a catalog entry must never be observable
// with a nil store snapshot. Run under -race in CI.
func TestConcurrentRegisterAndRead(t *testing.T) {
	e := New(Config{TrackPages: true})
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 40; i++ {
			e.RegisterStore("r.xml", storage.MustLoad(bibXML))
			if i%4 == 3 {
				if err := e.Close("r.xml"); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_, err := e.Query(context.Background(), "r.xml", `//book`, QueryOptions{})
				if err != nil && !errors.Is(err, ErrUnknownDocument) && !errors.Is(err, ErrSaturated) {
					t.Error(err)
					return
				}
				e.Docs()
				e.Stats()
			}
		}()
	}
	wg.Wait()
}

func TestLRUEviction(t *testing.T) {
	e := newBibEngine(t, Config{PlanCacheSize: 2})
	ctx := context.Background()
	queries := []string{`//book`, `//book/title`, `//book/price`}
	for _, q := range queries {
		if _, err := e.Query(ctx, "bib.xml", q, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.cache.len(); got != 2 {
		t.Fatalf("cache len = %d, want 2", got)
	}
	// queries[0] was evicted; querying it again recompiles.
	res, err := e.Query(ctx, "bib.xml", queries[0], QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("evicted plan served from cache")
	}
}

func TestDocsAndStats(t *testing.T) {
	e := newBibEngine(t, Config{})
	e.RegisterStore("deep.xml", xmark.StoreDeep(2, 3))
	docs := e.Docs()
	if len(docs) != 2 || docs[0].Name != "bib.xml" || docs[1].Name != "deep.xml" {
		t.Fatalf("Docs() = %+v", docs)
	}
	if docs[0].Generation != 1 || docs[0].Nodes == 0 || docs[0].Elements == 0 {
		t.Fatalf("bib info = %+v", docs[0])
	}
	if _, err := e.Query(context.Background(), "bib.xml", `//book`, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Served != 1 || s.Documents != 2 {
		t.Fatalf("snapshot = %+v", s)
	}
	if !strings.Contains(e.Var().String(), `"served":1`) {
		t.Fatalf("expvar output missing served count: %s", e.Var().String())
	}
	if n := len(ExecHistBounds()); n != len(s.ExecHist)-1 {
		t.Fatalf("hist bounds %d vs buckets %d", n, len(s.ExecHist))
	}
}

// TestCrossDocumentQuery: doc() references resolve against the catalog,
// and unknown URIs fail (StrictDocs) instead of silently falling back.
func TestCrossDocumentQuery(t *testing.T) {
	e := newBibEngine(t, Config{})
	e.RegisterStore("wide.xml", xmark.StoreWide(4))
	res, err := e.Query(context.Background(), "wide.xml", `doc("bib.xml")//book/title`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seq) != 2 {
		t.Fatalf("cross-doc query got %d items, want 2", len(res.Seq))
	}
	if _, err := e.Query(context.Background(), "bib.xml", `doc("ghost.xml")//a`, QueryOptions{}); err == nil {
		t.Fatal("doc() of unregistered URI succeeded")
	}
}

// TestCrossDocumentSeesCurrentGeneration: doc("other") reads the other
// document's current generation, also after a commit to it, and the
// cached plan of the querying document is reused meanwhile.
func TestCrossDocumentSeesCurrentGeneration(t *testing.T) {
	e := newBibEngine(t, Config{})
	e.RegisterStore("wide.xml", xmark.StoreWide(4))
	count := func() (string, bool) {
		t.Helper()
		res, err := e.Query(context.Background(), "wide.xml", `count(doc("bib.xml")//book)`, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seq.String(), res.Cached
	}
	if got, _ := count(); got != "2" {
		t.Fatalf("before the commit: count = %s, want 2", got)
	}
	if _, err := e.Apply("bib.xml", []Mutation{{Op: MutationInsert, Path: "/", XML: `<book><title>T</title></book>`}}); err != nil {
		t.Fatal(err)
	}
	got, cached := count()
	if got != "3" {
		t.Fatalf("after the commit: count = %s, want 3", got)
	}
	if !cached {
		t.Fatal("a commit to another document invalidated the plan")
	}
}

func TestSaturation(t *testing.T) {
	e := newBibEngine(t, Config{MaxConcurrent: 1, QueueDepth: -1})
	// Occupy the only admission ticket: with no queue, the next query
	// must be refused immediately rather than waiting.
	e.tickets <- struct{}{}
	start := time.Now()
	_, err := e.Query(context.Background(), "bib.xml", `//book`, QueryOptions{})
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("saturation rejection took %v, want fast-fail", elapsed)
	}
	if e.Stats().Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", e.Stats().Rejected)
	}
	<-e.tickets
	if _, err := e.Query(context.Background(), "bib.xml", `//book`, QueryOptions{}); err != nil {
		t.Fatalf("query after release: %v", err)
	}
}

func TestQueueWaitCancellation(t *testing.T) {
	e := New(Config{MaxConcurrent: 1, QueueDepth: 1})
	e.RegisterStore("bib.xml", storage.MustLoad(bibXML))
	// Fill the slot manually so the next query queues.
	e.slots <- struct{}{}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := e.Query(ctx, "bib.xml", `//book`, QueryOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued query err = %v, want DeadlineExceeded", err)
	}
	<-e.slots
	if e.Stats().Canceled != 1 {
		t.Fatal("Canceled counter not incremented")
	}
}

// bigDeepStore is a wide-but-shallow corpus (~1M nodes, tiny synopsis):
// execution of a multi-descendant scan takes hundreds of milliseconds
// while compilation stays trivial, so the deadline tests below exercise
// cancellation *inside* the τ scan rather than around it. Built once.
var (
	bigDeepOnce  sync.Once
	bigDeepStore *storage.Store
)

// scanQuery fuses into a single τ with four descendant edges.
const scanQuery = `//section//section//section//title`

// scanOpts pins the scan to the navigational NoK matcher. The cost-chosen
// default runs this τ through the compiled batch kernel, which finishes it
// in tens of milliseconds: too quick to see a deadline cut it short. The
// kernel's own poll discipline is tested in package nok
// (TestBatchedInterrupt).
var scanOpts = QueryOptions{NoCache: true, Strategy: exec.StrategyNoK}

func bigDeep() *storage.Store {
	bigDeepOnce.Do(func() { bigDeepStore = xmark.StoreDeep(20000, 25) })
	return bigDeepStore
}

// scanBaseline measures the uncancelled scan so the deadline tests have
// a machine-calibrated reference.
func scanBaseline(t *testing.T, e *Engine) time.Duration {
	t.Helper()
	start := time.Now()
	if _, err := e.Query(context.Background(), "deep.xml", scanQuery, scanOpts); err != nil {
		t.Fatal(err)
	}
	baseline := time.Since(start)
	if baseline < 50*time.Millisecond {
		t.Skipf("baseline scan finished in %v: too fast to observe an early abort", baseline)
	}
	return baseline
}

// TestDeadlineAbortsDescendantScan proves cancellation reaches inside a
// single long τ evaluation: the deadline fires mid-scan, the query
// returns context.DeadlineExceeded, and it does so far sooner than the
// uncancelled run.
func TestDeadlineAbortsDescendantScan(t *testing.T) {
	e := New(Config{})
	e.RegisterStore("deep.xml", bigDeep())
	baseline := scanBaseline(t, e)
	deadline := baseline / 20
	if deadline < 2*time.Millisecond {
		deadline = 2 * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err := e.Query(ctx, "deep.xml", scanQuery, scanOpts)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > baseline/2 {
		t.Fatalf("cancelled run took %v, baseline %v: deadline did not abort the scan early", elapsed, baseline)
	}
	if e.Stats().Canceled == 0 {
		t.Fatal("Canceled counter not incremented")
	}
}

func TestDefaultTimeout(t *testing.T) {
	base := New(Config{})
	base.RegisterStore("deep.xml", bigDeep())
	scanBaseline(t, base) // skips on machines where the scan is instant
	e := New(Config{DefaultTimeout: 5 * time.Millisecond})
	e.RegisterStore("deep.xml", bigDeep())
	_, err := e.Query(context.Background(), "deep.xml", scanQuery, scanOpts)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded from DefaultTimeout", err)
	}
}

// TestConcurrentMixedQueries is the shared-document race test: many
// goroutines run a mix of cached, uncached, strategy-forced, and
// cost-based queries against one document while updates bump its
// generation. Run under -race in CI.
func TestConcurrentMixedQueries(t *testing.T) {
	e := New(Config{MaxConcurrent: 8, QueueDepth: 64, TrackPages: true})
	e.RegisterStore("auction.xml", xmark.StoreAuction(2))
	queries := []struct {
		q    string
		opts QueryOptions
	}{
		{`//item/name`, QueryOptions{}},
		{`//item[payment]/name`, QueryOptions{Strategy: exec.StrategyTwigStack}},
		{`//person//name`, QueryOptions{CostBased: true}},
		{`//item/name`, QueryOptions{NoCache: true}},
		{`for $i in //item return $i/name`, QueryOptions{DisableRewrites: true}},
		{`//region//item[name]`, QueryOptions{}},
	}
	const (
		goroutines = 8
		rounds     = 12
	)
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines+1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				mix := queries[(g+r)%len(queries)]
				_, err := e.Query(context.Background(), "auction.xml", mix.q, mix.opts)
				if err != nil && !errors.Is(err, ErrSaturated) {
					errCh <- fmt.Errorf("goroutine %d round %d: %w", g, r, err)
					return
				}
			}
		}(g)
	}
	// Concurrent updates: generation bumps while queries are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 4; r++ {
			err := e.Update("auction.xml", func(st *storage.Store) (*storage.Store, error) {
				frag := xmldoc.MustParse(`<item id="x"><name>spare</name></item>`)
				out, _, err := st.InsertChild(st.DocumentElement(), frag)
				return out, err
			})
			if err != nil {
				errCh <- fmt.Errorf("update %d: %w", r, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	s := e.Stats()
	if s.Served == 0 || s.Compilations == 0 {
		t.Fatalf("suspicious snapshot: %+v", s)
	}
	if s.Served+s.Rejected+s.Failed+s.Canceled != goroutines*rounds {
		t.Fatalf("query accounting off: %+v", s)
	}
	if s.PagesTouched == 0 {
		t.Fatal("TrackPages on but PagesTouched = 0")
	}
}

func TestInvalidQueryError(t *testing.T) {
	e := newBibEngine(t, Config{})
	_, err := e.Query(context.Background(), "bib.xml", `//[`, QueryOptions{})
	if !errors.Is(err, ErrInvalidQuery) {
		t.Fatalf("err = %v, want ErrInvalidQuery", err)
	}
}

func TestRegisterParseError(t *testing.T) {
	e := New(Config{})
	if err := e.Register("bad.xml", strings.NewReader(`<a><unclosed>`)); err == nil {
		t.Fatal("registering malformed XML succeeded")
	}
}

func TestUpdateErrors(t *testing.T) {
	e := newBibEngine(t, Config{})
	if err := e.Update("ghost.xml", nil); !errors.Is(err, ErrUnknownDocument) {
		t.Fatalf("err = %v, want ErrUnknownDocument", err)
	}
	err := e.Update("bib.xml", func(st *storage.Store) (*storage.Store, error) {
		return nil, errors.New("boom")
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	err = e.Update("bib.xml", func(st *storage.Store) (*storage.Store, error) {
		return nil, nil
	})
	if err == nil {
		t.Fatal("nil store accepted")
	}
	// Failed updates must not bump the generation.
	if e.Docs()[0].Generation != 1 {
		t.Fatalf("generation = %d after failed updates, want 1", e.Docs()[0].Generation)
	}
}

func TestQueryTraceAndStrategyMetrics(t *testing.T) {
	e := newBibEngine(t, Config{})
	res, err := e.Query(context.Background(), "bib.xml", `//book/title`,
		QueryOptions{CostBased: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("no trace with Trace option")
	}
	var recs []*exec.StrategyRecord
	res.Trace.Visit(func(s *exec.Span) { recs = append(recs, s.Strategies...) })
	if len(recs) == 0 {
		t.Fatal("trace carried no strategy records")
	}
	if recs[0].Estimate == nil {
		t.Error("cost-based trace lost the estimate")
	}
	if recs[0].Matches != 2 {
		t.Errorf("τ matches = %d, want 2", recs[0].Matches)
	}
	// Per-strategy dispatch counts surface in the snapshot.
	s := e.Stats()
	var total int64
	for _, n := range s.TauByStrategy {
		total += n
	}
	if total == 0 {
		t.Fatalf("TauByStrategy empty: %+v", s)
	}
	// A traced re-run hits the plan cache: Trace must not fragment the
	// cache key.
	res2, err := e.Query(context.Background(), "bib.xml", `//book/title`,
		QueryOptions{CostBased: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Error("traced re-run missed the plan cache")
	}
	// An untraced run with otherwise equal options shares the plan too,
	// and returns no trace.
	res3, err := e.Query(context.Background(), "bib.xml", `//book/title`,
		QueryOptions{CostBased: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res3.Cached {
		t.Error("untraced run missed the plan cache")
	}
	if res3.Trace != nil {
		t.Error("trace present without the option")
	}
}

// TestCachedPlanHitDoesNoEstimate: a plan's patterns are priced once,
// when it is compiled, so a cache hit runs the chooser (and, traced, the
// estimator) over the stored estimates without walking the synopsis.
func TestCachedPlanHitDoesNoEstimate(t *testing.T) {
	e := newBibEngine(t, Config{})
	queries := []string{`//book/title`, `for $b in /bib/book where $b/price < 50 return $b/title`}
	for _, q := range queries {
		if _, err := e.Query(context.Background(), "bib.xml", q, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	before := cost.EstimateCalls()
	for _, q := range queries {
		for _, opts := range []QueryOptions{{}, {Trace: true}, {Parallelism: 4}} {
			res, err := e.Query(context.Background(), "bib.xml", q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Cached {
				t.Fatalf("%s %+v: plan not cached", q, opts)
			}
		}
	}
	if n := cost.EstimateCalls() - before; n != 0 {
		t.Fatalf("cached-plan hits priced %d patterns against the synopsis, want 0", n)
	}
}

// TestCachedPlanHitAllocs bounds the allocations of a plan-cache hit
// with the default configuration (auto strategy, calibration on): the
// bounds are the counts measured before the cost hooks were bound by
// Plan.Bind, so binding must not cost more than the per-query closures
// it replaced.
func TestCachedPlanHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// A catalog of 64 documents costs a hit nothing over a catalog of
	// one: doc() targets are resolved on use, not registered up front.
	many := newBibEngine(t, Config{})
	for i := 1; i < 64; i++ {
		many.RegisterStore(fmt.Sprintf("other%d.xml", i), xmark.StoreWide(4))
	}
	one := newBibEngine(t, Config{})
	for _, c := range []struct {
		q   string
		max float64
	}{
		{`/bib/book/title`, 44},
		{`//book[price]/title`, 41},
		{`count(//last)`, 41},
	} {
		hitAllocs := func(e *Engine) float64 {
			if _, err := e.Query(context.Background(), "bib.xml", c.q, QueryOptions{}); err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(100, func() {
				res, err := e.Query(context.Background(), "bib.xml", c.q, QueryOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Cached {
					t.Fatalf("%s: plan not cached", c.q)
				}
			})
		}
		n1, n64 := hitAllocs(one), hitAllocs(many)
		if n1 > c.max {
			t.Errorf("%s: a plan-cache hit allocates %.0f times, want at most %.0f", c.q, n1, c.max)
		}
		if n64 > n1 {
			t.Errorf("%s: a plan-cache hit allocates %.0f times with 64 documents, %.0f with one", c.q, n64, n1)
		}
	}
}

// TestPlanDoesNotPinStore: a prepared plan identifies the store it was
// priced against without referencing it, so the plans the cache keeps
// past a commit do not keep old generations alive.
func TestPlanDoesNotPinStore(t *testing.T) {
	st, err := storage.LoadReader(strings.NewReader(bibXML))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(`//book[price]/title`, compile.Options{}, st, stats.Build(st))
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(st, func(*storage.Store) { close(collected) })
	st = nil
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(p)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the store a plan was priced against stays reachable from the plan")
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

func TestStrategyFallbackMetric(t *testing.T) {
	e := newBibEngine(t, Config{})
	// Forcing TwigStack onto per-binding dispatches (non-root contexts)
	// demotes them to NoK; the engine counters must record it.
	_, err := e.Query(context.Background(), "bib.xml",
		`for $b in /bib/book return $b/author/last`,
		QueryOptions{Strategy: exec.StrategyTwigStack})
	if err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.StrategyFallbacks == 0 {
		t.Fatalf("StrategyFallbacks = 0: %+v", s)
	}
	if s.TauByStrategy["nok"] == 0 {
		t.Fatalf("fallback dispatches not tallied: %+v", s.TauByStrategy)
	}
}
