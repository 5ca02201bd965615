package xqp_test

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"xqp"
	"xqp/internal/exec"
	"xqp/internal/xmark"
)

func TestEngineFacade(t *testing.T) {
	e := xqp.NewEngine(xqp.EngineConfig{})
	if err := e.RegisterString("bib.xml", `<bib><book><title>T1</title></book><book><title>T2</title></book></bib>`); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := e.Query(ctx, "bib.xml", `//book/title`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || res.Cached || res.Generation != 1 {
		t.Fatalf("first run: len=%d cached=%v gen=%d", res.Len(), res.Cached, res.Generation)
	}
	res, err = e.Query(ctx, "bib.xml", `//book/title`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("second run not served from plan cache")
	}
	if got := res.XMLItems(); len(got) != 2 || got[0] != "<title>T1</title>" {
		t.Fatalf("XMLItems = %q", got)
	}
	if _, err := e.Query(ctx, "nope.xml", `//a`); !errors.Is(err, xqp.ErrUnknownDocument) {
		t.Fatalf("err = %v, want ErrUnknownDocument", err)
	}
	if s := e.Stats(); s.Served != 2 || s.CacheHits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if docs := e.Docs(); len(docs) != 1 || docs[0].Name != "bib.xml" {
		t.Fatalf("docs = %+v", docs)
	}
}

// TestEngineCalibrationRoundTrip drives the engine-level calibration
// loop: served queries must feed the per-document calibrators
// (calibration is on by default), and a snapshot restored into a second
// engine with the same documents must carry the accumulated tuning.
func TestEngineCalibrationRoundTrip(t *testing.T) {
	const doc = "bib.xml"
	const src = `<bib><book><title>T1</title></book><book><title>T2</title></book></bib>`
	e := xqp.NewEngine(xqp.EngineConfig{})
	if err := e.RegisterString(doc, src); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := e.QueryWith(ctx, doc, `//book/title`, xqp.EngineQueryOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.CalibrationObservations == 0 {
		t.Fatalf("served queries fed no calibration records: %+v", s)
	}
	data, err := e.CalibrationSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	e2 := xqp.NewEngine(xqp.EngineConfig{})
	if err := e2.RegisterString(doc, src); err != nil {
		t.Fatal(err)
	}
	if err := e2.RestoreCalibration(data); err != nil {
		t.Fatal(err)
	}
	s2 := e2.Stats()
	if s2.CalibrationObservations != s.CalibrationObservations || s2.ChooserRegret != s.ChooserRegret {
		t.Fatalf("restored counters = %d/%d, want %d/%d",
			s2.CalibrationObservations, s2.ChooserRegret, s.CalibrationObservations, s.ChooserRegret)
	}
	// A corrupt snapshot must be rejected whole, leaving state intact.
	if err := e2.RestoreCalibration([]byte(`{"version":99}`)); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	if got := e2.Stats().CalibrationObservations; got != s.CalibrationObservations {
		t.Fatalf("rejected restore clobbered state: %d", got)
	}

	// Calibration can be opted out of entirely.
	off := xqp.NewEngine(xqp.EngineConfig{DisableCalibration: true})
	if err := off.RegisterString(doc, src); err != nil {
		t.Fatal(err)
	}
	if _, err := off.Query(ctx, doc, `//book/title`); err != nil {
		t.Fatal(err)
	}
	if got := off.Stats().CalibrationObservations; got != 0 {
		t.Fatalf("disabled engine observed %d records", got)
	}
}

// TestAutoChooserResolvesParallelism: under auto the cost model prices
// the worker budget the executor runs, so -1 ("one per CPU") decides as
// runtime.NumCPU() does, and a budget above the cap as the cap does,
// through both the Database and the Engine facade.
func TestAutoChooserResolvesParallelism(t *testing.T) {
	const src = `//*[*]`
	st := xmark.StoreAuction(64)
	db := xqp.FromStore(st)
	eng := xqp.NewEngine(xqp.EngineConfig{})
	eng.RegisterStore("auction", st)
	verdicts := func(p int) (dbTau, engTau int64) {
		t.Helper()
		res, err := db.QueryWith(src, xqp.Options{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		eres, err := eng.QueryWith(context.Background(), "auction", src, xqp.EngineQueryOptions{Parallelism: p, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics.ParallelTau, eres.Metrics.ParallelTau
	}
	for _, c := range []struct{ budget, same int }{
		{-1, runtime.NumCPU()},
		{1000, exec.MaxParallelism},
	} {
		gotDB, gotEng := verdicts(c.budget)
		wantDB, wantEng := verdicts(c.same)
		if gotDB != wantDB || gotEng != wantEng {
			t.Errorf("Parallelism %d: parallel τ (db, engine) = (%d, %d), want (%d, %d) as for %d",
				c.budget, gotDB, gotEng, wantDB, wantEng, c.same)
		}
	}
}
