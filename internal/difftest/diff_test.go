package difftest

import (
	"fmt"
	"sync"
	"testing"

	"xqp"
)

// scales are the generator scales the differential test sweeps. -short
// keeps the small end only; the full sweep covers the acceptance range
// 1–8.
func scales() []int {
	if testing.Short() {
		return []int{1, 2}
	}
	return []int{1, 2, 4, 8}
}

// TestDifferential runs the whole corpus over every family × scale and
// demands byte-identical results from every configuration.
func TestDifferential(t *testing.T) {
	for _, family := range Families {
		for _, scale := range scales() {
			db := xqp.FromStore(Store(family, scale))
			for _, q := range Queries(family) {
				t.Run(fmt.Sprintf("%s/%d/%s", family, scale, q.Name), func(t *testing.T) {
					if err := Check(db, q.Src); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestMetamorphicToggles flips each logical pipeline stage (rewrites,
// analyzer, path fusion) independently over the whole corpus and
// demands byte-identical results against the defaults.
func TestMetamorphicToggles(t *testing.T) {
	for _, family := range Families {
		for _, scale := range scales() {
			db := xqp.FromStore(Store(family, scale))
			for _, q := range Queries(family) {
				t.Run(fmt.Sprintf("%s/%d/%s", family, scale, q.Name), func(t *testing.T) {
					if err := CheckToggles(db, q.Src); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestRaceHammer drives all configurations concurrently against one
// shared Database. Its value is under -race: the partitioned matchers
// share the document store, the bitmask window, and the tally sink
// across goroutines, and concurrent queries additionally share the
// catalog and cost models. Results are still checked against the
// serial reference to catch silent cross-talk, not just crashes.
func TestRaceHammer(t *testing.T) {
	db := xqp.FromStore(Store("auction", 4))
	queries := Queries("auction")
	cfgs := Configs()
	ref := Reference()

	want := make([]string, len(queries))
	for i, q := range queries {
		out, err := Run(db, q.Src, ref.Opts)
		if err != nil {
			t.Fatalf("%s [%s]: %v", q.Name, ref.Name, err)
		}
		want[i] = out
	}

	const goroutines = 8
	rounds := 2 * len(cfgs)
	if testing.Short() {
		rounds = len(cfgs)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				q := queries[(g+3*i)%len(queries)]
				cfg := cfgs[(g*5+i)%len(cfgs)]
				got, err := Run(db, q.Src, cfg.Opts)
				if err != nil {
					t.Errorf("%s [%s]: %v", q.Name, cfg.Name, err)
					return
				}
				if got != want[indexOf(queries, q.Name)] {
					t.Errorf("%s [%s]: concurrent result diverged from serial reference", q.Name, cfg.Name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func indexOf(qs []Query, name string) int {
	for i, q := range qs {
		if q.Name == name {
			return i
		}
	}
	return -1
}
