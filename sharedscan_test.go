package adr_test

import (
	"context"
	"sync"
	"testing"

	"adr"
)

// cachedRepo is buildRepo over a file-backed farm behind a chunk cache that
// holds about half the input dataset, so concurrent overlapping queries meet
// every way the cache can serve them: a resident payload, a join on another
// query's in-flight load, and a re-read after an eviction.
func cachedRepo(t *testing.T) *adr.Repository {
	return buildRepoOpts(t, adr.Options{Nodes: 4, StoreDir: t.TempDir(), CacheBytes: 64 << 10})
}

// TestSharedScanMatchesSerialAllStrategies is the serial-equivalence check
// for cross-query read sharing (the test keeps the name it had when a scan
// scheduler did the sharing; the chunk cache does it now): for every planning
// strategy, three identical queries executed concurrently over one cache must
// each produce exactly the serial result. Run under -race this also exercises
// the fan-out of one load's payload into several queries' decode workers.
func TestSharedScanMatchesSerialAllStrategies(t *testing.T) {
	serial := buildRepo(t, 4)
	cached := cachedRepo(t)

	for _, s := range []adr.Strategy{adr.FRA, adr.SRA, adr.DA, adr.Hybrid} {
		q := func() *adr.Query {
			return &adr.Query{
				Input: "pts", Output: "img", Strategy: s,
				App: &adr.RasterApp{Op: adr.Sum, CellsPerDim: 4},
			}
		}
		ref, err := serial.Execute(context.Background(), q())
		if err != nil {
			t.Fatalf("%v serial: %v", s, err)
		}
		want := canon(t, ref)

		const concurrent = 3
		got := make([]string, concurrent)
		errs := make([]error, concurrent)
		var wg sync.WaitGroup
		for i := 0; i < concurrent; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := cached.Execute(context.Background(), q())
				if err != nil {
					errs[i] = err
					return
				}
				got[i] = canon(t, res)
			}(i)
		}
		wg.Wait()
		for i := 0; i < concurrent; i++ {
			if errs[i] != nil {
				t.Fatalf("%v concurrent query %d: %v", s, i, errs[i])
			}
			if got[i] != want {
				t.Errorf("%v concurrent query %d differs from serial result", s, i)
			}
		}
	}
}

// TestSharedScanPartialOverlapMatchesSerial runs concurrent queries whose
// input boxes only partly overlap: each must still match its own serial
// result (the cache serves the shared region once and the rest per query).
func TestSharedScanPartialOverlapMatchesSerial(t *testing.T) {
	serial := buildRepo(t, 4)
	cached := cachedRepo(t)

	boxes := []adr.Rect{
		adr.R(0, 48, 0, 64),  // left three quarters
		adr.R(16, 64, 0, 64), // right three quarters: overlaps the middle half
		{},                   // whole space
	}
	q := func(box adr.Rect) *adr.Query {
		return &adr.Query{
			Input: "pts", Output: "img", InputBox: box, Strategy: adr.FRA,
			App: &adr.RasterApp{Op: adr.Count, CellsPerDim: 4},
		}
	}
	want := make([]string, len(boxes))
	for i, box := range boxes {
		ref, err := serial.Execute(context.Background(), q(box))
		if err != nil {
			t.Fatalf("serial box %d: %v", i, err)
		}
		want[i] = canon(t, ref)
	}

	got := make([]string, len(boxes))
	errs := make([]error, len(boxes))
	var wg sync.WaitGroup
	for i, box := range boxes {
		wg.Add(1)
		go func(i int, box adr.Rect) {
			defer wg.Done()
			res, err := cached.Execute(context.Background(), q(box))
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = canon(t, res)
		}(i, box)
	}
	wg.Wait()
	for i := range boxes {
		if errs[i] != nil {
			t.Fatalf("concurrent box %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("concurrent box %d differs from its serial result", i)
		}
	}
}
