package adr_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"adr"
)

// TestSharedScanMatchesSerialAllStrategies is the serial-equivalence check
// for the cross-query shared-scan scheduler: for every planning strategy,
// three identical queries executed concurrently through one batch must each
// produce exactly the serial (unbatched) result. Run under -race this also
// exercises the fan-out of one read's payload into several queries' decode
// workers.
func TestSharedScanMatchesSerialAllStrategies(t *testing.T) {
	serial := buildRepo(t, 4)
	batched := buildRepoOpts(t, adr.Options{
		Nodes: 4, Scan: adr.ScanOptions{BatchWindow: 30 * time.Millisecond, MaxBatch: 4},
	})

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
				res, err := batched.Execute(context.Background(), q())
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
				t.Fatalf("%v batched query %d: %v", s, i, errs[i])
			}
			if got[i] != want {
				t.Errorf("%v batched query %d differs from serial result", s, i)
			}
		}
	}
}

// TestSharedScanPartialOverlapMatchesSerial batches queries whose input
// boxes only partly overlap: each must still match its own serial result
// (the batch dedups the shared region and reads the rest per query).
func TestSharedScanPartialOverlapMatchesSerial(t *testing.T) {
	serial := buildRepo(t, 4)
	batched := buildRepoOpts(t, adr.Options{
		Nodes: 4, Scan: adr.ScanOptions{BatchWindow: 30 * time.Millisecond, MaxBatch: 4},
	})

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
			res, err := batched.Execute(context.Background(), q(box))
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
			t.Fatalf("batched box %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("batched box %d differs from its serial result", i)
		}
	}
}
