package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"adr/internal/apps"
	"adr/internal/chunk"
	"adr/internal/core"
	"adr/internal/layout"
	"adr/internal/metrics"
	"adr/internal/plan"
	"adr/internal/space"
)

// TestOverlappingQueriesReadEachChunkOnce is the cross-query read-sharing
// guarantee (DESIGN.md §9), on a file-backed 4-node farm of 256 input chunks
// behind a cold chunk cache: two range queries of 128 chunks each, overlapping
// by 100 / 50 / 0 % of their inputs, read exactly the union of their chunk
// sets from disk — 128 / 192 / 256 — whether they run concurrently, 20 ms
// apart or back to back; every chunk the pair did not re-read is a cache hit
// in one of the two traces; and both results equal engine.RunSerial. The
// fully overlapping pair is checked for every strategy. The arrival patterns
// only vary how a read is shared (the peer's in-flight load, or its resident
// payload); the expected counts do not depend on which happens.
func TestOverlappingQueriesReadEachChunkOnce(t *testing.T) {
	dir := t.TempDir()
	bounds := space.R(0, 256, 0, 256)

	// Load through an uncached repository — write-through loading would leave
	// the chunks resident — and keep it for the serial oracle, whose reads
	// must not warm the caches under test.
	uncached, err := core.NewRepository(core.Options{Nodes: 4, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer uncached.Close()
	rng := rand.New(rand.NewSource(23))
	items := make([]chunk.Item, 65536)
	for i := range items {
		items[i] = chunk.Item{
			Coord: space.Pt(rng.Float64()*256, rng.Float64()*256),
			Value: apps.EncodeValue(int64(i)),
		}
	}
	grid, err := space.NewGrid(bounds, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	inChunks, err := layout.PartitionGrid(items, grid)
	if err != nil {
		t.Fatal(err)
	}
	dsIn, err := uncached.LoadDataset("pts", space.AttrSpace{Name: "in", Bounds: bounds}, inChunks)
	if err != nil {
		t.Fatal(err)
	}
	outGrid, err := space.NewGrid(bounds, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	var outChunks []*chunk.Chunk
	for c := 0; c < outGrid.NumCells(); c++ {
		outChunks = append(outChunks, &chunk.Chunk{Meta: chunk.Meta{MBR: outGrid.CellRect(c)}})
	}
	dsOut, err := uncached.LoadDataset("img", space.AttrSpace{Name: "out", Bounds: bounds}, outChunks)
	if err != nil {
		t.Fatal(err)
	}

	query := func(box space.Rect, s plan.Strategy) *core.Query {
		return &core.Query{
			Input: "pts", Output: "img", InputBox: box, Strategy: s,
			App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
		}
	}
	// Query A is the left half of the space; B is the same window slid right,
	// so the pair shares the given fraction of each query's 128 chunks.
	const width = 128.0
	overlaps := []struct {
		pct       int
		off       float64
		wantReads int64
	}{{100, 0, 128}, {50, width / 2, 192}, {0, width, 256}}
	arrivals := []struct {
		name string
		gap  time.Duration // B's delay after A; < 0 runs B after A returns
	}{{"concurrent", 0}, {"20ms-late", 20 * time.Millisecond}, {"back-to-back", -1}}

	diskReads := metrics.Default.Counter("adr_disk_reads_total")
	for _, ov := range overlaps {
		boxes := []space.Rect{space.R(0, width, 0, 256), space.R(ov.off, ov.off+width, 0, 256)}
		// The serial result does not depend on the strategy planned for it.
		want := []string{
			serialOracle(t, uncached, query(boxes[0], plan.FRA)),
			serialOracle(t, uncached, query(boxes[1], plan.FRA)),
		}
		strategies := []plan.Strategy{plan.FRA}
		if ov.pct == 100 {
			strategies = plan.Strategies
		}
		for _, s := range strategies {
			for _, arr := range arrivals {
				t.Run(fmt.Sprintf("overlap=%d/%s/%s", ov.pct, s, arr.name), func(t *testing.T) {
					// A fresh repository per cell: every cache starts cold.
					repo, err := core.NewRepository(core.Options{Nodes: 4, StoreDir: dir, CacheBytes: 64 << 20})
					if err != nil {
						t.Fatal(err)
					}
					defer repo.Close()
					for _, ds := range []*layout.Dataset{dsIn, dsOut} {
						if err := repo.RegisterDataset(ds); err != nil {
							t.Fatal(err)
						}
					}

					before := diskReads.Value()
					results := make([]*core.Result, len(boxes))
					errs := make([]error, len(boxes))
					run := func(i int) { results[i], errs[i] = repo.Execute(context.Background(), query(boxes[i], s)) }
					if arr.gap < 0 {
						run(0)
						run(1)
					} else {
						var wg sync.WaitGroup
						wg.Add(2)
						go func() { defer wg.Done(); run(0) }()
						go func() { defer wg.Done(); time.Sleep(arr.gap); run(1) }()
						wg.Wait()
					}
					reads := diskReads.Value() - before

					var chunksRead, hits int64
					for i, res := range results {
						if errs[i] != nil {
							t.Fatalf("query %d: %v", i, errs[i])
						}
						if got := canonical(res.Chunks); got != want[i] {
							t.Errorf("query %d differs from the serial result", i)
						}
						total := res.Report.Total()
						chunksRead += total.ChunksRead
						hits += total.CacheHits
					}
					if reads != ov.wantReads {
						t.Errorf("pair read %d chunks from disk, want %d (the union of the two read sets)", reads, ov.wantReads)
					}
					if chunksRead != 256 || hits != chunksRead-reads {
						t.Errorf("traces: %d chunks consumed with %d cache hits, want 256 with %d (every chunk not re-read)", chunksRead, hits, chunksRead-reads)
					}
				})
			}
		}
	}
}
