package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"adr/internal/apps"
	"adr/internal/chunk"
	"adr/internal/core"
	"adr/internal/engine"
	"adr/internal/layout"
	"adr/internal/leakcheck"
	"adr/internal/metrics"
	"adr/internal/plan"
	"adr/internal/rpc"
	"adr/internal/space"
)

// TestHistogramAppEndToEnd runs the second app family (per-chunk value
// histograms) through the full parallel engine and checks bucket totals
// against a direct count, under every strategy.
func TestHistogramAppEndToEnd(t *testing.T) {
	repo := buildEnv(t, 4, 2000, 23)
	for _, s := range plan.Strategies {
		app := &apps.HistogramApp{Buckets: 8, Lo: -1000, Hi: 1000}
		res, err := repo.Execute(context.Background(), &core.Query{
			Input: "sensor", Output: "raster", Strategy: s, App: app,
		})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		var total int64
		for _, c := range res.Chunks {
			for _, it := range c.Items {
				v, err := apps.DecodeValue(it.Value)
				if err != nil {
					t.Fatal(err)
				}
				_, count := apps.UnpackBucket(v)
				total += count
			}
		}
		if total != 2000 {
			t.Errorf("%v: histogram holds %d items, want 2000", s, total)
		}
	}
}

// TestMultiDiskRepository exercises DisksPerNode > 1 on the real engine:
// chunks land on 3 nodes x 3 disks, every disk is used, and results match
// the single-disk layout.
func TestMultiDiskRepository(t *testing.T) {
	single := buildEnv(t, 3, 1200, 29)
	multi, err := core.NewRepository(core.Options{Nodes: 3, DisksPerNode: 3, AccMemBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer multi.Close()

	// Load identical data into the multi-disk repository.
	inDS, _ := single.Dataset("sensor")
	outDS, _ := single.Dataset("raster")
	reload := func(ds *layout.Dataset, name string) {
		t.Helper()
		var chunks []*chunk.Chunk
		st := farmReader{t: t, repo: single}
		for _, m := range ds.Chunks {
			chunks = append(chunks, st.read(name, m))
		}
		if _, err := multi.LoadDataset(name, ds.Space, chunks); err != nil {
			t.Fatal(err)
		}
	}
	reload(inDS, "sensor")
	reload(outDS, "raster")

	mds, _ := multi.Dataset("sensor")
	disks := map[int32]bool{}
	for _, m := range mds.Chunks {
		disks[m.Disk] = true
		if m.Node != m.Disk/3 {
			t.Fatalf("chunk %d: disk %d on node %d, want %d", m.ID, m.Disk, m.Node, m.Disk/3)
		}
	}
	if len(disks) != 9 {
		t.Errorf("placement used %d of 9 disks", len(disks))
	}

	q := func(repo *core.Repository) string {
		res, err := repo.Execute(context.Background(), &core.Query{
			Input: "sensor", Output: "raster", Strategy: plan.DA,
			App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		return canonical(res.Chunks)
	}
	if q(single) != q(multi) {
		t.Error("multi-disk result differs from single-disk result")
	}
}

// farmReader decodes chunks back out of a repository's farm.
type farmReader struct {
	t    *testing.T
	repo *core.Repository
}

func (f farmReader) read(dataset string, m chunk.Meta) *chunk.Chunk {
	f.t.Helper()
	st, err := f.repo.Farm().Store(int(m.Disk))
	if err != nil {
		f.t.Fatal(err)
	}
	data, err := st.Get(dataset, m.ID)
	if err != nil {
		f.t.Fatal(err)
	}
	c, err := chunk.Decode(data)
	if err != nil {
		f.t.Fatal(err)
	}
	// Reset placement so the loader re-declusters.
	c.Meta.Disk, c.Meta.Node = 0, 0
	c.Meta.Dataset = dataset
	return c
}

// TestMapperRegistryPath: queries resolve mappings registered in the
// attribute space registry when none is given explicitly.
func TestMapperRegistryPath(t *testing.T) {
	repo := buildEnv(t, 2, 500, 31)
	scale := space.NewAffineMapper(2)
	scale.Scale[0], scale.Scale[1] = 1, 1
	if err := repo.Registry().RegisterMapping("sensor", "raster", scale); err != nil {
		t.Fatal(err)
	}
	res, err := repo.Execute(context.Background(), &core.Query{
		Input: "sensor", Output: "raster", Strategy: plan.FRA,
		App: &apps.RasterApp{Op: apps.Count, CellsPerDim: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sumAll(t, res.Chunks); got != 500 {
		t.Errorf("count through registered mapper = %d", got)
	}
}

// TestDisjointQuerySelectsNothing: a query over a region with no output
// chunks yields an empty result, not an error.
func TestDisjointQuerySelectsNothing(t *testing.T) {
	repo := buildEnv(t, 2, 300, 37)
	res, err := repo.Execute(context.Background(), &core.Query{
		Input: "sensor", Output: "raster",
		InputBox:  space.R(0, 1, 0, 1),
		OutputBox: space.R(98, 99, 98, 99),
		Strategy:  plan.DA,
		App:       &apps.RasterApp{Op: apps.Sum, CellsPerDim: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One output chunk intersects [98,99]^2 (the top-right cell); its
	// inputs are restricted to [0,1]^2 which maps elsewhere, so the chunk
	// emits no cells.
	cells := 0
	for _, c := range res.Chunks {
		cells += len(c.Items)
	}
	if cells != 0 {
		t.Errorf("disjoint query produced %d cells", cells)
	}
}

// TestConcurrentQueries: independent queries on one repository may run
// concurrently. They share the repository's mesh, and under a flow window
// each link's credit too, as a daemon's concurrent queries do.
func TestConcurrentQueries(t *testing.T) {
	for _, flow := range []rpc.Flow{{}, {WindowBytes: 4 << 10}} {
		repo := buildEnvOpts(t, core.Options{Nodes: 3, Flow: flow}, 1500, 41)
		errs := make(chan error, 4)
		for k := 0; k < 4; k++ {
			go func(k int) {
				s := plan.Strategies[k%len(plan.Strategies)]
				res, err := repo.Execute(context.Background(), &core.Query{
					Input: "sensor", Output: "raster", Strategy: s,
					App: &apps.RasterApp{Op: apps.Count, CellsPerDim: 4},
				})
				if err == nil {
					var n int64
					for _, c := range res.Chunks {
						for _, it := range c.Items {
							v, derr := apps.DecodeValue(it.Value)
							if derr != nil {
								err = derr
								break
							}
							n += v
						}
					}
					if err == nil && n != 1500 {
						err = fmt.Errorf("query %d counted %d", k, n)
					}
				}
				errs <- err
			}(k)
		}
		for k := 0; k < 4; k++ {
			if err := <-errs; err != nil {
				t.Errorf("window %d: %v", flow.WindowBytes, err)
			}
		}
	}
}

// failOnChunk is a RasterApp whose Aggregate fails on one input chunk.
type failOnChunk struct {
	apps.RasterApp
	bad chunk.ID
}

var errInjected = errors.New("injected aggregation failure")

func (f *failOnChunk) Aggregate(acc engine.Accumulator, out chunk.Meta, in *chunk.Chunk) error {
	if in.Meta.ID == f.bad {
		return errInjected
	}
	return f.RasterApp.Aggregate(acc, out, in)
}

// TestRepositorySurvivesFailedQuery: the repository's mesh outlives its
// queries. A query that fails on one node fails fast with its cause; the
// next query on the same repository is bit-identical to the serial oracle;
// a thousand more drop no message as late and, once the repository is
// closed, leave no pooled buffer or goroutine behind; and Execute after
// Close fails instead of hanging.
func TestRepositorySurvivesFailedQuery(t *testing.T) {
	leakcheck.Check(t)
	repo := buildEnvOpts(t, core.Options{Nodes: 4, Flow: rpc.Flow{WindowBytes: 4 << 10}}, 2000, 47)
	ctx := context.Background()

	in, _ := repo.Dataset("sensor")
	bad := &failOnChunk{RasterApp: apps.RasterApp{Op: apps.Sum, CellsPerDim: 4}, bad: in.Chunks[0].ID}
	start := time.Now()
	_, err := repo.Execute(ctx, &core.Query{Input: "sensor", Output: "raster", Strategy: plan.DA, App: bad})
	if err == nil || !strings.Contains(err.Error(), errInjected.Error()) {
		t.Fatalf("failing query = %v, want the injected failure", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("failing query took %v to fail", d)
	}

	// FRA: every node receives ghosts, so once this query is done every
	// node's inbox has moved past what the failed query left in it.
	app := &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4}
	res, err := repo.Execute(ctx, &core.Query{Input: "sensor", Output: "raster", Strategy: plan.FRA, App: app})
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.RunSerial(engine.Config{
		Plan: res.Plan, Workload: res.Workload, App: app,
		InputDataset: "sensor", OutputDataset: "raster",
	}.WithSerialStorage(engine.FarmStorage{Farm: repo.Farm()}))
	if err != nil {
		t.Fatal(err)
	}
	for o := range want {
		if !bytes.Equal(chunk.Encode(want[o]), chunk.Encode(res.Chunks[o])) {
			t.Errorf("output %d after a failed query differs from the serial oracle", o)
		}
	}

	late := metrics.Default.Counter("adr_dispatch_late_msgs_total")
	before := late.Value()
	for i := 0; i < 1000; i++ {
		if _, err := repo.Execute(ctx, &core.Query{
			Input: "sensor", Output: "raster", OutputBox: space.R(0, 50, 0, 50),
			Strategy: plan.Strategies[i%len(plan.Strategies)],
			App:      &apps.RasterApp{Op: apps.Count, CellsPerDim: 2},
		}); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if got := late.Value() - before; got != 0 {
		t.Errorf("%d messages of healthy queries dropped as late", got)
	}

	// A one-node repository too: no message crosses its mesh, so nothing
	// but the closed mesh itself can refuse the query.
	for _, r := range []*core.Repository{repo, buildEnvOpts(t, core.Options{Nodes: 1}, 500, 3)} {
		r.Close()
		done := make(chan error, 1)
		go func() {
			_, err := r.Execute(ctx, &core.Query{Input: "sensor", Output: "raster", Strategy: plan.DA, App: app})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Error("Execute after Close succeeded")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Execute after Close hung")
		}
	}
}

// TestExecuteBatch runs a query sequence through the submission queue: a
// count, then two updates accumulating onto a stored composite.
func TestExecuteBatch(t *testing.T) {
	repo := buildEnv(t, 3, 900, 43)
	count := &core.Query{
		Input: "sensor", Output: "raster", Strategy: plan.DA,
		App: &apps.RasterApp{Op: apps.Count, CellsPerDim: 2},
	}
	sum := &core.Query{
		Input: "sensor", Output: "raster", Strategy: plan.SRA,
		App:           &apps.RasterApp{Op: apps.Sum, CellsPerDim: 2},
		ResultDataset: "acc",
	}
	results, err := repo.ExecuteBatch(context.Background(), []*core.Query{count, sum, count})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("batch returned %d results", len(results))
	}
	if sumAll(t, results[0].Chunks) != 900 || sumAll(t, results[2].Chunks) != 900 {
		t.Error("count queries disagree across the batch")
	}
	// Failure mid-batch reports the index and returns the prefix.
	bad := &core.Query{Input: "nosuch", Output: "raster",
		App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 2}}
	results, err = repo.ExecuteBatch(context.Background(), []*core.Query{count, bad, count})
	if err == nil {
		t.Fatal("bad mid-batch query should fail")
	}
	if len(results) != 1 {
		t.Errorf("failed batch returned %d results, want 1", len(results))
	}
	if !strings.Contains(err.Error(), "batch query 1") {
		t.Errorf("error does not name the failing query: %v", err)
	}
}

// TestExecuteRefusesOversizedRaster: through the embedded API a raster too
// large for its ghosts to travel fails its query with an error naming the
// value and the limit, before anything is allocated (3 037 000 500 cells
// per dimension overflow c·c in makeslice; 10^5 would ask each node for
// 160 GB), and the repository keeps serving.
func TestExecuteRefusesOversizedRaster(t *testing.T) {
	leakcheck.Check(t)
	repo := buildEnv(t, 3, 500, 48)
	ctx := context.Background()
	for _, cells := range []int{100_000, 3_037_000_500} {
		_, err := repo.Execute(ctx, &core.Query{Input: "sensor", Output: "raster", Strategy: plan.FRA,
			App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: cells}})
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(cells)) || !strings.Contains(err.Error(), "limit 2047") {
			t.Errorf("%d cells per dimension: err %v, want a refusal naming %d and the limit 2047", cells, err, cells)
		}
	}
	if _, err := repo.Execute(ctx, &core.Query{Input: "sensor", Output: "raster", Strategy: plan.FRA,
		App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4}}); err != nil {
		t.Fatalf("query after the refusals: %v", err)
	}
}
