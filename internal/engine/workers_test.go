package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adr/internal/apps"
	"adr/internal/chunk"
	"adr/internal/core"
	"adr/internal/engine"
	"adr/internal/layout"
	"adr/internal/plan"
	"adr/internal/rpc"
	"adr/internal/space"
)

// Concurrency tests for the execution pipeline: every strategy under a wide
// worker pool must produce output chunks byte-identical to the serial
// oracle (RunSerial), because ADR aggregation is commutative and
// associative — any interleaving of chunks into an accumulator yields the
// same final value. Run with -race these tests also prove the per-output
// lock sharding: two chunks aggregating into different outputs run
// concurrently, two into the same output never do.

// runParallel executes the plan across an in-process fabric without flow
// control and returns the finished output chunks in output-position order.
func runParallel(t *testing.T, repo *core.Repository, p *plan.Plan, w *plan.Workload, app engine.App, workers int) []*chunk.Chunk {
	t.Helper()
	got, _ := runParallelFlow(t, repo, p, w, app, workers, rpc.InprocOptions{})
	return got
}

// serialOracle runs the Fig 1 loop over the same workload.
func serialOracle(t *testing.T, repo *core.Repository, p *plan.Plan, w *plan.Workload, app engine.App) []*chunk.Chunk {
	t.Helper()
	cfg := engine.Config{
		Plan: p, Workload: w, App: app,
		InputDataset: "pts",
		OnResult:     func(rpc.NodeID, *chunk.Chunk) error { return nil },
	}.WithSerialStorage(engine.FarmStorage{Farm: repo.Farm()})
	outs, err := engine.RunSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// requireIdenticalChunks compares two output sets byte-for-byte through the
// wire encoding — stricter than comparing rendered values, it pins item
// order and metadata too.
func requireIdenticalChunks(t *testing.T, want, got []*chunk.Chunk) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("output count: want %d, got %d", len(want), len(got))
	}
	for o := range want {
		if got[o] == nil {
			t.Fatalf("output %d never emitted", o)
		}
		wb, gb := chunk.Encode(want[o]), chunk.Encode(got[o])
		if !bytes.Equal(wb, gb) {
			t.Errorf("output %d differs from serial result (%d vs %d bytes)", o, len(wb), len(gb))
		}
	}
}

// TestWorkersMatchSerial runs every strategy with a wide worker pool (and,
// under -race, with the race detector watching the shared accumulators) and
// requires byte-identical outputs to the serial oracle. Workers=1 is the
// serial-equivalence leg of the same matrix.
func TestWorkersMatchSerial(t *testing.T) {
	const nodes = 3
	repo := buildRepo(t, nodes)
	for _, s := range []plan.Strategy{plan.FRA, plan.SRA, plan.DA, plan.Hybrid} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", s, workers), func(t *testing.T) {
				app := &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4}
				q := &core.Query{Input: "pts", Output: "img", Strategy: s, App: app}
				w, err := repo.BuildWorkload(q)
				if err != nil {
					t.Fatal(err)
				}
				planner, err := plan.NewPlanner(repo.Machine())
				if err != nil {
					t.Fatal(err)
				}
				p, err := planner.Plan(s, w)
				if err != nil {
					t.Fatal(err)
				}
				want := serialOracle(t, repo, p, w, &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4})
				got := runParallel(t, repo, p, w, app, workers)
				requireIdenticalChunks(t, want, got)
			})
		}
	}
}

// TestWorkersSameAccumulator funnels every input chunk into one single
// accumulator, so all 8 workers contend on one lock: the sharpest test that
// same-output aggregation is serialized correctly (under -race) and still
// sums to the serial result byte-for-byte.
func TestWorkersSameAccumulator(t *testing.T) {
	const nodes = 3
	repo, err := core.NewRepository(core.Options{Nodes: nodes, AccMemBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	rng := rand.New(rand.NewSource(7))
	inSpace := space.AttrSpace{Name: "pts", Bounds: space.R(0, 64, 0, 64)}
	var items []chunk.Item
	for i := 0; i < 800; i++ {
		items = append(items, chunk.Item{
			Coord: space.Pt(rng.Float64()*64, rng.Float64()*64),
			Value: apps.EncodeValue(int64(rng.Intn(1000))),
		})
	}
	grid, _ := space.NewGrid(inSpace.Bounds, 8, 8)
	chunks, err := layout.PartitionGrid(items, grid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.LoadDataset("pts", inSpace, chunks); err != nil {
		t.Fatal(err)
	}
	// One output chunk covering the whole space: every input targets it.
	outSpace := space.AttrSpace{Name: "one", Bounds: space.R(0, 64, 0, 64)}
	if _, err := repo.LoadDataset("one", outSpace, []*chunk.Chunk{
		{Meta: chunk.Meta{MBR: outSpace.Bounds}},
	}); err != nil {
		t.Fatal(err)
	}

	for _, s := range []plan.Strategy{plan.FRA, plan.DA} {
		t.Run(s.String(), func(t *testing.T) {
			app := &apps.RasterApp{Op: apps.Sum, CellsPerDim: 8}
			q := &core.Query{Input: "pts", Output: "one", Strategy: s, App: app}
			w, err := repo.BuildWorkload(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(w.Outputs) != 1 {
				t.Fatalf("expected single output, got %d", len(w.Outputs))
			}
			planner, err := plan.NewPlanner(repo.Machine())
			if err != nil {
				t.Fatal(err)
			}
			p, err := planner.Plan(s, w)
			if err != nil {
				t.Fatal(err)
			}
			want := serialOracle(t, repo, p, w, &apps.RasterApp{Op: apps.Sum, CellsPerDim: 8})
			got := runParallel(t, repo, p, w, app, 8)
			requireIdenticalChunks(t, want, got)
		})
	}
}

// inflightApp wraps an App and records whether two Aggregate calls ever ran
// at once. With wait set, an Aggregate that finds itself alone waits that
// long for a second to arrive (once; the rendezvous is over as soon as it is
// met or missed), so a pool wider than one shows as such whatever the
// scheduler does, with no wall-clock comparison.
type inflightApp struct {
	engine.App
	wait    time.Duration
	cur     atomic.Int32
	overlap atomic.Bool
	once    sync.Once
	over    chan struct{}
}

func (a *inflightApp) Aggregate(acc engine.Accumulator, out chunk.Meta, in *chunk.Chunk) error {
	defer a.cur.Add(-1)
	if a.cur.Add(1) > 1 {
		a.overlap.Store(true)
		a.once.Do(func() { close(a.over) })
	} else if a.wait > 0 {
		select {
		case <-a.over:
		case <-time.After(a.wait):
			a.once.Do(func() { close(a.over) })
		}
	}
	return a.App.Aggregate(acc, out, in)
}

// TestWorkersWidthInFlight pins Config.Workers to the pool's real width on
// one node whose 16 input chunks each target their own output chunk, so no
// two contend for an accumulator lock: one worker never has two Aggregate
// calls in flight, four workers do.
func TestWorkersWidthInFlight(t *testing.T) {
	repo, err := core.NewRepository(core.Options{Nodes: 1, AccMemBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	bounds := space.R(0, 64, 0, 64)
	grid, _ := space.NewGrid(bounds, 4, 4)
	var items []chunk.Item
	var outs []*chunk.Chunk
	for c := 0; c < grid.NumCells(); c++ {
		cell := grid.CellRect(c)
		items = append(items, chunk.Item{Coord: cell.Center(), Value: apps.EncodeValue(int64(c))})
		outs = append(outs, &chunk.Chunk{Meta: chunk.Meta{MBR: cell}})
	}
	chunks, err := layout.PartitionGrid(items, grid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.LoadDataset("pts", space.AttrSpace{Name: "pts", Bounds: bounds}, chunks); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.LoadDataset("img", space.AttrSpace{Name: "img", Bounds: bounds}, outs); err != nil {
		t.Fatal(err)
	}
	raster := &apps.RasterApp{Op: apps.Sum, CellsPerDim: 2}
	w, err := repo.BuildWorkload(&core.Query{Input: "pts", Output: "img", Strategy: plan.FRA, App: raster})
	if err != nil {
		t.Fatal(err)
	}
	planner, err := plan.NewPlanner(repo.Machine())
	if err != nil {
		t.Fatal(err)
	}
	p, err := planner.Plan(plan.FRA, w)
	if err != nil {
		t.Fatal(err)
	}

	one := &inflightApp{App: raster, over: make(chan struct{})}
	runParallel(t, repo, p, w, one, 1)
	if one.overlap.Load() {
		t.Error("Workers: 1 ran two Aggregate calls at once")
	}
	four := &inflightApp{App: raster, wait: 5 * time.Second, over: make(chan struct{})}
	runParallel(t, repo, p, w, four, 4)
	if !four.overlap.Load() {
		t.Error("Workers: 4 never had two Aggregate calls in flight: the pool is one worker wide")
	}
}

// gatedStorage holds every read until want reads are in flight at once,
// recording the peak. The hold ends for good when the gate fills or its
// deadline passes, so a narrower reader fails in one deadline, not one per
// read.
type gatedStorage struct {
	engine.FarmStorage
	want      int
	deadline  <-chan struct{}
	full      chan struct{}
	mu        sync.Mutex
	cur, peak int
}

func (g *gatedStorage) ReadChunkCached(dataset string, m chunk.Meta) ([]byte, bool, error) {
	g.mu.Lock()
	if g.cur++; g.cur > g.peak {
		if g.peak = g.cur; g.peak == g.want {
			close(g.full)
		}
	}
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		g.cur--
		g.mu.Unlock()
	}()
	select {
	case <-g.full:
	case <-g.deadline:
	}
	return g.FarmStorage.ReadChunkCached(dataset, m)
}

// TestEveryDiskReadsConcurrently: local reduction reads every local disk at
// once (§2.2). A node with eight disks has eight reads in flight, not a cap
// below its disk count.
func TestEveryDiskReadsConcurrently(t *testing.T) {
	const disks = 8
	repo, err := core.NewRepository(core.Options{Nodes: 1, DisksPerNode: disks})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	loadTestDatasets(t, repo)
	app := &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4}
	res, err := repo.Execute(context.Background(), &core.Query{Input: "pts", Output: "img", Strategy: plan.FRA, App: app})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Plan.Tiles); n != 1 {
		t.Fatalf("plan has %d tiles, want 1", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	st := &gatedStorage{
		FarmStorage: engine.FarmStorage{Farm: repo.Farm()},
		want:        disks,
		deadline:    ctx.Done(),
		full:        make(chan struct{}),
	}
	fabric, err := rpc.NewInprocFabric(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()
	cfg := engine.Config{
		Plan: res.Plan, Workload: res.Workload, App: app,
		InputDataset: "pts",
		OnResult:     func(rpc.NodeID, *chunk.Chunk) error { return nil },
	}
	if _, err := engine.Run(context.Background(), cfg, fabric, st); err != nil {
		t.Fatal(err)
	}
	if st.peak != disks {
		t.Errorf("peak reads in flight = %d, want %d (one per disk)", st.peak, disks)
	}
}
