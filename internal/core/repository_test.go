package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"adr/internal/apps"
	"adr/internal/chunk"
	"adr/internal/core"
	"adr/internal/engine"
	"adr/internal/layout"
	"adr/internal/plan"
	"adr/internal/rpc"
	"adr/internal/space"
)

// corePartition groups items into chunks by grid cell.
func corePartition(items []chunk.Item, g *space.Grid) ([]*chunk.Chunk, error) {
	return layout.PartitionGrid(items, g)
}

// buildEnv loads a synthetic sensor dataset (random points with fixed-point
// values, grid-partitioned into chunks) and an empty output raster dataset
// into a fresh repository.
func buildEnv(t testing.TB, nodes, nItems int, seed int64) *core.Repository {
	t.Helper()
	return buildEnvOpts(t, core.Options{Nodes: nodes}, nItems, seed)
}

// buildEnvOpts is buildEnv with the repository's other options chosen by the
// caller (AccMemBytes defaults to the tests' 64 KiB).
func buildEnvOpts(t testing.TB, opts core.Options, nItems int, seed int64) *core.Repository {
	t.Helper()
	if opts.AccMemBytes == 0 {
		opts.AccMemBytes = 64 << 10
	}
	repo, err := core.NewRepository(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })

	rng := rand.New(rand.NewSource(seed))
	inSpace := space.AttrSpace{Name: "sensor", Bounds: space.R(0, 100, 0, 100)}
	items := make([]chunk.Item, nItems)
	for i := range items {
		items[i] = chunk.Item{
			Coord: space.Pt(rng.Float64()*100, rng.Float64()*100),
			Value: apps.EncodeValue(int64(rng.Intn(2000) - 1000)),
		}
	}
	grid, err := space.NewGrid(inSpace.Bounds, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := layoutPartition(items, grid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.LoadDataset("sensor", inSpace, chunks); err != nil {
		t.Fatal(err)
	}

	outSpace := space.AttrSpace{Name: "raster", Bounds: space.R(0, 100, 0, 100)}
	outGrid, err := space.NewGrid(outSpace.Bounds, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	var outChunks []*chunk.Chunk
	for c := 0; c < outGrid.NumCells(); c++ {
		outChunks = append(outChunks, &chunk.Chunk{
			Meta: chunk.Meta{MBR: outGrid.CellRect(c)},
		})
	}
	if _, err := repo.LoadDataset("raster", outSpace, outChunks); err != nil {
		t.Fatal(err)
	}
	return repo
}

// layoutPartition is an alias kept for readability at call sites.
func layoutPartition(items []chunk.Item, g *space.Grid) ([]*chunk.Chunk, error) {
	return corePartition(items, g)
}

// canonical renders finished chunks into a deterministic comparable form.
func canonical(chunks []*chunk.Chunk) string {
	type cell struct {
		x, y float64
		v    int64
	}
	var cells []cell
	for _, c := range chunks {
		if c == nil {
			continue
		}
		for _, it := range c.Items {
			v, _ := apps.DecodeValue(it.Value)
			cells = append(cells, cell{it.Coord.Coords[0], it.Coord.Coords[1], v})
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].x != cells[j].x {
			return cells[i].x < cells[j].x
		}
		if cells[i].y != cells[j].y {
			return cells[i].y < cells[j].y
		}
		return cells[i].v < cells[j].v
	})
	var buf bytes.Buffer
	for _, c := range cells {
		fmt.Fprintf(&buf, "%.4f,%.4f=%d;", c.x, c.y, c.v)
	}
	return buf.String()
}

// serialOracle runs the Fig 1 loop for the same query.
func serialOracle(t *testing.T, repo *core.Repository, q *core.Query) string {
	t.Helper()
	w, err := repo.BuildWorkload(q)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := plan.NewPlanner(repo.Machine())
	if err != nil {
		t.Fatal(err)
	}
	p, err := planner.Plan(q.Strategy, w)
	if err != nil {
		t.Fatal(err)
	}
	scfg := engine.Config{
		Plan: p, Workload: w, App: q.App,
		InputDataset: q.Input, OutputDataset: q.Output,
	}.WithSerialStorage(engine.FarmStorage{Farm: repo.Farm()})
	outs, err := engine.RunSerial(scfg)
	if err != nil {
		t.Fatal(err)
	}
	return canonical(outs)
}

func TestParallelMatchesSerialAllStrategiesAndOps(t *testing.T) {
	variants := []struct {
		name string
		opts core.Options
	}{
		{"default", core.Options{}},
		// The cached repository. Its label is the shared-scan variant's,
		// which it replaced: printed subtest names are kept stable.
		{"batch-window", core.Options{CacheBytes: 1 << 20}},
		{"flow-window", core.Options{Flow: rpc.Flow{WindowBytes: 1 << 10}}},
	}
	for _, nodes := range []int{1, 3, 4} {
		for _, v := range variants {
			v.opts.Nodes = nodes
			repo := buildEnvOpts(t, v.opts, 3000, 42)
			for _, op := range []apps.Op{apps.Sum, apps.Max, apps.Min, apps.Mean, apps.Count} {
				for _, s := range append(append([]plan.Strategy{}, plan.Strategies...), plan.Auto) {
					// The default repository keeps the bare "nodes=N" prefix.
					name := fmt.Sprintf("nodes=%d/%s/%s", nodes, op, s)
					if v.name != "default" {
						name = fmt.Sprintf("nodes=%d+%s/%s/%s", nodes, v.name, op, s)
					}
					t.Run(name, func(t *testing.T) {
						q := &core.Query{
							Input: "sensor", Output: "raster",
							Strategy: s,
							App:      &apps.RasterApp{Op: op, CellsPerDim: 8},
						}
						res, err := repo.Execute(context.Background(), q)
						if err != nil {
							t.Fatal(err)
						}
						want := s
						if s == plan.Auto {
							// The oracle needs a plan; any fixed strategy gives
							// the same serial result.
							if res.Selection == nil {
								t.Fatal("AUTO query reports no selection")
							}
							want = res.Plan.Strategy
							oq := *q
							oq.Strategy = plan.FRA
							q = &oq
						}
						if got, oracle := canonical(res.Chunks), serialOracle(t, repo, q); got != oracle {
							t.Errorf("parallel result differs from serial oracle\n got: %.120s...\nwant: %.120s...", got, oracle)
						}
						if res.Plan.Strategy != want || want == plan.Auto {
							t.Errorf("plan strategy %v, want %v", res.Plan.Strategy, want)
						}
					})
				}
			}
		}
	}
}

func TestSubRangeQuery(t *testing.T) {
	repo := buildEnv(t, 4, 2000, 7)
	q := &core.Query{
		Input: "sensor", Output: "raster",
		InputBox:  space.R(10, 60, 10, 60),
		OutputBox: space.R(0, 49, 0, 49), // strictly inside the 2x2 lower-left chunks
		Strategy:  plan.FRA,
		App:       &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
	}
	res, err := repo.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Only the 2x2 output chunks inside [0,50]^2 are selected.
	if len(res.Workload.Outputs) != 4 {
		t.Errorf("selected %d output chunks, want 4", len(res.Workload.Outputs))
	}
	want := serialOracle(t, repo, q)
	if got := canonical(res.Chunks); got != want {
		t.Error("sub-range query differs from serial oracle")
	}
	// Every emitted cell must lie inside the output box.
	for _, c := range res.Chunks {
		for _, it := range c.Items {
			if it.Coord.Coords[0] > 50 || it.Coord.Coords[1] > 50 {
				t.Fatalf("result cell %v outside output box", it.Coord)
			}
		}
	}
}

func TestUseExistingOutputSeedsAccumulators(t *testing.T) {
	repo := buildEnv(t, 3, 1500, 9)
	// First pass: write results back as a new dataset "composite".
	q1 := &core.Query{
		Input: "sensor", Output: "raster",
		Strategy:      plan.FRA,
		App:           &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
		ResultDataset: "composite",
	}
	res1, err := repo.Execute(context.Background(), q1)
	if err != nil {
		t.Fatal(err)
	}
	// Register the composite as a dataset sharing the raster layout so a
	// second query can update it in place.
	out, _ := repo.Dataset("raster")
	metas := make([]chunk.Meta, len(out.Chunks))
	copy(metas, out.Chunks)
	for i := range metas {
		metas[i].Dataset = "composite"
	}
	ds := *out
	ds.Name = "composite"
	ds.Chunks = metas
	if err := repo.RegisterDataset(&ds); err != nil {
		t.Fatal(err)
	}
	// Second pass: same aggregation, seeded by the first pass's output.
	for _, s := range []plan.Strategy{plan.FRA, plan.SRA, plan.DA, plan.Hybrid} {
		q2 := &core.Query{
			Input: "sensor", Output: "composite",
			Strategy: s,
			App:      &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4, UseExisting: true},
		}
		res2, err := repo.Execute(context.Background(), q2)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		// Doubling property: pass 2 = pass 1 aggregated twice.
		sum1 := sumAll(t, res1.Chunks)
		sum2 := sumAll(t, res2.Chunks)
		if sum2 != 2*sum1 {
			t.Errorf("%v: seeded sum %d, want %d", s, sum2, 2*sum1)
		}
		// Existing-output forwarding must generate communication for
		// replicated strategies on >1 node.
		if s == plan.FRA && res2.Report.Total().MsgsRecv == 0 {
			t.Error("FRA with UseExisting produced no messages")
		}
	}
}

// TestUpdateInPlaceUnreadableOutputFails: an update-in-place query whose
// output segment cannot be opened fails in the serial oracle and in the
// engine, with an error naming the dataset and the chunk. Only a chunk the
// store does not hold starts from the identity; an open error is not that.
func TestUpdateInPlaceUnreadableOutputFails(t *testing.T) {
	dir := t.TempDir()
	loaded := buildEnvOpts(t, core.Options{Nodes: 2, StoreDir: dir}, 500, 3)
	// Every disk's raster segment becomes a directory, which a fresh
	// FileStore cannot open.
	for disk := 0; disk < 2; disk++ {
		seg := filepath.Join(dir, fmt.Sprintf("disk%03d", disk), "raster.dat")
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(seg, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	repo, err := core.NewRepository(core.Options{Nodes: 2, StoreDir: dir, AccMemBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	for _, name := range []string{"sensor", "raster"} {
		ds, _ := loaded.Dataset(name)
		if err := repo.RegisterDataset(ds); err != nil {
			t.Fatal(err)
		}
	}
	q := &core.Query{
		Input: "sensor", Output: "raster", Strategy: plan.DA,
		App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4, UseExisting: true},
	}
	names := regexp.MustCompile(`raster/\d+`)

	w, err := repo.BuildWorkload(q)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := plan.NewPlanner(repo.Machine())
	if err != nil {
		t.Fatal(err)
	}
	p, err := planner.Plan(q.Strategy, w)
	if err != nil {
		t.Fatal(err)
	}
	_, err = engine.RunSerial(engine.Config{
		Plan: p, Workload: w, App: q.App,
		InputDataset: q.Input, OutputDataset: q.Output,
	}.WithSerialStorage(engine.FarmStorage{Farm: repo.Farm()}))
	if err == nil || !names.MatchString(err.Error()) {
		t.Errorf("RunSerial over an unreadable output segment = %v, want an error naming raster/<chunk>", err)
	}
	if _, err := repo.Execute(context.Background(), q); err == nil || !names.MatchString(err.Error()) {
		t.Errorf("Execute over an unreadable output segment = %v, want an error naming raster/<chunk>", err)
	}
}

func sumAll(t *testing.T, chunks []*chunk.Chunk) int64 {
	t.Helper()
	var total int64
	for _, c := range chunks {
		for _, it := range c.Items {
			v, err := apps.DecodeValue(it.Value)
			if err != nil {
				t.Fatal(err)
			}
			total += v
		}
	}
	return total
}

func TestResultDatasetWriteBack(t *testing.T) {
	repo := buildEnv(t, 2, 800, 11)
	q := &core.Query{
		Input: "sensor", Output: "raster",
		Strategy:      plan.DA,
		App:           &apps.RasterApp{Op: apps.Max, CellsPerDim: 4},
		ResultDataset: "maxcomposite",
	}
	res, err := repo.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Every output chunk must be retrievable from its owner's disk.
	st := engine.FarmStorage{Farm: repo.Farm()}
	for pos, m := range res.Workload.Outputs {
		mm := m
		mm.Dataset = "maxcomposite"
		data, err := st.ReadChunk("maxcomposite", mm)
		if errors.Is(err, layout.ErrNotFound) {
			t.Fatalf("output %d not written back", pos)
		}
		if err != nil {
			t.Fatal(err)
		}
		c, err := chunk.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if canonical([]*chunk.Chunk{c}) != canonical([]*chunk.Chunk{res.Chunks[pos]}) {
			t.Fatalf("written chunk %d differs from returned chunk", pos)
		}
	}
}

func TestCommunicationPatternsMatchStrategy(t *testing.T) {
	repo := buildEnv(t, 4, 2500, 13)
	reports := make(map[plan.Strategy]*engine.Report)
	for _, s := range []plan.Strategy{plan.FRA, plan.SRA, plan.DA} {
		res, err := repo.Execute(context.Background(), &core.Query{
			Input: "sensor", Output: "raster",
			Strategy: s,
			App:      &apps.RasterApp{Op: apps.Sum, CellsPerDim: 8},
		})
		if err != nil {
			t.Fatal(err)
		}
		reports[s] = res.Report
	}
	// FRA/SRA communicate ghost accumulators; DA communicates input chunks.
	// With identity mapping and co-located grids the comparison that is
	// structurally guaranteed: all three communicate something on 4 nodes,
	// and SRA never exceeds FRA.
	for s, r := range reports {
		if r.Total().MsgsSent == 0 {
			t.Errorf("%v: no communication on 4 nodes", s)
		}
	}
	if reports[plan.SRA].Total().BytesSent > reports[plan.FRA].Total().BytesSent {
		t.Errorf("SRA sent %d bytes > FRA %d",
			reports[plan.SRA].Total().BytesSent, reports[plan.FRA].Total().BytesSent)
	}
}

func TestQueryValidation(t *testing.T) {
	repo := buildEnv(t, 2, 100, 15)
	ctx := context.Background()
	if _, err := repo.Execute(ctx, &core.Query{Input: "nosuch", Output: "raster",
		App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 2}}); err == nil {
		t.Error("unknown input dataset should fail")
	}
	if _, err := repo.Execute(ctx, &core.Query{Input: "sensor", Output: "nosuch",
		App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 2}}); err == nil {
		t.Error("unknown output dataset should fail")
	}
	if _, err := repo.Execute(ctx, &core.Query{Input: "sensor", Output: "raster"}); err == nil {
		t.Error("missing app should fail")
	}
	// A box of the wrong dimensionality is a malformed query, not an empty
	// selection (it intersects nothing, so it used to return all-zero output).
	for _, box := range []space.Rect{space.R(0, 100), space.R(0, 100, 0, 49, 0, 1)} {
		for _, q := range []*core.Query{
			{Input: "sensor", Output: "raster", InputBox: box},
			{Input: "sensor", Output: "raster", OutputBox: box},
		} {
			q.App = &apps.RasterApp{Op: apps.Sum, CellsPerDim: 2}
			_, err := repo.Execute(ctx, q)
			if err == nil {
				t.Errorf("%d-D box on a 2-D dataset should fail", box.Dims)
			} else if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("has %d dimensions", box.Dims)) || !strings.Contains(msg, "has 2") {
				t.Errorf("%d-D box error does not name both dimensionalities: %v", box.Dims, err)
			}
		}
	}
}

func TestRepositoryCatalog(t *testing.T) {
	repo := buildEnv(t, 2, 100, 17)
	names := repo.DatasetNames()
	if len(names) != 2 || names[0] != "raster" || names[1] != "sensor" {
		t.Errorf("catalog = %v", names)
	}
	if _, err := repo.LoadDataset("sensor", space.AttrSpace{Name: "x", Bounds: space.R(0, 1, 0, 1)}, nil); err == nil {
		t.Error("duplicate dataset load should fail")
	}
	ds, ok := repo.Dataset("sensor")
	if !ok || ds.Name != "sensor" {
		t.Error("dataset lookup failed")
	}
	if ds.TotalBytes() == 0 {
		t.Error("dataset reports zero bytes")
	}
}

func TestNewRepositoryValidation(t *testing.T) {
	if _, err := core.NewRepository(core.Options{Nodes: 0}); err == nil {
		t.Error("0 nodes should fail")
	}
	// A flow window no fabric can honour fails here, not on every Execute.
	if _, err := core.NewRepository(core.Options{Nodes: 4, Flow: rpc.Flow{WindowBytes: -5}}); err == nil {
		t.Error("negative flow window should fail")
	}
}

func TestFileBackedRepository(t *testing.T) {
	dir := t.TempDir()
	repo, err := core.NewRepository(core.Options{Nodes: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	inSpace := space.AttrSpace{Name: "s", Bounds: space.R(0, 10, 0, 10)}
	rng := rand.New(rand.NewSource(1))
	var items []chunk.Item
	for i := 0; i < 500; i++ {
		items = append(items, chunk.Item{
			Coord: space.Pt(rng.Float64()*10, rng.Float64()*10),
			Value: apps.EncodeValue(int64(i)),
		})
	}
	grid, _ := space.NewGrid(inSpace.Bounds, 4, 4)
	chunks, err := corePartition(items, grid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.LoadDataset("s", inSpace, chunks); err != nil {
		t.Fatal(err)
	}
	outSpace := space.AttrSpace{Name: "o", Bounds: space.R(0, 10, 0, 10)}
	og, _ := space.NewGrid(outSpace.Bounds, 2, 2)
	var outChunks []*chunk.Chunk
	for c := 0; c < og.NumCells(); c++ {
		outChunks = append(outChunks, &chunk.Chunk{Meta: chunk.Meta{MBR: og.CellRect(c)}})
	}
	if _, err := repo.LoadDataset("o", outSpace, outChunks); err != nil {
		t.Fatal(err)
	}
	res, err := repo.Execute(context.Background(), &core.Query{
		Input: "s", Output: "o", Strategy: plan.DA,
		App: &apps.RasterApp{Op: apps.Count, CellsPerDim: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sumAll(t, res.Chunks); got != 500 {
		t.Errorf("count over file-backed farm = %d, want 500", got)
	}
}
