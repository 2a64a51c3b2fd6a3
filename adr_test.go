package adr_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"adr"
)

// buildRepo loads a deterministic sensor dataset and an output raster.
func buildRepo(t testing.TB, nodes int) *adr.Repository {
	t.Helper()
	return buildRepoOpts(t, adr.Options{Nodes: nodes})
}

// buildRepoOpts is buildRepo with full repository options (the overlapping-
// query tests need a cache).
func buildRepoOpts(t testing.TB, opts adr.Options) *adr.Repository {
	t.Helper()
	repo, err := adr.NewRepository(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	region := adr.R(0, 64, 0, 64)
	rng := rand.New(rand.NewSource(5))
	var items []adr.Item
	for i := 0; i < 4096; i++ {
		items = append(items, adr.Item{
			Coord: adr.Pt(rng.Float64()*64, rng.Float64()*64),
			Value: adr.EncodeValue(int64(i % 100)),
		})
	}
	grid, err := adr.NewGrid(region, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := adr.PartitionGrid(items, grid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.LoadDataset("pts", adr.AttrSpace{Name: "in", Bounds: region}, chunks); err != nil {
		t.Fatal(err)
	}
	outGrid, err := adr.NewGrid(region, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.LoadDataset("img", adr.AttrSpace{Name: "out", Bounds: region}, adr.GridChunks(outGrid)); err != nil {
		t.Fatal(err)
	}
	return repo
}

func TestPublicAPIAllStrategies(t *testing.T) {
	repo := buildRepo(t, 4)
	var want string
	for _, s := range []adr.Strategy{adr.FRA, adr.SRA, adr.DA, adr.Hybrid} {
		res, err := repo.Execute(context.Background(), &adr.Query{
			Input: "pts", Output: "img", Strategy: s,
			App: &adr.RasterApp{Op: adr.Sum, CellsPerDim: 4},
		})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		got := canon(t, res)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("%v result differs from FRA result", s)
		}
	}
}

func canon(t testing.TB, res *adr.Result) string {
	t.Helper()
	var lines []string
	for _, c := range res.Chunks {
		for _, it := range c.Items {
			v, err := adr.DecodeValue(it.Value)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%.2f,%.2f=%d", it.Coord.Coords[0], it.Coord.Coords[1], v))
		}
	}
	sort.Strings(lines)
	return fmt.Sprint(lines)
}

func TestParseStrategyPublic(t *testing.T) {
	s, err := adr.ParseStrategy("DA")
	if err != nil || s != adr.DA {
		t.Errorf("ParseStrategy = %v, %v", s, err)
	}
	if s, err := adr.ParseStrategy("auto"); err != nil || s != adr.Auto {
		t.Errorf("ParseStrategy(auto) = %v, %v", s, err)
	}
	if _, err := adr.ParseStrategy("??"); err == nil {
		t.Error("bad strategy should fail")
	}
}

// TestPublicAPIAutoStrategy: an AUTO query through the facade executes under
// a model-chosen fixed strategy, reports the selection, and matches the
// fixed-strategy result.
func TestPublicAPIAutoStrategy(t *testing.T) {
	repo := buildRepo(t, 4)
	fixed, err := repo.Execute(context.Background(), &adr.Query{
		Input: "pts", Output: "img", Strategy: adr.FRA,
		App: &adr.RasterApp{Op: adr.Sum, CellsPerDim: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Selection != nil {
		t.Error("fixed-strategy query reported a selection")
	}
	res, err := repo.Execute(context.Background(), &adr.Query{
		Input: "pts", Output: "img", Strategy: adr.Auto,
		App: &adr.RasterApp{Op: adr.Sum, CellsPerDim: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	sel := res.Selection
	if sel == nil {
		t.Fatal("AUTO query reported no selection")
	}
	if sel.Strategy == "" || sel.Strategy == "AUTO" {
		t.Fatalf("selection %q not resolved to a fixed strategy", sel.Strategy)
	}
	if res.Plan.Strategy.String() != sel.Strategy {
		t.Errorf("executed plan is %v but selection names %s", res.Plan.Strategy, sel.Strategy)
	}
	if len(sel.Estimates) != 4 {
		t.Errorf("selection has %d estimates, want 4", len(sel.Estimates))
	}
	if sel.PredictedSec <= 0 || sel.ActualSec <= 0 {
		t.Errorf("prediction loop not closed: predicted %g, actual %g", sel.PredictedSec, sel.ActualSec)
	}
	if canon(t, res) != canon(t, fixed) {
		t.Error("AUTO result differs from fixed-strategy result")
	}
}

func TestFixedPointHelpers(t *testing.T) {
	if adr.FromFixedPoint(adr.FixedPoint(2.5)) != 2.5 {
		t.Error("fixed point roundtrip failed")
	}
	v, err := adr.DecodeValue(adr.EncodeValue(-77))
	if err != nil || v != -77 {
		t.Errorf("value roundtrip = %d, %v", v, err)
	}
}

func TestGridChunksCoverSpace(t *testing.T) {
	g, err := adr.NewGrid(adr.R(0, 10, 0, 10), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	chunks := adr.GridChunks(g)
	if len(chunks) != 10 {
		t.Fatalf("GridChunks = %d", len(chunks))
	}
	var union adr.Rect
	for _, c := range chunks {
		union = union.Union(c.Meta.MBR)
	}
	if !union.Equal(adr.R(0, 10, 0, 10)) {
		t.Errorf("chunks cover %v", union)
	}
}

// ExampleRepository demonstrates the complete load-and-query flow of the
// public API: the Fig 1 processing loop with a count aggregation.
func ExampleRepository() {
	repo, err := adr.NewRepository(adr.Options{Nodes: 2})
	if err != nil {
		panic(err)
	}
	defer repo.Close()

	region := adr.R(0, 4, 0, 4)
	items := []adr.Item{
		{Coord: adr.Pt(0.5, 0.5), Value: adr.EncodeValue(1)},
		{Coord: adr.Pt(1.5, 1.5), Value: adr.EncodeValue(2)},
		{Coord: adr.Pt(3.5, 3.5), Value: adr.EncodeValue(3)},
	}
	grid, _ := adr.NewGrid(region, 2, 2)
	chunks, _ := adr.PartitionGrid(items, grid)
	repo.LoadDataset("points", adr.AttrSpace{Name: "in", Bounds: region}, chunks)
	outGrid, _ := adr.NewGrid(region, 1, 1)
	repo.LoadDataset("counts", adr.AttrSpace{Name: "out", Bounds: region}, adr.GridChunks(outGrid))

	res, err := repo.Execute(context.Background(), &adr.Query{
		Input: "points", Output: "counts",
		Strategy: adr.DA,
		App:      &adr.RasterApp{Op: adr.Count, CellsPerDim: 1},
	})
	if err != nil {
		panic(err)
	}
	var total int64
	for _, c := range res.Chunks {
		for _, it := range c.Items {
			v, _ := adr.DecodeValue(it.Value)
			total += v
		}
	}
	fmt.Println("items counted:", total)
	// Output: items counted: 3
}

// ExampleRasterApp shows a max composite over a sub-range, the satellite
// workload's aggregation shape.
func ExampleRasterApp() {
	repo, _ := adr.NewRepository(adr.Options{Nodes: 2})
	defer repo.Close()
	region := adr.R(0, 8, 0, 8)
	items := []adr.Item{
		{Coord: adr.Pt(1, 1), Value: adr.EncodeValue(adr.FixedPoint(0.2))},
		{Coord: adr.Pt(1.2, 1.1), Value: adr.EncodeValue(adr.FixedPoint(0.9))}, // best pixel
		{Coord: adr.Pt(6, 6), Value: adr.EncodeValue(adr.FixedPoint(0.5))},
	}
	grid, _ := adr.NewGrid(region, 4, 4)
	chunks, _ := adr.PartitionGrid(items, grid)
	repo.LoadDataset("sensor", adr.AttrSpace{Name: "in", Bounds: region}, chunks)
	outGrid, _ := adr.NewGrid(region, 2, 2)
	repo.LoadDataset("composite", adr.AttrSpace{Name: "out", Bounds: region}, adr.GridChunks(outGrid))

	res, _ := repo.Execute(context.Background(), &adr.Query{
		Input: "sensor", Output: "composite",
		OutputBox: adr.R(0, 3.9, 0, 3.9), // lower-left output chunk only
		Strategy:  adr.FRA,
		App:       &adr.RasterApp{Op: adr.Max, CellsPerDim: 1},
	})
	for _, c := range res.Chunks {
		for _, it := range c.Items {
			v, _ := adr.DecodeValue(it.Value)
			fmt.Printf("best value: %.1f\n", adr.FromFixedPoint(v))
		}
	}
	// Output: best value: 0.9
}
