// Benchmarks regenerating the paper's evaluation. Each benchmark covers one
// table or figure of §4 and reports the simulated quantity the paper plots
// as a custom metric (sim-sec, comm-MB, compute-sec); the Go ns/op numbers
// measure the harness itself, not the IBM SP. Run the full sweep with:
//
//	go test -bench=. -benchmem
//
// cmd/adr-bench prints the same data as aligned tables. Sub-benchmark names
// encode the experiment cell: Fig8/SAT/fixed/FRA/p=8 etc. Benchmarks use
// 1/8-size datasets and {8,32,128} processors so the full suite stays
// minutes-scale; adr-bench defaults to full paper scale.
package adr_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"adr"

	"adr/internal/chunk"
	"adr/internal/decluster"
	"adr/internal/emulator"
	"adr/internal/engine"
	"adr/internal/experiments"
	"adr/internal/index"
	"adr/internal/metrics"
	"adr/internal/plan"
	"adr/internal/rpc"
	"adr/internal/simadr"
	"adr/internal/space"
)

// spaceRect and rect keep the decluster bench readable.
type spaceRect = space.Rect

func rect(bounds ...float64) spaceRect { return space.R(bounds...) }

// benchConfig is the reduced sweep shared by all figure benches.
func benchConfig() experiments.Config {
	c := experiments.QuickConfig()
	c.Procs = []int{8, 32, 128}
	return c
}

// BenchmarkTable1 regenerates the application characteristics table: the
// emulators are generated and measured; fan-in/fan-out are reported.
func BenchmarkTable1(b *testing.B) {
	cfg := benchConfig()
	for _, app := range emulator.Apps {
		b.Run(app.String(), func(b *testing.B) {
			var rows []experiments.Table1Row
			var err error
			for i := 0; i < b.N; i++ {
				rows, err = cfg.Table1()
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, r := range rows {
				if r.App == app {
					b.ReportMetric(r.MinFanIn, "fanin-min")
					b.ReportMetric(r.MinFanOut, "fanout")
					b.ReportMetric(float64(r.MinChunks), "chunks-min")
				}
			}
		})
	}
}

// runCellBench is the shared body for figure benches.
func runCellBench(b *testing.B, cfg experiments.Config, app emulator.App,
	strat plan.Strategy, procs int, sc experiments.Scaling,
	report func(*testing.B, experiments.Point)) {
	b.Helper()
	var pt experiments.Point
	var err error
	for i := 0; i < b.N; i++ {
		pt, err = cfg.RunCell(app, strat, procs, sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	report(b, pt)
}

func figBench(b *testing.B, sc experiments.Scaling, report func(*testing.B, experiments.Point)) {
	cfg := benchConfig()
	for _, app := range emulator.Apps {
		for _, strat := range cfg.Strategies {
			for _, procs := range cfg.Procs {
				name := fmt.Sprintf("%s/%s/%s/p=%d", app, sc, strat, procs)
				b.Run(name, func(b *testing.B) {
					runCellBench(b, cfg, app, strat, procs, sc, report)
				})
			}
		}
	}
}

// BenchmarkFig8Fixed regenerates Figure 8's left column: query execution
// time with the input dataset fixed at its minimum size.
func BenchmarkFig8Fixed(b *testing.B) {
	figBench(b, experiments.Fixed, func(b *testing.B, pt experiments.Point) {
		b.ReportMetric(pt.ExecSec, "sim-sec")
	})
}

// BenchmarkFig8Scaled regenerates Figure 8's right column: execution time
// with the input dataset scaled with the processor count.
func BenchmarkFig8Scaled(b *testing.B) {
	figBench(b, experiments.Scaled, func(b *testing.B, pt experiments.Point) {
		b.ReportMetric(pt.ExecSec, "sim-sec")
	})
}

// BenchmarkFig9CommFixed regenerates Figure 9(a): per-processor
// communication volume, fixed input.
func BenchmarkFig9CommFixed(b *testing.B) {
	figBench(b, experiments.Fixed, func(b *testing.B, pt experiments.Point) {
		b.ReportMetric(float64(pt.MaxCommBytes)/1e6, "comm-MB")
	})
}

// BenchmarkFig9CommScaled regenerates Figure 9(b): per-processor
// communication volume, scaled input.
func BenchmarkFig9CommScaled(b *testing.B) {
	figBench(b, experiments.Scaled, func(b *testing.B, pt experiments.Point) {
		b.ReportMetric(float64(pt.MaxCommBytes)/1e6, "comm-MB")
	})
}

// BenchmarkFig9ComputeFixed regenerates Figure 9(c): per-processor
// computation time, fixed input.
func BenchmarkFig9ComputeFixed(b *testing.B) {
	figBench(b, experiments.Fixed, func(b *testing.B, pt experiments.Point) {
		b.ReportMetric(pt.MaxComputeSec, "compute-sec")
	})
}

// BenchmarkFig9ComputeScaled regenerates Figure 9(d): per-processor
// computation time, scaled input.
func BenchmarkFig9ComputeScaled(b *testing.B) {
	figBench(b, experiments.Scaled, func(b *testing.B, pt experiments.Point) {
		b.ReportMetric(pt.MaxComputeSec, "compute-sec")
	})
}

// BenchmarkHybrid compares the §6 future-work hybrid strategy against the
// paper's three on the SAT workload.
func BenchmarkHybrid(b *testing.B) {
	cfg := benchConfig()
	cfg.Strategies = []plan.Strategy{plan.FRA, plan.SRA, plan.DA, plan.Hybrid}
	for _, strat := range cfg.Strategies {
		b.Run(fmt.Sprintf("SAT/p=32/%s", strat), func(b *testing.B) {
			runCellBench(b, cfg, emulator.SAT, strat, 32, experiments.Fixed,
				func(b *testing.B, pt experiments.Point) {
					b.ReportMetric(pt.ExecSec, "sim-sec")
					b.ReportMetric(float64(pt.MaxCommBytes)/1e6, "comm-MB")
				})
		})
	}
}

// BenchmarkAblationTilingOrder measures how much the Hilbert tiling order
// (§3) reduces repeated input retrievals versus consuming output chunks in
// catalog order. The Hilbert order groups spatially close output chunks in
// a tile, so fewer input chunks straddle tile boundaries.
func BenchmarkAblationTilingOrder(b *testing.B) {
	s, err := emulator.Generate(emulator.Params{App: emulator.SAT, Procs: 8, Scale: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	// Accumulator memory small enough to force many tiles.
	planner, err := plan.NewPlanner(plan.Machine{Procs: 8, AccMemBytes: 2 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("hilbert", func(b *testing.B) {
		var st plan.Stats
		for i := 0; i < b.N; i++ {
			p, err := planner.Plan(plan.FRA, s.Workload)
			if err != nil {
				b.Fatal(err)
			}
			st = plan.ComputeStats(p, s.Workload)
		}
		b.ReportMetric(float64(st.RereadInputs), "rereads")
		b.ReportMetric(float64(st.Tiles), "tiles")
	})
	b.Run("scrambled-order", func(b *testing.B) {
		// Destroy the spatial locality TilingOrder exploits by permuting
		// output MBRs, then plan identically: the extra tile-boundary
		// crossings show up as repeated input retrievals.
		scrambled := scrambleOutputs(s.Workload)
		var st plan.Stats
		for i := 0; i < b.N; i++ {
			p, err := planner.Plan(plan.FRA, scrambled)
			if err != nil {
				b.Fatal(err)
			}
			st = plan.ComputeStats(p, scrambled)
		}
		b.ReportMetric(float64(st.RereadInputs), "rereads")
		b.ReportMetric(float64(st.Tiles), "tiles")
	})
}

// scrambleOutputs returns a workload whose output chunks carry MBRs from a
// reversed-pair permutation, destroying the spatial coherence TilingOrder
// exploits while keeping every other property identical.
func scrambleOutputs(w *plan.Workload) *plan.Workload {
	out := *w
	outputs := append(w.Outputs[:0:0], w.Outputs...)
	n := len(outputs)
	for i := 0; i < n/2; i++ {
		j := n - 1 - i
		if i%2 == 0 {
			outputs[i].MBR, outputs[j].MBR = outputs[j].MBR, outputs[i].MBR
		}
	}
	out.Outputs = outputs
	return &out
}

// BenchmarkAblationDecluster compares Hilbert declustering against
// round-robin and random placement on what declustering exists for (§2.2):
// I/O parallelism under range queries. For a sweep of mid-size query boxes,
// it reports the average max/mean imbalance of the selected chunks across
// the 16 disks — 1.0 means every query's I/O splits evenly over all disks.
func BenchmarkAblationDecluster(b *testing.B) {
	s, err := emulator.Generate(emulator.Params{App: emulator.SAT, Procs: 16, Scale: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	entries := make([]index.Entry, len(s.Workload.Inputs))
	for i, m := range s.Workload.Inputs {
		entries[i] = index.Entry{MBR: m.MBR, ID: m.ID}
	}
	idx := index.BulkLoad(entries, 0)
	// 6x6 grid of overlapping query boxes, each ~1/16 of the space.
	var queries []adrRect
	for qx := 0; qx < 6; qx++ {
		for qy := 0; qy < 6; qy++ {
			lox := float64(qx) * 50
			loy := float64(qy) * 25
			queries = append(queries, rect(lox, lox+90, loy, loy+45))
		}
	}
	for _, tc := range []struct {
		name string
		a    decluster.Assigner
	}{
		{"hilbert", decluster.Hilbert{}},
		{"roundrobin", decluster.RoundRobin{}},
		{"random", decluster.Random{Seed: 1}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var avgImb float64
			for i := 0; i < b.N; i++ {
				assign := tc.a.Assign(entries, 16)
				diskOf := make(map[int32]int, len(entries))
				for k, e := range entries {
					diskOf[int32(e.ID)] = assign[k]
				}
				var sum float64
				for _, q := range queries {
					ids := idx.Search(q)
					sel := make([]int, len(ids))
					for k, id := range ids {
						sel[k] = diskOf[int32(id)]
					}
					_, imb := decluster.Balance(sel, 16)
					sum += imb
				}
				avgImb = sum / float64(len(queries))
			}
			b.ReportMetric(avgImb, "query-imbalance")
		})
	}
}

// adrRect aliases the geometry type to keep the bench readable.
type adrRect = spaceRect

// BenchmarkAblationGhosts quantifies SRA's ghost sparsification around the
// fan-in crossover: VM has fan-in ~16, so ghost savings appear past 16
// processors (§4).
func BenchmarkAblationGhosts(b *testing.B) {
	for _, procs := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("p=%d", procs), func(b *testing.B) {
			s, err := emulator.Generate(emulator.Params{App: emulator.VM, Procs: procs, Scale: 1, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			planner, err := plan.NewPlanner(plan.Machine{Procs: procs, AccMemBytes: 8 << 20})
			if err != nil {
				b.Fatal(err)
			}
			var fraGhosts, sraGhosts int
			for i := 0; i < b.N; i++ {
				fra, err := planner.Plan(plan.FRA, s.Workload)
				if err != nil {
					b.Fatal(err)
				}
				sra, err := planner.Plan(plan.SRA, s.Workload)
				if err != nil {
					b.Fatal(err)
				}
				fraGhosts = plan.ComputeStats(fra, s.Workload).GhostChunks
				sraGhosts = plan.ComputeStats(sra, s.Workload).GhostChunks
			}
			b.ReportMetric(float64(fraGhosts), "fra-ghosts")
			b.ReportMetric(float64(sraGhosts), "sra-ghosts")
		})
	}
}

// BenchmarkAblationOverlap measures the value of ADR's operation-queue
// overlap (§2.4): the same plan simulated with and without asynchronous
// disk/network/compute overlap.
func BenchmarkAblationOverlap(b *testing.B) {
	s, err := emulator.Generate(emulator.Params{App: emulator.WCS, Procs: 8, Scale: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	planner, err := plan.NewPlanner(plan.Machine{Procs: 8, AccMemBytes: 8 << 20})
	if err != nil {
		b.Fatal(err)
	}
	p, err := planner.Plan(plan.FRA, s.Workload)
	if err != nil {
		b.Fatal(err)
	}
	for _, overlap := range []bool{true, false} {
		name := "overlapped"
		if !overlap {
			name = "serialized"
		}
		b.Run(name, func(b *testing.B) {
			var res *simadr.Result
			for i := 0; i < b.N; i++ {
				res, err = simadr.Simulate(p, s.Workload, simadr.Options{
					Machine: simadr.DefaultMachine(8),
					Costs:   s.Costs,
					Overlap: overlap,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.ExecSec, "sim-sec")
		})
	}
}

// BenchmarkAblationAccumulatorMemory sweeps the memory set aside for
// accumulator chunks (§2.3's tiling knob): less memory means more tiles,
// more repeated input retrievals and longer execution — the motivation for
// DA's denser packing.
func BenchmarkAblationAccumulatorMemory(b *testing.B) {
	s, err := emulator.Generate(emulator.Params{App: emulator.SAT, Procs: 8, Scale: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, mem := range []int64{2 << 20, 4 << 20, 8 << 20, 32 << 20} {
		b.Run(fmt.Sprintf("mem=%dMiB", mem>>20), func(b *testing.B) {
			planner, err := plan.NewPlanner(plan.Machine{Procs: 8, AccMemBytes: mem})
			if err != nil {
				b.Fatal(err)
			}
			var execSec float64
			var tiles, rereads int
			for i := 0; i < b.N; i++ {
				p, err := planner.Plan(plan.FRA, s.Workload)
				if err != nil {
					b.Fatal(err)
				}
				st := plan.ComputeStats(p, s.Workload)
				tiles, rereads = st.Tiles, st.RereadInputs
				res, err := simadr.Simulate(p, s.Workload, simadr.Options{
					Machine: simadr.DefaultMachine(8), Costs: s.Costs, Overlap: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				execSec = res.ExecSec
			}
			b.ReportMetric(execSec, "sim-sec")
			b.ReportMetric(float64(tiles), "tiles")
			b.ReportMetric(float64(rereads), "rereads")
		})
	}
}

// BenchmarkRealEngine measures the actual (not simulated) execution engine:
// end-to-end query throughput over the in-process fabric, per strategy.
func BenchmarkRealEngine(b *testing.B) {
	repo, err := adrNewBenchRepo()
	if err != nil {
		b.Fatal(err)
	}
	defer repo.Close()
	for _, s := range []adr.Strategy{adr.FRA, adr.SRA, adr.DA} {
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := repo.Execute(context.Background(), &adr.Query{
					Input: "pts", Output: "img", Strategy: s,
					App: &adr.RasterApp{Op: adr.Sum, CellsPerDim: 8},
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Chunks) == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
}

// adrNewBenchRepo loads a 4-node repository with ~64K items for the real
// engine benchmark.
func adrNewBenchRepo() (*adr.Repository, error) {
	repo, err := adr.NewRepository(adr.Options{Nodes: 4})
	if err != nil {
		return nil, err
	}
	region := adr.R(0, 256, 0, 256)
	rng := rand.New(rand.NewSource(17))
	items := make([]adr.Item, 65536)
	for i := range items {
		items[i] = adr.Item{
			Coord: adr.Pt(rng.Float64()*256, rng.Float64()*256),
			Value: adr.EncodeValue(int64(i)),
		}
	}
	grid, err := adr.NewGrid(region, 16, 16)
	if err != nil {
		return nil, err
	}
	chunks, err := adr.PartitionGrid(items, grid)
	if err != nil {
		return nil, err
	}
	if _, err := repo.LoadDataset("pts", adr.AttrSpace{Name: "in", Bounds: region}, chunks); err != nil {
		return nil, err
	}
	outGrid, err := adr.NewGrid(region, 4, 4)
	if err != nil {
		return nil, err
	}
	if _, err := repo.LoadDataset("img", adr.AttrSpace{Name: "out", Bounds: region}, adr.GridChunks(outGrid)); err != nil {
		return nil, err
	}
	return repo, nil
}

// BenchmarkLocalReductionWorkers measures the execution pipeline on the
// workload it exists for: compute-bound local reduction. The query wraps the
// raster app in emulator.CostApp, which charges a fixed latency per
// Aggregate call (the live analogue of the simulator's per-class costs, and
// of the paper's Table 1 where SAT spends 40ms per aggregation). With one
// worker the node pays every charge serially; with four, charges overlap
// exactly as compute would overlap on four cores — so the speedup is
// meaningful even on a single-CPU host. With BENCH_JSON set, a JSON summary
// (per-width wall time and the speedup ratio) is written to that path.
func BenchmarkLocalReductionWorkers(b *testing.B) {
	const aggDelay = 5 * time.Millisecond
	walls := make(map[int]time.Duration)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			repo, err := adrNewCostRepo(workers)
			if err != nil {
				b.Fatal(err)
			}
			defer repo.Close()
			var wall time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				res, err := repo.Execute(context.Background(), &adr.Query{
					Input: "pts", Output: "img", Strategy: adr.FRA,
					App: &emulator.CostApp{
						Inner:    &adr.RasterApp{Op: adr.Sum, CellsPerDim: 4},
						AggDelay: aggDelay,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Chunks) == 0 {
					b.Fatal("no results")
				}
				wall += time.Since(start)
			}
			walls[workers] = wall / time.Duration(b.N)
			b.ReportMetric(float64(walls[workers].Nanoseconds())/1e6, "wall-ms")
		})
	}
	w1, w4 := walls[1], walls[4]
	if w1 == 0 || w4 == 0 {
		return // a -bench filter selected only one width
	}
	speedup := float64(w1) / float64(w4)
	if path := os.Getenv("BENCH_JSON"); path != "" {
		out := map[string]any{
			"benchmark":        "LocalReductionWorkers",
			"agg_delay_ns":     aggDelay.Nanoseconds(),
			"workers1_wall_ns": w1.Nanoseconds(),
			"workers4_wall_ns": w4.Nanoseconds(),
			"speedup_4_over_1": speedup,
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	if speedup < 1.5 {
		b.Fatalf("pipeline ineffective: workers=4 only %.2fx faster than workers=1 (%v vs %v)",
			speedup, w4, w1)
	}
}

// adrNewCostRepo loads a 4-node repository sized for the pipeline benchmark:
// enough input chunks per node that per-chunk compute latency dominates.
func adrNewCostRepo(workers int) (*adr.Repository, error) {
	repo, err := adr.NewRepository(adr.Options{Nodes: 4, Workers: workers})
	if err != nil {
		return nil, err
	}
	region := adr.R(0, 256, 0, 256)
	rng := rand.New(rand.NewSource(23))
	items := make([]adr.Item, 16384)
	for i := range items {
		items[i] = adr.Item{
			Coord: adr.Pt(rng.Float64()*256, rng.Float64()*256),
			Value: adr.EncodeValue(int64(i)),
		}
	}
	grid, err := adr.NewGrid(region, 16, 16)
	if err != nil {
		return nil, err
	}
	chunks, err := adr.PartitionGrid(items, grid)
	if err != nil {
		return nil, err
	}
	if _, err := repo.LoadDataset("pts", adr.AttrSpace{Name: "in", Bounds: region}, chunks); err != nil {
		return nil, err
	}
	outGrid, err := adr.NewGrid(region, 4, 4)
	if err != nil {
		return nil, err
	}
	if _, err := repo.LoadDataset("img", adr.AttrSpace{Name: "out", Bounds: region}, adr.GridChunks(outGrid)); err != nil {
		return nil, err
	}
	return repo, nil
}

// BenchmarkForwardBackpressure measures the credit-based flow control on the
// workload it exists for: skewed fan-in, where DA forwards every node's
// input chunks to a single output home. Without a window the fast senders
// park the whole dataset in the receiver's queues; with one, the peak
// in-flight bytes on any (sender, receiver) link must stay within the
// configured window plus at most one oversized frame. The balanced leg then
// runs an evenly spread workload with and without flow control and fails if
// the window costs more than 1.5x wall time when it should never bind. With
// BENCH_JSON set, a JSON summary is written to that path.
func BenchmarkForwardBackpressure(b *testing.B) {
	const (
		nodes  = 4
		window = int64(64 << 10)
	)
	region := adr.R(0, 256, 0, 256)

	// loadRepo builds a 4-node farm with 16x16 input chunks and an output
	// grid of outCells x outCells chunks: 1 concentrates every forward on the
	// single output's home node (skewed fan-in), 4 spreads them evenly.
	loadRepo := func(outCells int) (*adr.Repository, *plan.Plan, *plan.Workload, int64) {
		repo, err := adr.NewRepository(adr.Options{Nodes: nodes})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(29))
		items := make([]adr.Item, 65536)
		for i := range items {
			items[i] = adr.Item{
				Coord: adr.Pt(rng.Float64()*256, rng.Float64()*256),
				Value: adr.EncodeValue(int64(i)),
			}
		}
		grid, err := adr.NewGrid(region, 16, 16)
		if err != nil {
			b.Fatal(err)
		}
		chunks, err := adr.PartitionGrid(items, grid)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := repo.LoadDataset("pts", adr.AttrSpace{Name: "in", Bounds: region}, chunks); err != nil {
			b.Fatal(err)
		}
		outGrid, err := adr.NewGrid(region, outCells, outCells)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := repo.LoadDataset("img", adr.AttrSpace{Name: "out", Bounds: region}, adr.GridChunks(outGrid)); err != nil {
			b.Fatal(err)
		}
		w, err := repo.BuildWorkload(&adr.Query{
			Input: "pts", Output: "img", Strategy: adr.DA,
			App: &adr.RasterApp{Op: adr.Sum, CellsPerDim: 4},
		})
		if err != nil {
			b.Fatal(err)
		}
		planner, err := plan.NewPlanner(repo.Machine())
		if err != nil {
			b.Fatal(err)
		}
		p, err := planner.Plan(plan.DA, w)
		if err != nil {
			b.Fatal(err)
		}
		var maxFrame int64
		for _, m := range w.Inputs {
			if m.Bytes > maxFrame {
				maxFrame = m.Bytes
			}
		}
		return repo, p, w, maxFrame
	}

	// runOnce executes the plan over a fresh fabric and reports the wall time
	// and the fabric's flow high-water mark.
	runOnce := func(repo *adr.Repository, p *plan.Plan, w *plan.Workload, opts rpc.InprocOptions) (time.Duration, int64) {
		fabric, err := rpc.NewInprocFabricOpts(p.Machine.Procs, opts)
		if err != nil {
			b.Fatal(err)
		}
		defer fabric.Close()
		cfg := engine.Config{
			Plan: p, Workload: w,
			App:          &adr.RasterApp{Op: adr.Sum, CellsPerDim: 4},
			InputDataset: "pts",
			Workers:      4,
			OnResult:     func(rpc.NodeID, *adr.Chunk) error { return nil },
		}
		start := time.Now()
		if _, err := engine.Run(context.Background(), cfg, fabric, engine.FarmStorage{Farm: repo.Farm()}); err != nil {
			b.Fatal(err)
		}
		return time.Since(start), fabric.FlowHighWater()
	}
	// best runs a cell three times and keeps the fastest wall, the stablest
	// point estimate for a millisecond-scale query.
	best := func(repo *adr.Repository, p *plan.Plan, w *plan.Workload, opts rpc.InprocOptions) (time.Duration, int64) {
		bestWall, peak := time.Duration(0), int64(0)
		for i := 0; i < 3; i++ {
			wall, hw := runOnce(repo, p, w, opts)
			if bestWall == 0 || wall < bestWall {
				bestWall = wall
			}
			if hw > peak {
				peak = hw
			}
		}
		return bestWall, peak
	}

	stalls := metrics.Default.Counter(`adr_rpc_credit_stalls_total{transport="inproc"}`)
	flowOpts := rpc.InprocOptions{Flow: rpc.Flow{WindowBytes: window}}

	// Skewed fan-in: every forward converges on one node. The window must
	// bound the peak in-flight bytes; without it the peak is unbounded (in
	// practice the whole per-sender share of the dataset).
	skewRepo, skewPlan, skewW, maxFrame := loadRepo(1)
	defer skewRepo.Close()
	stallsBefore := stalls.Value()
	var skewFlowWall, skewBareWall time.Duration
	var skewPeak, skewBarePeak int64
	b.Run("skewed/window=64KiB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			skewFlowWall, skewPeak = best(skewRepo, skewPlan, skewW, flowOpts)
		}
		b.ReportMetric(float64(skewPeak), "peak-inflight-B")
		b.ReportMetric(float64(window+maxFrame), "bound-B")
		if skewPeak == 0 {
			b.Fatal("flow control never engaged: zero in-flight high water")
		}
		if skewPeak > window+maxFrame {
			b.Fatalf("peak in-flight %d B exceeds window %d B + max frame %d B",
				skewPeak, window, maxFrame)
		}
	})
	skewStalls := stalls.Value() - stallsBefore
	b.Run("skewed/unbounded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			skewBareWall, skewBarePeak = best(skewRepo, skewPlan, skewW, rpc.InprocOptions{})
		}
	})

	// Balanced workload: forwards spread across all peers, so a 64 KiB window
	// should rarely bind and must not cost real throughput.
	balRepo, balPlan, balW, _ := loadRepo(4)
	defer balRepo.Close()
	var balFlowWall, balBareWall time.Duration
	b.Run("balanced/window=64KiB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			balFlowWall, _ = best(balRepo, balPlan, balW, flowOpts)
		}
		b.ReportMetric(float64(balFlowWall.Nanoseconds())/1e6, "wall-ms")
	})
	b.Run("balanced/unbounded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			balBareWall, _ = best(balRepo, balPlan, balW, rpc.InprocOptions{})
		}
		b.ReportMetric(float64(balBareWall.Nanoseconds())/1e6, "wall-ms")
	})

	if balFlowWall == 0 || balBareWall == 0 || skewFlowWall == 0 {
		return // a -bench filter selected a subset; nothing to compare
	}
	ratio := float64(balFlowWall) / float64(balBareWall)
	if path := os.Getenv("BENCH_JSON"); path != "" {
		out := map[string]any{
			"benchmark":                "ForwardBackpressure",
			"nodes":                    nodes,
			"fwd_window_bytes":         window,
			"max_frame_bytes":          maxFrame,
			"skewed_peak_inflight":     skewPeak,
			"skewed_peak_unbounded":    skewBarePeak,
			"skewed_credit_stalls":     skewStalls,
			"skewed_wall_ns":           skewFlowWall.Nanoseconds(),
			"skewed_wall_unbounded_ns": skewBareWall.Nanoseconds(),
			"balanced_wall_ns":         balFlowWall.Nanoseconds(),
			"balanced_wall_unbound_ns": balBareWall.Nanoseconds(),
			"balanced_overhead_ratio":  ratio,
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	if ratio > 1.5 {
		b.Fatalf("flow control regressed the balanced workload: %.2fx wall time (%v vs %v)",
			ratio, balFlowWall, balBareWall)
	}
}

// BenchmarkCompressedScan measures end-to-end chunk compression on the
// workload it exists for: grid-quantized sensor readings, whose coordinates
// sit on a regular lattice so the columnar XOR-delta codec collapses them.
// The same query runs on a raw farm and a columnar-compressed farm for every
// strategy; results must be byte-identical, and on the forward-heavy DA run
// the compressed farm must read at least 1.5x fewer bytes from disk and put
// at least 1.5x fewer bytes on the wire. With BENCH_JSON set, a JSON summary
// (per-strategy byte totals and reduction ratios) is written to that path.
func BenchmarkCompressedScan(b *testing.B) {
	const nodes = 4
	region := adr.R(0, 256, 0, 256)
	// Quantized coordinates: 1024 lattice steps per axis, exactly
	// representable in float64, the shape real instrument grids have.
	rng := rand.New(rand.NewSource(31))
	items := make([]adr.Item, 65536)
	for i := range items {
		items[i] = adr.Item{
			Coord: adr.Pt(float64(rng.Intn(1024))/4, float64(rng.Intn(1024))/4),
			Value: adr.EncodeValue(int64(i % 512)),
		}
	}
	grid, err := adr.NewGrid(region, 16, 16)
	if err != nil {
		b.Fatal(err)
	}
	inChunks, err := adr.PartitionGrid(items, grid)
	if err != nil {
		b.Fatal(err)
	}
	outGrid, err := adr.NewGrid(region, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	openRepo := func(codec chunk.Codec) *adr.Repository {
		repo, err := adr.NewRepository(adr.Options{Nodes: nodes, StoreDir: b.TempDir(), Codec: codec})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := repo.LoadDataset("pts", adr.AttrSpace{Name: "in", Bounds: region}, inChunks); err != nil {
			b.Fatal(err)
		}
		if _, err := repo.LoadDataset("img", adr.AttrSpace{Name: "out", Bounds: region}, adr.GridChunks(outGrid)); err != nil {
			b.Fatal(err)
		}
		return repo
	}
	raw := openRepo(chunk.CodecNone)
	defer raw.Close()
	comp := openRepo(chunk.CodecColumnar)
	defer comp.Close()

	canon := func(chunks []*adr.Chunk) string {
		var lines []string
		for _, c := range chunks {
			for _, it := range c.Items {
				v, _ := adr.DecodeValue(it.Value)
				lines = append(lines, fmt.Sprintf("%g,%g=%d", it.Coord.Coords[0], it.Coord.Coords[1], v))
			}
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	runQ := func(repo *adr.Repository, s adr.Strategy) (string, metrics.Snapshot) {
		res, err := repo.Execute(context.Background(), &adr.Query{
			Input: "pts", Output: "img", Strategy: s,
			App: &adr.RasterApp{Op: adr.Sum, CellsPerDim: 4},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Chunks) == 0 {
			b.Fatal("no results")
		}
		return canon(res.Chunks), res.Report.Total()
	}
	ratio := func(raw, comp int64) float64 {
		if comp == 0 {
			return 0
		}
		return float64(raw) / float64(comp)
	}

	type stratRow struct {
		Strategy        string  `json:"strategy"`
		RawReadBytes    int64   `json:"raw_read_bytes"`
		CompReadBytes   int64   `json:"compressed_read_bytes"`
		RawSentBytes    int64   `json:"raw_sent_bytes"`
		CompSentBytes   int64   `json:"compressed_sent_bytes"`
		ReadReduction   float64 `json:"read_reduction_x"`
		SentReduction   float64 `json:"sent_reduction_x"`
		ResultIdentical bool    `json:"result_identical"`
	}
	var rows []stratRow
	var daRead, daSent float64
	for _, s := range []adr.Strategy{adr.FRA, adr.SRA, adr.DA, adr.Hybrid} {
		b.Run(s.String(), func(b *testing.B) {
			var rawOut, compOut string
			var rawT, compT metrics.Snapshot
			for i := 0; i < b.N; i++ {
				rawOut, rawT = runQ(raw, s)
				compOut, compT = runQ(comp, s)
			}
			if rawOut != compOut {
				b.Fatalf("%s: compressed result diverges from raw result", s)
			}
			if compT.CompressedBytes == 0 {
				b.Fatalf("%s: compressed run consumed no compressed payloads", s)
			}
			row := stratRow{
				Strategy:        s.String(),
				RawReadBytes:    rawT.BytesRead,
				CompReadBytes:   compT.BytesRead,
				RawSentBytes:    rawT.BytesSent,
				CompSentBytes:   compT.BytesSent,
				ReadReduction:   ratio(rawT.BytesRead, compT.BytesRead),
				SentReduction:   ratio(rawT.BytesSent, compT.BytesSent),
				ResultIdentical: true,
			}
			rows = append(rows, row)
			b.ReportMetric(row.ReadReduction, "read-x")
			b.ReportMetric(row.SentReduction, "sent-x")
			if s == adr.DA {
				daRead, daSent = row.ReadReduction, row.SentReduction
			}
		})
	}

	if daRead == 0 && daSent == 0 {
		return // a -bench filter skipped the DA leg; nothing to gate on
	}
	if path := os.Getenv("BENCH_JSON"); path != "" {
		out := map[string]any{
			"benchmark":           "CompressedScan",
			"nodes":               nodes,
			"codec":               chunk.CodecColumnar.String(),
			"items":               len(items),
			"strategies":          rows,
			"da_read_reduction_x": daRead,
			"da_sent_reduction_x": daSent,
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	if daRead < 1.5 {
		b.Fatalf("compression ineffective on disk: DA read reduction %.2fx, want >= 1.5x", daRead)
	}
	if daSent < 1.5 {
		b.Fatalf("compression ineffective on the wire: DA sent reduction %.2fx, want >= 1.5x", daSent)
	}
}

// BenchmarkDegradedQuery measures the cost of surviving a node death: a
// 4-node, 2-replica farm runs the same DA query on the full mesh and then
// degraded, with one node dead before the query starts (the steady-state
// daemon-fleet shape: the death is on the fabric's record, the first
// attempt fails instantly, the survivors fence, re-plan onto replica
// holders, and execute 3-wide). Reports the degraded-over-healthy wall
// ratio and the replica-fallback read count, and fails if the degraded
// result diverges from the fault-free one. With BENCH_JSON set, a JSON
// summary is written to that path.
func BenchmarkDegradedQuery(b *testing.B) {
	const nodes = 4
	region := adr.R(0, 256, 0, 256)
	repo, err := adr.NewRepository(adr.Options{Nodes: nodes, Replicas: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer repo.Close()
	rng := rand.New(rand.NewSource(41))
	items := make([]adr.Item, 65536)
	for i := range items {
		items[i] = adr.Item{
			Coord: adr.Pt(rng.Float64()*256, rng.Float64()*256),
			Value: adr.EncodeValue(int64(i)),
		}
	}
	grid, err := adr.NewGrid(region, 16, 16)
	if err != nil {
		b.Fatal(err)
	}
	chunks, err := adr.PartitionGrid(items, grid)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := repo.LoadDataset("pts", adr.AttrSpace{Name: "in", Bounds: region}, chunks); err != nil {
		b.Fatal(err)
	}
	outGrid, err := adr.NewGrid(region, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := repo.LoadDataset("img", adr.AttrSpace{Name: "out", Bounds: region}, adr.GridChunks(outGrid)); err != nil {
		b.Fatal(err)
	}
	w, err := repo.BuildWorkload(&adr.Query{
		Input: "pts", Output: "img", Strategy: adr.DA,
		App: &adr.RasterApp{Op: adr.Sum, CellsPerDim: 4},
	})
	if err != nil {
		b.Fatal(err)
	}
	planner, err := plan.NewPlanner(repo.Machine())
	if err != nil {
		b.Fatal(err)
	}
	p, err := planner.Plan(plan.DA, w)
	if err != nil {
		b.Fatal(err)
	}
	replan := func(excluded []rpc.NodeID) (*plan.Plan, *plan.Workload, error) {
		ex := make(map[int32]bool, len(excluded))
		for _, id := range excluded {
			ex[int32(id)] = true
		}
		dw, err := plan.Degrade(repo.Machine(), w, ex, repo.Farm().DisksPerNode)
		if err != nil {
			return nil, nil, err
		}
		dp, err := plan.NewPlanner(repo.Machine())
		if err != nil {
			return nil, nil, err
		}
		dp.Exclude = ex
		p2, err := dp.Plan(plan.DA, dw)
		if err != nil {
			return nil, nil, err
		}
		return p2, dw, nil
	}
	canon := func(chunks []*adr.Chunk) string {
		var lines []string
		for _, c := range chunks {
			for _, it := range c.Items {
				v, _ := adr.DecodeValue(it.Value)
				lines = append(lines, fmt.Sprintf("%.3f,%.3f=%d", it.Coord.Coords[0], it.Coord.Coords[1], v))
			}
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}

	// run executes the query once: on the full mesh when dead < 0, else with
	// node dead killed before the survivors start.
	run := func(dead int) (time.Duration, string) {
		fabric, err := rpc.NewInprocFabricOpts(nodes, rpc.InprocOptions{Degraded: true})
		if err != nil {
			b.Fatal(err)
		}
		defer fabric.Close()
		var mu sync.Mutex
		var got []*adr.Chunk
		cfg := engine.Config{
			Plan: p, Workload: w,
			App:          &adr.RasterApp{Op: adr.Sum, CellsPerDim: 4},
			InputDataset: "pts",
			Degraded:     true,
			Replan:       replan,
			OnResult: func(node rpc.NodeID, c *adr.Chunk) error {
				mu.Lock()
				got = append(got, c)
				mu.Unlock()
				return nil
			},
		}
		st := engine.FarmStorage{Farm: repo.Farm()}
		if dead >= 0 {
			ep, err := fabric.Endpoint(rpc.NodeID(dead))
			if err != nil {
				b.Fatal(err)
			}
			ep.Close()
		}
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, nodes)
		for q := 0; q < nodes; q++ {
			if q == dead {
				continue
			}
			ep, err := fabric.Endpoint(rpc.NodeID(q))
			if err != nil {
				b.Fatal(err)
			}
			wg.Add(1)
			go func(q int, ep rpc.Endpoint) {
				defer wg.Done()
				_, errs[q] = engine.RunNodeTraced(context.Background(), cfg, ep, st)
			}(q, ep)
		}
		wg.Wait()
		for q, err := range errs {
			if err != nil {
				b.Fatalf("node %d: %v", q, err)
			}
		}
		return time.Since(start), canon(got)
	}
	best := func(dead int) (time.Duration, string) {
		bestWall, result := time.Duration(0), ""
		for i := 0; i < 3; i++ {
			wall, r := run(dead)
			if bestWall == 0 || wall < bestWall {
				bestWall = wall
			}
			result = r
		}
		return bestWall, result
	}

	fallbackReads := metrics.Default.Counter("adr_engine_degraded_runs_total")
	var healthyWall, degradedWall time.Duration
	var want, got string
	b.Run("healthy/p=4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			healthyWall, want = best(-1)
		}
		b.ReportMetric(float64(healthyWall.Nanoseconds())/1e6, "wall-ms")
	})
	runsBefore := fallbackReads.Value()
	b.Run("degraded/p=3of4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			degradedWall, got = best(0)
		}
		b.ReportMetric(float64(degradedWall.Nanoseconds())/1e6, "wall-ms")
	})
	degradedRuns := fallbackReads.Value() - runsBefore

	if healthyWall == 0 || degradedWall == 0 {
		return // a -bench filter selected a subset; nothing to compare
	}
	if got != want {
		b.Fatal("degraded query result diverges from the fault-free run")
	}
	if degradedRuns == 0 {
		b.Fatal("degraded leg never exercised a degraded run")
	}
	ratio := float64(degradedWall) / float64(healthyWall)
	if path := os.Getenv("BENCH_JSON"); path != "" {
		out := map[string]any{
			"benchmark":        "DegradedQuery",
			"nodes":            nodes,
			"replicas":         2,
			"healthy_wall_ns":  healthyWall.Nanoseconds(),
			"degraded_wall_ns": degradedWall.Nanoseconds(),
			"overhead_ratio":   ratio,
			"degraded_runs":    degradedRuns,
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutoSelect races AUTO strategy selection against every fixed
// strategy on the same repository: the fixed legs run first (calibrating the
// repository's cost model from their traces), then the AUTO leg executes
// under whatever the calibrated model picks. Reported metric: per-leg wall
// time. The benchmark fails if the strategy AUTO chose is much slower than
// the best fixed strategy — the selection-accuracy acceptance check. With
// BENCH_JSON set, a JSON summary (per-strategy wall, AUTO's choice and
// overhead ratio) is written to that path.
func BenchmarkAutoSelect(b *testing.B) {
	const aggDelay = 500 * time.Microsecond
	repo, err := adrNewCostRepo(0)
	if err != nil {
		b.Fatal(err)
	}
	defer repo.Close()

	app := func() adr.App {
		return &emulator.CostApp{
			Inner:    &adr.RasterApp{Op: adr.Sum, CellsPerDim: 4},
			AggDelay: aggDelay,
		}
	}
	walls := make(map[string]time.Duration)
	var chosen string
	legs := []struct {
		name  string
		strat adr.Strategy
	}{
		{"FRA", adr.FRA}, {"SRA", adr.SRA}, {"DA", adr.DA}, {"HYBRID", adr.Hybrid},
		{"AUTO", adr.Auto},
	}
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			var wall time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				res, err := repo.Execute(context.Background(), &adr.Query{
					Input: "pts", Output: "img", Strategy: leg.strat,
					App: app(),
				})
				if err != nil {
					b.Fatal(err)
				}
				wall += time.Since(start)
				if len(res.Chunks) == 0 {
					b.Fatal("no results")
				}
				if leg.strat == adr.Auto {
					if res.Selection == nil {
						b.Fatal("AUTO leg reported no selection")
					}
					chosen = res.Selection.Strategy
				}
			}
			walls[leg.name] = wall / time.Duration(b.N)
			b.ReportMetric(float64(walls[leg.name].Nanoseconds())/1e6, "wall-ms")
		})
	}

	auto := walls["AUTO"]
	best := time.Duration(0)
	for _, leg := range legs[:4] {
		w := walls[leg.name]
		if w > 0 && (best == 0 || w < best) {
			best = w
		}
	}
	if auto == 0 || best == 0 {
		return // a -bench filter selected a subset; nothing to compare
	}
	ratio := float64(auto) / float64(best)
	if path := os.Getenv("BENCH_JSON"); path != "" {
		out := map[string]any{
			"benchmark":       "AutoSelect",
			"agg_delay_ns":    aggDelay.Nanoseconds(),
			"chosen_strategy": chosen,
			"fra_wall_ns":     walls["FRA"].Nanoseconds(),
			"sra_wall_ns":     walls["SRA"].Nanoseconds(),
			"da_wall_ns":      walls["DA"].Nanoseconds(),
			"hybrid_wall_ns":  walls["HYBRID"].Nanoseconds(),
			"auto_wall_ns":    auto.Nanoseconds(),
			"auto_over_best":  ratio,
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	// AUTO includes the selection itself (four plans costed) on top of the
	// chosen execution, so allow generous headroom over the best fixed leg;
	// a mis-selection on this workload costs far more than 2x.
	if ratio > 2.0 {
		b.Fatalf("AUTO (%v, chose %s) is %.2fx the best fixed strategy (%v)",
			auto, chosen, ratio, best)
	}
}
