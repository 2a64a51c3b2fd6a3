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
	"fmt"
	"testing"

	"adr/internal/decluster"
	"adr/internal/emulator"
	"adr/internal/experiments"
	"adr/internal/index"
	"adr/internal/plan"
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
