package core_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"adr/internal/apps"
	"adr/internal/chunk"
	"adr/internal/core"
	"adr/internal/costmodel"
	"adr/internal/engine"
	"adr/internal/metrics"
	"adr/internal/plan"
	"adr/internal/rpc"
	"adr/internal/simadr"
)

// volumes is what one processor's shares of a plan amount to over the whole
// query — this test's own sums over plan.Schedule, the expectation the live
// engine, the simulator and the cost model are each held to.
type volumes struct {
	chunksRead [4]int64 // per phase: owned existing outputs (I), inputs (LR)
	bytesRead  int64
	sent, recv [4]int64 // messages per phase
	pairs      int64    // aggregations
	combines   int64    // ghosts combined here
	// Bytes both ways: stored chunks travel as stored (existing outputs in
	// phase I, forwarded inputs in LR) and are exact on every path; ghost
	// accumulators and shipped finals are app encodings the plan prices at
	// Workload.AccSize / the output chunk's stored size.
	initBytes, inputBytes, ghostBytes, finalBytes int64
	ghostBytesSent                                int64
}

func planVolumes(p *plan.Plan, w *plan.Workload, initFromOutput bool) []volumes {
	sched := plan.Schedule(p, w)
	vol := make([]volumes, len(sched))
	for q, shares := range sched {
		v, self := &vol[q], int32(q)
		for _, sh := range shares {
			if initFromOutput {
				v.chunksRead[metrics.Initialization] += int64(len(sh.Owned))
				v.recv[metrics.Initialization] += int64(sh.ExpectInits)
				for k, o := range sh.Owned {
					bytes := w.Outputs[o].Bytes
					v.bytesRead += bytes
					for _, h := range sh.InitHolders[k] {
						if h != self {
							v.sent[metrics.Initialization]++
							v.initBytes += bytes
							vol[h].initBytes += bytes
						}
					}
				}
			}
			v.chunksRead[metrics.LocalReduction] += int64(len(sh.Reads))
			v.recv[metrics.LocalReduction] += int64(sh.ExpectInputs)
			for k, i := range sh.Reads {
				bytes := w.Inputs[i].Bytes
				v.bytesRead += bytes
				v.pairs += int64(sh.ReadPairs[k])
				for _, d := range sh.Dests(k) {
					v.sent[metrics.LocalReduction]++
					v.inputBytes += bytes
					vol[d.To].inputBytes += bytes
					vol[d.To].pairs += int64(d.Pairs)
				}
			}
			v.sent[metrics.GlobalCombine] += int64(len(sh.Ghosts))
			v.recv[metrics.GlobalCombine] += int64(sh.ExpectGhosts)
			v.combines += int64(sh.ExpectGhosts)
			for _, o := range sh.Ghosts {
				v.ghostBytes += w.AccSize(o)
				v.ghostBytesSent += w.AccSize(o)
				vol[p.Home[o]].ghostBytes += w.AccSize(o)
			}
			v.recv[metrics.OutputHandling] += int64(sh.ExpectFinals)
			for _, o := range sh.Locals {
				if owner := w.Outputs[o].Node; owner != self {
					v.sent[metrics.OutputHandling]++
					v.finalBytes += w.Outputs[o].Bytes
					vol[owner].finalBytes += w.Outputs[o].Bytes
				}
			}
		}
	}
	return vol
}

func sum4(a [4]int64) int64 { return a[0] + a[1] + a[2] + a[3] }

// runOverTCP executes the plan on a loopback TCP mesh, one RunNodeTraced per
// node as the daemons do, and returns the node traces.
func runOverTCP(t *testing.T, repo *core.Repository, q *core.Query, p *plan.Plan, w *plan.Workload) []metrics.NodeTrace {
	t.Helper()
	nodes := p.Machine.Procs
	mesh, err := rpc.NewLoopbackMesh(nodes, rpc.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	cfg := engine.Config{
		Plan: p, Workload: w, App: q.App,
		InputDataset: q.Input, OutputDataset: q.Output,
		OnResult: func(rpc.NodeID, *chunk.Chunk) error { return nil },
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	traces := make([]metrics.NodeTrace, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		ep, err := mesh.Endpoint(rpc.NodeID(n))
		if err != nil {
			t.Fatal(err)
		}
		d := engine.NewDispatcher(ep)
		defer d.Close()
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			traces[n], errs[n] = engine.RunNodeTraced(ctx, cfg, d.Endpoint(1), engine.FarmStorage{Farm: repo.Farm()})
		}(n)
	}
	wg.Wait()
	for n, err := range errs {
		if err != nil {
			t.Fatalf("tcp node %d: %v", n, err)
		}
	}
	return traces
}

// TestPlanVolumesAgree is the sim ↔ live cross-check (Fig 9(a)–(b) on the
// real engine): per processor, what the live engine counted while executing
// a plan, what the simulator counted replaying it, what the cost model priced
// and the sums over the plan's shares are the same numbers — every count, and
// every byte of stored-chunk traffic. Accumulator and final-output bytes are
// compared at the plan's price only; the live path's own are logged beside
// them (the plan prices a ghost at the stored size of an empty output chunk).
func TestPlanVolumesAgree(t *testing.T) {
	const I, LR, GC, OH = metrics.Initialization, metrics.LocalReduction, metrics.GlobalCombine, metrics.OutputHandling
	for _, nodes := range []int{2, 4, 8, 16} {
		for _, mem := range []int64{64 << 10, 200} { // one tile, several tiles
			repo := buildEnvOpts(t, core.Options{Nodes: nodes, AccMemBytes: mem}, 3000, 42)
			planner, err := plan.NewPlanner(repo.Machine())
			if err != nil {
				t.Fatal(err)
			}
			for _, useExisting := range []bool{false, true} {
				for _, s := range plan.Strategies {
					name := fmt.Sprintf("nodes=%d/mem=%d/existing=%v/%v", nodes, mem, useExisting, s)
					t.Run(name, func(t *testing.T) {
						q := &core.Query{
							Input: "sensor", Output: "raster", Strategy: s,
							App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 8, UseExisting: useExisting},
						}
						// The plan Execute derives for itself (planning is
						// deterministic), so the simulator and model rows stand
						// even when the engine row fails.
						w, err := repo.BuildWorkload(q)
						if err != nil {
							t.Fatal(err)
						}
						p, err := planner.Plan(s, w)
						if err != nil {
							t.Fatal(err)
						}
						if replicated := s == plan.FRA || s == plan.SRA; mem == 200 && replicated && len(p.Tiles) < 2 {
							// (DA and hybrid replicate nothing: on 8+ nodes a
							// node's two outputs fit even 200 B.)
							t.Fatalf("%d tile(s), want several", len(p.Tiles))
						}
						vol := planVolumes(p, w, useExisting)
						var wantPairs int64
						for _, ts := range w.Targets {
							wantPairs += int64(len(ts))
						}

						// Engine rows: the embedded repository, and for FRA and
						// DA at N=4 the same plan over a TCP mesh.
						var rows [][]metrics.NodeTrace
						ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
						defer cancel()
						if res, err := repo.Execute(ctx, q); err != nil {
							t.Errorf("engine: %v", err)
						} else {
							rows = append(rows, res.Report.Traces)
							if nodes == 4 && mem > 200 && (s == plan.FRA || s == plan.DA) {
								rows = append(rows, runOverTCP(t, repo, q, p, w))
							}
						}
						for r, traces := range rows {
							var pairs int64
							for n, tr := range traces {
								v, tot := vol[n], tr.Totals
								eq := func(what string, got, want int64) {
									t.Helper()
									if got != want {
										t.Errorf("engine row %d node %d: %s = %d, plan says %d", r, n, what, got, want)
									}
								}
								eq("chunks read", tot.ChunksRead, sum4(v.chunksRead))
								eq("bytes read", tot.BytesRead, v.bytesRead)
								eq("msgs sent", tot.MsgsSent, sum4(v.sent))
								eq("msgs recv", tot.MsgsRecv, sum4(v.recv))
								eq("aggregation pairs", tot.AggOps, v.pairs)
								eq("ghost combines", tot.CombineOps, v.combines)
								for ph := I; ph <= OH; ph++ {
									span := tr.Phases[ph]
									eq(span.Phase+" msgs sent", span.MsgsSent, v.sent[ph])
									eq(span.Phase+" msgs recv", span.MsgsRecv, v.recv[ph])
									eq(span.Phase+" chunks read", span.ChunksRead, v.chunksRead[ph])
								}
								// Stored chunks: the engine's own bytes, both ways.
								eq("existing-output bytes sent+recv", tr.Phases[I].BytesSent+tr.Phases[I].BytesRecv, v.initBytes)
								eq("forwarded-input bytes sent+recv", tr.Phases[LR].BytesSent+tr.Phases[LR].BytesRecv, v.inputBytes)
								if s == plan.DA { // all traffic is stored chunks
									eq("bytes sent+recv", tot.CommBytes(), v.initBytes+v.inputBytes)
								}
								pairs += tot.AggOps
							}
							if pairs != wantPairs {
								t.Errorf("engine row %d aggregated %d (input, output) pairs, workload has %d", r, pairs, wantPairs)
							}
						}

						// Simulator row.
						machine := simadr.DefaultMachine(nodes)
						sim, err := simadr.Simulate(p, w, simadr.Options{
							Machine: machine, Costs: costmodel.SeedCosts(), InitFromOutput: useExisting, Overlap: true,
						})
						if err != nil {
							t.Fatal(err)
						}
						var simPairs int64
						for n, sn := range sim.Nodes {
							v := vol[n]
							eq := func(what string, got, want int64) {
								t.Helper()
								if got != want {
									t.Errorf("simulator node %d: %s = %d, plan says %d", n, what, got, want)
								}
							}
							eq("chunks read", sn.ChunksRead, sum4(v.chunksRead))
							eq("bytes read", sn.BytesRead, v.bytesRead)
							eq("msgs sent", sn.MsgsSent, sum4(v.sent))
							eq("msgs recv", sn.MsgsRecv, sum4(v.recv))
							eq("aggregation pairs", sn.AggPairs, v.pairs)
							eq("ghost combines", sn.Combines, v.combines)
							eq("bytes sent+recv", sn.CommBytes(), v.initBytes+v.inputBytes+v.ghostBytes+v.finalBytes)
							simPairs += sn.AggPairs
						}
						if simPairs != wantPairs {
							t.Errorf("simulator aggregated %d (input, output) pairs, workload has %d", simPairs, wantPairs)
						}

						// Model row, held to the live engine's bytes: it prices no
						// phase-I forwarding; everything else it charges is the LR
						// traffic the engine measured plus the plan-priced rest.
						est, err := costmodel.Predict(p, w, machine, costmodel.SeedCosts())
						if err != nil {
							t.Fatal(err)
						}
						if len(rows) == 0 {
							t.Errorf("model: no live traffic to hold the estimate to")
							return
						}
						var modelComm, liveGhost, planGhost int64
						for n, tr := range rows[0] {
							live := tr.Phases[LR].BytesSent + tr.Phases[LR].BytesRecv
							modelComm = max(modelComm, live+vol[n].ghostBytes+vol[n].finalBytes)
							liveGhost += tr.Phases[GC].BytesSent
							planGhost += vol[n].ghostBytesSent
						}
						if est.CommBytes != modelComm {
							t.Errorf("model prices max per-node comm %d B, live stored + plan-priced = %d B", est.CommBytes, modelComm)
						}
						if planGhost > 0 {
							t.Logf("%v: live ghost bytes %d / plan-priced %d = %.1fx (not gated: ROADMAP item 2)",
								s, liveGhost, planGhost, float64(liveGhost)/float64(planGhost))
						}
					})
				}
			}
		}
	}
}
