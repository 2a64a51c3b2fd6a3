package engine_test

import (
	"context"
	"strings"
	"testing"

	"adr/internal/apps"
	"adr/internal/chunk"
	"adr/internal/core"
	"adr/internal/engine"
	"adr/internal/metrics"
	"adr/internal/plan"
	"adr/internal/rpc"
)

// TestTraceAssembly runs a multi-node in-process query and checks that the
// per-node, per-phase trace is complete and self-consistent: every node
// carries all four phases in order, the per-phase traffic sums to the node
// totals, and bytes sent across the mesh equal bytes received.
func TestTraceAssembly(t *testing.T) {
	const nodes = 3
	repo := buildRepo(t, nodes)
	for _, s := range []plan.Strategy{plan.FRA, plan.DA} {
		t.Run(s.String(), func(t *testing.T) {
			res, err := repo.Execute(context.Background(), &core.Query{
				Input: "pts", Output: "img", Strategy: s,
				App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
			})
			if err != nil {
				t.Fatal(err)
			}
			traces := res.Report.Traces
			if len(traces) != nodes {
				t.Fatalf("got %d traces, want %d", len(traces), nodes)
			}

			wantPhases := []string{"I", "LR", "GC", "OH"}
			var sent, recv, msgsSent, msgsRecv int64
			for q, tr := range traces {
				if tr.Node != q {
					t.Errorf("trace %d labelled node %d", q, tr.Node)
				}
				if tr.WallNanos <= 0 {
					t.Errorf("node %d: wall time %d", q, tr.WallNanos)
				}
				if len(tr.Phases) != len(wantPhases) {
					t.Fatalf("node %d: %d phases", q, len(tr.Phases))
				}
				// Per-phase traffic must sum to the node's totals.
				var ps metrics.Snapshot
				for i, p := range tr.Phases {
					if p.Phase != wantPhases[i] {
						t.Errorf("node %d phase %d = %q, want %q", q, i, p.Phase, wantPhases[i])
					}
					if p.Nanos != tr.Totals.PhaseNanos[i] {
						t.Errorf("node %d %s: span nanos %d != totals %d", q, p.Phase, p.Nanos, tr.Totals.PhaseNanos[i])
					}
					ps.BytesRead += p.BytesRead
					ps.BytesSent += p.BytesSent
					ps.BytesRecv += p.BytesRecv
					ps.ChunksRead += p.ChunksRead
					ps.MsgsSent += p.MsgsSent
					ps.MsgsRecv += p.MsgsRecv
				}
				if ps.BytesRead != tr.Totals.BytesRead || ps.ChunksRead != tr.Totals.ChunksRead {
					t.Errorf("node %d: phase read sums %+v != totals read=%d chunks=%d",
						q, ps, tr.Totals.BytesRead, tr.Totals.ChunksRead)
				}
				if ps.BytesSent != tr.Totals.BytesSent || ps.MsgsSent != tr.Totals.MsgsSent {
					t.Errorf("node %d: phase sent sums != totals (%d vs %d bytes)", q, ps.BytesSent, tr.Totals.BytesSent)
				}
				if ps.BytesRecv != tr.Totals.BytesRecv || ps.MsgsRecv != tr.Totals.MsgsRecv {
					t.Errorf("node %d: phase recv sums != totals (%d vs %d bytes)", q, ps.BytesRecv, tr.Totals.BytesRecv)
				}
				sent += tr.Totals.BytesSent
				recv += tr.Totals.BytesRecv
				msgsSent += tr.Totals.MsgsSent
				msgsRecv += tr.Totals.MsgsRecv
			}
			// Conservation across the mesh: every payload byte sent by some
			// node is received by some node.
			if sent != recv {
				t.Errorf("mesh sent %d bytes but received %d", sent, recv)
			}
			if msgsSent != msgsRecv {
				t.Errorf("mesh sent %d msgs but received %d", msgsSent, msgsRecv)
			}
			if sent == 0 {
				t.Error("multi-node run exchanged no bytes")
			}

			// The assembled QueryTrace agrees with the report.
			qt := res.Report.Trace(7)
			if qt.QueryID != 7 || len(qt.Nodes) != nodes {
				t.Errorf("QueryTrace = id %d, %d nodes", qt.QueryID, len(qt.Nodes))
			}
			if qt.Total() != res.Report.Total() {
				t.Error("QueryTrace total differs from report total")
			}
			if qt.MaxWall() <= 0 {
				t.Error("MaxWall = 0")
			}
			out := qt.String()
			if !strings.Contains(out, "query 7") || !strings.Contains(out, "node") {
				t.Errorf("trace table unexpected:\n%s", out)
			}
		})
	}
}

// TestTraceLocalReductionReads checks phase attribution: input chunks are
// read during Local Reduction, and under FRA ghost traffic lands in Global
// Combine.
func TestTraceLocalReductionReads(t *testing.T) {
	repo := buildRepo(t, 3)
	res, err := repo.Execute(context.Background(), &core.Query{
		Input: "pts", Output: "img", Strategy: plan.FRA,
		App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	var lrRead, gcBytes int64
	for _, tr := range res.Report.Traces {
		lrRead += tr.Phases[metrics.LocalReduction].ChunksRead
		gcBytes += tr.Phases[metrics.GlobalCombine].BytesSent
	}
	if lrRead == 0 {
		t.Error("no input chunks attributed to Local Reduction")
	}
	if gcBytes == 0 {
		t.Error("FRA ghost exchange not attributed to Global Combine")
	}
}

// TestWrappedStorageKeepsCacheHits: a ChunkStorage wrapper that only passes
// calls through keeps the chunk cache's accounting. A repeated query over a
// cached farm reports every input read as a cache hit and times none of them
// as disk reads, the timings costmodel.Calibration learns disk bandwidth
// from.
func TestWrappedStorageKeepsCacheHits(t *testing.T) {
	const nodes = 3
	repo, err := core.NewRepository(core.Options{Nodes: nodes, AccMemBytes: 32 << 10, CacheBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	loadTestDatasets(t, repo)
	app := &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4}
	res, err := repo.Execute(context.Background(), &core.Query{Input: "pts", Output: "img", Strategy: plan.FRA, App: app})
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{
		Plan: res.Plan, Workload: res.Workload, App: app,
		InputDataset: "pts",
		OnResult:     func(rpc.NodeID, *chunk.Chunk) error { return nil },
	}
	wrapped := struct{ engine.ChunkStorage }{engine.FarmStorage{Farm: repo.Farm()}}
	var total metrics.Snapshot
	for run := 0; run < 2; run++ {
		fabric, err := rpc.NewInprocFabric(nodes, 0)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := engine.Run(context.Background(), cfg, fabric, wrapped)
		fabric.Close()
		if err != nil {
			t.Fatal(err)
		}
		total = rep.Total()
	}
	inputs := int64(len(res.Workload.Inputs))
	if total.ChunksRead != inputs || total.CacheHits != inputs || total.DiskReadBytes != 0 {
		t.Errorf("second run: %d chunks read, %d cache hits, %d disk-read bytes; want %d hits, 0 bytes",
			total.ChunksRead, total.CacheHits, total.DiskReadBytes, inputs)
	}
}
