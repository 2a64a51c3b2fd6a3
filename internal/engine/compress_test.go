package engine_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"adr/internal/apps"
	"adr/internal/bufpool"
	"adr/internal/chunk"
	"adr/internal/core"
	"adr/internal/engine"
	"adr/internal/leakcheck"
	"adr/internal/metrics"
	"adr/internal/plan"
	"adr/internal/rpc"
)

// Serial-equivalence tests for stored chunk compression: with the farm
// stored compressed, each strategy on each transport must produce output
// byte-identical to the serial oracle, and every pooled decompression
// scratch buffer must return. A stored chunk travels in the form it is
// stored in, and receivers decompress by sniffing the envelope; what the
// engine originates — ghosts, shipped finals, write-backs — travels raw.

// buildCompressedRepo is buildRepo on a columnar-compressed farm: the loader
// stores every chunk that shrinks as an ADRZ envelope.
func buildCompressedRepo(t *testing.T, nodes int) *core.Repository {
	t.Helper()
	repo, err := core.NewRepository(core.Options{
		Nodes: nodes, AccMemBytes: 32 << 10, Codec: chunk.CodecColumnar,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	loadTestDatasets(t, repo)
	return repo
}

// runCompressedNodes executes cfg once per node on the given views and
// returns the finished outputs in output-position order plus each node's
// trace.
func runCompressedNodes(t *testing.T, nodes int, cfg engine.Config, w *plan.Workload, st engine.ChunkStorage, v *views) ([]*chunk.Chunk, []metrics.NodeTrace) {
	t.Helper()
	idToPos := make(map[chunk.ID]int32, len(w.Outputs))
	for pos, m := range w.Outputs {
		idToPos[m.ID] = int32(pos)
	}
	results := make([]*chunk.Chunk, len(w.Outputs))
	var mu sync.Mutex
	cfg.OnResult = func(node rpc.NodeID, c *chunk.Chunk) error {
		mu.Lock()
		defer mu.Unlock()
		pos, ok := idToPos[c.Meta.ID]
		if !ok {
			return fmt.Errorf("result for unknown output chunk %d", c.Meta.ID)
		}
		results[pos] = c
		return nil
	}

	traces := make([]metrics.NodeTrace, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	id := v.query()
	for q := 0; q < nodes; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			traces[q], errs[q] = v.run(ctx, id, rpc.NodeID(q), cfg, st)
		}(q)
	}
	wg.Wait()
	for q, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", q, err)
		}
	}
	return results, traces
}

// TestCompressedMatchSerial is the acceptance test for stored-compression
// correctness: a columnar-compressed farm whose envelopes are forwarded
// verbatim, on both transports, for every strategy — and the results must
// be byte-identical to the serial oracle over the same farm.
// The bufpool balance pins the pooled decompression scratch path.
func TestCompressedMatchSerial(t *testing.T) {
	const nodes = 3
	base := bufpool.Outstanding()
	repo := buildCompressedRepo(t, nodes)
	rawRepo := buildRepo(t, nodes) // the same items, stored raw
	for _, transport := range []string{"inproc", "tcp"} {
		for _, s := range []plan.Strategy{plan.FRA, plan.SRA, plan.DA, plan.Hybrid} {
			t.Run(transport+"/"+s.String(), func(t *testing.T) {
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

				var v *views
				if transport == "tcp" {
					mesh, err := rpc.NewLoopbackMesh(nodes, rpc.TCPOptions{})
					if err != nil {
						t.Fatal(err)
					}
					defer mesh.Close()
					v = newViews(t, mesh.Endpoint)
				} else {
					fabric, err := rpc.NewInprocFabric(nodes, 0)
					if err != nil {
						t.Fatal(err)
					}
					defer fabric.Close()
					v = newViews(t, fabric.Endpoint)
				}
				cfg := engine.Config{
					Plan: p, Workload: w, App: app,
					InputDataset: "pts",
					Workers:      4,
				}
				got, traces := runCompressedNodes(t, nodes, cfg, w, engine.FarmStorage{Farm: repo.Farm()}, v)
				requireIdenticalChunks(t, want, got)
				comp := (&metrics.QueryTrace{Nodes: traces}).Total()
				if comp.CompressedBytes == 0 {
					t.Error("no compressed payloads consumed: the compressed path never engaged")
				}
				if transport != "inproc" || s != plan.DA {
					return
				}
				// The forward-heavy row also runs on a raw copy of the farm:
				// the same plan (a plan holds positions, not bytes) must read
				// and send at least 1.5x the bytes. Both counts are sums of
				// stored chunk sizes, so the ratio is exact, not timed.
				_, traces = runCompressedNodes(t, nodes, cfg, w, engine.FarmStorage{Farm: rawRepo.Farm()}, v)
				raw := (&metrics.QueryTrace{Nodes: traces}).Total()
				if 2*raw.BytesRead < 3*comp.BytesRead {
					t.Errorf("compressed farm read %d B, raw farm %d B: want >= 1.5x fewer", comp.BytesRead, raw.BytesRead)
				}
				if 2*raw.BytesSent < 3*comp.BytesSent {
					t.Errorf("compressed run sent %d B, raw run %d B: want >= 1.5x fewer", comp.BytesSent, raw.BytesSent)
				}
			})
		}
	}
	if got := bufpool.Outstanding(); got != base {
		t.Errorf("outstanding buffers after compressed queries: %d, want %d", got, base)
	}
}

// TestCompressedDADecodesOnlyAggregatedReads counts the compressed bytes
// each node decompresses under DA: a reader decompresses a read only when it
// aggregates it here (ReadPairs > 0), and every forward is decompressed
// once at each destination. The engine compresses nothing of its own, so
// compressed stored chunks forward verbatim, raw ones stay raw, and every
// decompressed byte is some input's StoredBytes — the count is exact, from
// plan.Schedule alone.
func TestCompressedDADecodesOnlyAggregatedReads(t *testing.T) {
	const nodes = 3
	repo := buildCompressedRepo(t, nodes)
	app := &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4}
	w, err := repo.BuildWorkload(&core.Query{Input: "pts", Output: "img", Strategy: plan.DA, App: app})
	if err != nil {
		t.Fatal(err)
	}
	planner, err := plan.NewPlanner(repo.Machine())
	if err != nil {
		t.Fatal(err)
	}
	p, err := planner.Plan(plan.DA, w)
	if err != nil {
		t.Fatal(err)
	}

	want := make([]int64, nodes)
	var forwardOnly int64 // stored bytes a reader reads only to forward
	for q, shares := range plan.Schedule(p, w) {
		for ti := range shares {
			sh := &shares[ti]
			for k, i := range sh.Reads {
				stored := w.Inputs[i].StoredBytes
				if sh.ReadPairs[k] > 0 {
					want[q] += stored
				} else {
					forwardOnly += stored
				}
				for _, d := range sh.Dests(k) {
					want[d.To] += stored
				}
			}
		}
	}
	if forwardOnly == 0 {
		t.Fatal("setup: no compressed read is forward-only, so the count cannot tell")
	}

	fabric, err := rpc.NewInprocFabric(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()
	cfg := engine.Config{Plan: p, Workload: w, App: app, InputDataset: "pts", Workers: 4}
	got, traces := runCompressedNodes(t, nodes, cfg, w, engine.FarmStorage{Farm: repo.Farm()}, newViews(t, fabric.Endpoint))
	requireIdenticalChunks(t, serialOracle(t, repo, p, w, app), got)
	for q, tr := range traces {
		if tr.Totals.CompressedBytes != want[q] {
			t.Errorf("node %d decompressed %d compressed bytes, want %d (reads it aggregates + forwards it receives)",
				q, tr.Totals.CompressedBytes, want[q])
		}
	}
}

// TestDegradedCompressedFailover runs the kill-a-node-mid-query failover
// over a 2-way replicated farm whose replicas are stored as columnar
// envelopes. The resubmission reads the dead node's chunks from compressed
// replica holders; the result must match the fault-free reference.
func TestDegradedCompressedFailover(t *testing.T) {
	leakcheck.Check(t)
	repo, err := core.NewRepository(core.Options{
		Nodes: 3, AccMemBytes: 32 << 10, Replicas: 2, Codec: chunk.CodecColumnar,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	loadTestDatasets(t, repo)

	t.Run("inproc", func(t *testing.T) {
		for _, s := range []plan.Strategy{plan.FRA, plan.DA} {
			t.Run(s.String(), func(t *testing.T) {
				fabric, err := rpc.NewInprocFabric(3, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer fabric.Close()
				checkDegradedTraces(t, runDegradedFailover(t, repo, s, newViews(t, fabric.Endpoint)))
			})
		}
	})
	t.Run("tcp", func(t *testing.T) {
		mesh, err := rpc.NewLoopbackMesh(3, rpc.TCPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer mesh.Close()
		checkDegradedTraces(t, runDegradedFailover(t, repo, plan.DA, newViews(t, mesh.Endpoint)))
	})
}

// TestCompressedPeerDeathLeaksNoBuffers kills a peer in the middle of a
// flow-controlled DA query over a compressed farm: the abort must drain
// every in-flight forwarded envelope and pooled decompression scratch,
// leaving the bufpool balance exactly where it started.
func TestCompressedPeerDeathLeaksNoBuffers(t *testing.T) {
	const nodes = 3
	base := bufpool.Outstanding()
	repo := buildCompressedRepo(t, nodes)
	cfg, err := prepare(repo, failoverQuery(plan.DA))
	if err != nil {
		t.Fatal(err)
	}
	cfg.OnResult = func(rpc.NodeID, *chunk.Chunk) error { return nil }
	fabric, err := rpc.NewInprocFabricOpts(nodes, rpc.InprocOptions{
		Flow: rpc.Flow{WindowBytes: 4 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := engine.FarmStorage{Farm: repo.Farm()}
	v := newViews(t, fabric.Endpoint)

	errs := make([]error, nodes)
	var wg sync.WaitGroup
	id := v.query()
	for q := 1; q < nodes; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_, errs[q] = v.run(ctx, id, rpc.NodeID(q), cfg, st)
		}(q)
	}
	ep0, _ := fabric.Endpoint(0)
	time.Sleep(50 * time.Millisecond)
	ep0.Close()
	wg.Wait()

	for q := 1; q < nodes; q++ {
		if errs[q] == nil {
			t.Errorf("node %d completed against a dead peer", q)
		}
	}
	fabric.Close()
	v.close()
	if got := bufpool.Outstanding(); got != base {
		t.Errorf("outstanding buffers after compressed peer death: %d, want %d", got, base)
	}
}

// ghostRecorder is a RasterApp that sums, per output chunk, the bytes its
// EncodeAccum returned: what every ghost of that output put on the wire.
type ghostRecorder struct {
	*apps.RasterApp
	mu    sync.Mutex
	bytes map[chunk.ID]int64
}

func (g *ghostRecorder) EncodeAccum(acc engine.Accumulator, out chunk.Meta) ([]byte, error) {
	data, err := g.RasterApp.EncodeAccum(acc, out)
	g.mu.Lock()
	g.bytes[out.ID] += int64(len(data))
	g.mu.Unlock()
	return data, err
}

// TestCompressedFarmWireCounts pins the wire rule on a compressed farm,
// counted per node on queries through the repository: a forwarded chunk
// travels as it is stored, and what the engine originates travels as its
// App or chunk codec wrote it — every ghost is what RasterApp.EncodeAccum
// returned (its populated runs, so the size depends on the data), every
// shipped final its raw chunk encoding. Every ghost of an output goes to
// that output's home, so a node's GC receive count is the sum of its homed
// outputs' encodings, and the nodes' GC sends add up to all of them.
func TestCompressedFarmWireCounts(t *testing.T) {
	const nodes, cells = 3, 4
	repo := buildCompressedRepo(t, nodes)
	var forwards, ghosts, finals int64
	for _, s := range plan.Strategies {
		app := &ghostRecorder{RasterApp: &apps.RasterApp{Op: apps.Sum, CellsPerDim: cells}, bytes: map[chunk.ID]int64{}}
		res, err := repo.Execute(context.Background(), &core.Query{
			Input: "pts", Output: "img", Strategy: s, App: app,
		})
		if err != nil {
			t.Fatal(err)
		}
		w := res.Workload
		var gcSent, encoded int64
		for _, b := range app.bytes {
			encoded += b
		}
		for q, shares := range plan.Schedule(res.Plan, w) {
			var lr, oh, gcRecv int64
			for ti := range shares {
				sh := &shares[ti]
				for k, i := range sh.Reads {
					n := int64(len(sh.Dests(k)))
					lr += n * w.Inputs[i].StoredOrRaw()
					forwards += n
				}
				for _, o := range sh.Locals {
					if w.Outputs[o].Node != int32(q) {
						oh += int64(chunk.EncodedSize(res.Chunks[o]))
						finals++
					}
				}
			}
			for o, home := range res.Plan.Home {
				if home == int32(q) {
					gcRecv += app.bytes[w.Outputs[o].ID]
				}
			}
			tr := res.Report.Traces[q]
			if got := tr.Phases[metrics.LocalReduction].BytesSent; got != lr {
				t.Errorf("%v node %d: LR sent %d B, want the forwarded chunks' stored %d B", s, q, got, lr)
			}
			gc := tr.Phases[metrics.GlobalCombine]
			ghosts += gc.MsgsSent
			gcSent += gc.BytesSent
			if gc.BytesRecv != gcRecv {
				t.Errorf("%v node %d: GC received %d B, want its homed outputs' encoded ghosts, %d B", s, q, gc.BytesRecv, gcRecv)
			}
			if got := tr.Phases[metrics.OutputHandling].BytesSent; got != oh {
				t.Errorf("%v node %d: OH sent %d B, want the shipped finals' raw %d B", s, q, got, oh)
			}
		}
		if gcSent != encoded {
			t.Errorf("%v: GC sent %d B, want the %d B EncodeAccum returned", s, gcSent, encoded)
		}
	}
	if forwards == 0 || ghosts == 0 || finals == 0 {
		t.Fatalf("setup: %d forwards, %d ghosts, %d shipped finals: every kind must be counted", forwards, ghosts, finals)
	}
}
