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

// Serial-equivalence tests for end-to-end chunk compression: with the farm
// stored compressed and every engine payload compressed on the wire, each
// strategy on each transport must produce output byte-identical to the
// serial oracle, and every pooled decompression scratch buffer must return.
// A mixed fleet — one node compressing, its peers configured raw — must
// interoperate, because compressed payloads are self-describing and
// receivers decompress by sniffing the envelope, not by configuration.

// buildCompressedRepo is buildRepo on a columnar-compressed farm: the loader
// stores every chunk as an ADRZ envelope and queries through the repository
// compress their engine payloads too.
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
// trace. perNode, when set, overrides the config for one node id — the
// mixed-fleet tests use it to give nodes different codecs.
func runCompressedNodes(t *testing.T, nodes int, cfg engine.Config, w *plan.Workload, st engine.ChunkStorage, v *views, perNode func(rpc.NodeID, *engine.Config)) ([]*chunk.Chunk, []metrics.NodeTrace) {
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
		nodeCfg := cfg
		if perNode != nil {
			perNode(rpc.NodeID(q), &nodeCfg)
		}
		wg.Add(1)
		go func(q int, nodeCfg engine.Config) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			traces[q], errs[q] = v.run(ctx, id, rpc.NodeID(q), nodeCfg, st)
		}(q, nodeCfg)
	}
	wg.Wait()
	for q, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", q, err)
		}
	}
	return results, traces
}

// TestCompressedMatchSerial is the acceptance test for end-to-end
// compression correctness: a columnar-compressed farm, compressed forwards,
// ghosts and finals, on both transports, for every strategy — and the
// results must be byte-identical to the serial oracle over the same farm.
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
					Codec:        chunk.CodecColumnar,
				}
				got, traces := runCompressedNodes(t, nodes, cfg, w, engine.FarmStorage{Farm: repo.Farm()}, v, nil)
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
				cfg.Codec = chunk.CodecNone
				_, traces = runCompressedNodes(t, nodes, cfg, w, engine.FarmStorage{Farm: rawRepo.Farm()}, v, nil)
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
// each node inflates under DA: a reader decompresses a read only when it
// aggregates it here (ReadPairs > 0), and every forward is decompressed
// once at each destination. The engine compresses nothing of its own
// (CodecNone), so compressed stored chunks forward verbatim, raw ones stay
// raw, and every inflated byte is some input's StoredBytes — the count is
// exact, from plan.Schedule alone.
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
	got, traces := runCompressedNodes(t, nodes, cfg, w, engine.FarmStorage{Farm: repo.Farm()}, newViews(t, fabric.Endpoint), nil)
	requireIdenticalChunks(t, serialOracle(t, repo, p, w, app), got)
	for q, tr := range traces {
		if tr.Totals.CompressedBytes != want[q] {
			t.Errorf("node %d inflated %d compressed bytes, want %d (reads it aggregates + forwards it receives)",
				q, tr.Totals.CompressedBytes, want[q])
		}
	}
}

// TestCompressedMixedFleetMatchSerial pins mixed-fleet interoperability: one
// node compresses its engine payloads, its peers run with compression off
// (and a raw farm, so nothing they read or send is compressed on their
// own). Receivers must decompress the compressing node's self-describing
// payloads regardless of their configuration, and results must still match
// the serial oracle byte for byte.
func TestCompressedMixedFleetMatchSerial(t *testing.T) {
	const nodes = 3
	base := bufpool.Outstanding()
	repo := buildRepo(t, nodes) // raw farm: only node 0's wire payloads compress
	for _, s := range []plan.Strategy{plan.FRA, plan.DA} {
		t.Run(s.String(), func(t *testing.T) {
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

			fabric, err := rpc.NewInprocFabric(nodes, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer fabric.Close()
			cfg := engine.Config{
				Plan: p, Workload: w, App: app,
				InputDataset: "pts",
				Workers:      4,
			}
			got, traces := runCompressedNodes(t, nodes, cfg, w, engine.FarmStorage{Farm: repo.Farm()}, newViews(t, fabric.Endpoint),
				func(id rpc.NodeID, c *engine.Config) {
					if id == 0 {
						c.Codec = chunk.CodecColumnar
					}
				})
			requireIdenticalChunks(t, want, got)
			var compBytes int64
			for _, tr := range traces {
				compBytes += tr.Totals.CompressedBytes
			}
			if compBytes == 0 {
				t.Error("raw-configured peers never consumed node 0's compressed payloads")
			}
		})
	}
	if got := bufpool.Outstanding(); got != base {
		t.Errorf("outstanding buffers after mixed-fleet queries: %d, want %d", got, base)
	}
}

// TestDegradedCompressedFailover runs the kill-a-node-mid-query failover
// with compression on everywhere it can be: a 2-way replicated farm whose
// replicas are stored as columnar envelopes, and survivors that compress
// their traffic. The resubmission reads the dead node's chunks from
// compressed replica holders; the result must match the fault-free
// reference.
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

	compress := func(c *engine.Config) { c.Codec = chunk.CodecColumnar }
	t.Run("inproc", func(t *testing.T) {
		for _, s := range []plan.Strategy{plan.FRA, plan.DA} {
			t.Run(s.String(), func(t *testing.T) {
				fabric, err := rpc.NewInprocFabric(3, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer fabric.Close()
				checkDegradedTraces(t, runDegradedFailover(t, repo, s, newViews(t, fabric.Endpoint), compress))
			})
		}
	})
	t.Run("tcp", func(t *testing.T) {
		mesh, err := rpc.NewLoopbackMesh(3, rpc.TCPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer mesh.Close()
		checkDegradedTraces(t, runDegradedFailover(t, repo, plan.DA, newViews(t, mesh.Endpoint), compress))
	})
}

// TestCompressedPeerDeathLeaksNoBuffers kills a peer in the middle of a
// compressed, flow-controlled DA query: the abort must drain every in-flight
// compressed payload and pooled decompression scratch, leaving the bufpool
// balance exactly where it started.
func TestCompressedPeerDeathLeaksNoBuffers(t *testing.T) {
	const nodes = 3
	base := bufpool.Outstanding()
	repo, _, cfg := planDA(t, nodes)
	cfg.Codec = chunk.CodecColumnar
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
