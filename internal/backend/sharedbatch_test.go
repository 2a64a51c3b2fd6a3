package backend_test

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"adr/internal/apps"
	"adr/internal/backend"
	"adr/internal/core"
	"adr/internal/engine"
	"adr/internal/frontend"
	"adr/internal/layout"
	"adr/internal/plan"
	"adr/internal/rpc"
)

// startBatchStack brings up a mesh of node daemons with the shared-scan
// scheduler enabled (window/maxBatch) over a fresh file-backed farm.
func startBatchStack(t *testing.T, nodes int, window time.Duration, maxBatch int) (dir string, ctrlAddrs []string) {
	t.Helper()
	dir = t.TempDir()
	buildFarmDir(t, dir, nodes)
	meshAddrs, meshLns := freeAddrs(t, nodes)
	servers := make([]*backend.Server, nodes)
	startErr := make(chan error, nodes)
	for i := 0; i < nodes; i++ {
		go func(i int) {
			s, err := backend.Start(backend.Config{
				Node:         rpc.NodeID(i),
				MeshAddrs:    meshAddrs,
				MeshListener: meshLns[i],
				ControlAddr:  "127.0.0.1:0",
				DataDir:      dir,
				Scan:         engine.ScanOptions{BatchWindow: window, MaxBatch: maxBatch},
			})
			servers[i] = s
			startErr <- err
		}(i)
	}
	for i := 0; i < nodes; i++ {
		if err := <-startErr; err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, s := range servers {
			if s != nil {
				s.Close()
			}
		}
	})
	ctrlAddrs = make([]string, nodes)
	for i, s := range servers {
		ctrlAddrs[i] = s.ControlAddr()
	}
	return dir, ctrlAddrs
}

// serialReference executes the query on an in-process repository over the
// same farm directory and returns the canonical result.
func serialReference(t *testing.T, dir string, nodes int, q *core.Query) string {
	t.Helper()
	repo, err := core.NewRepository(core.Options{Nodes: nodes, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	_, datasets, err := layout.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range datasets {
		if err := repo.RegisterDataset(ds); err != nil {
			t.Fatal(err)
		}
	}
	res, err := repo.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return canonicalChunks(res.Chunks)
}

// mergeStreams flattens a query's per-node streams into one chunk list.
func mergeStreams(streams []frontend.NodeStream) []*frontend.ChunkJSON {
	var all []*frontend.ChunkJSON
	for _, st := range streams {
		all = append(all, st.Chunks...)
	}
	return all
}

// TestSharedBatchOverlapMatchesSerial drives two fully-overlapping queries
// into one shared-scan batch and checks (a) both results equal the serial
// in-process reference and (b) the traces record deduplicated reads — or,
// on degraded nodes, none at all: -degraded turns the batch window off
// (core.Exec), and the results must not change for it.
func TestSharedBatchOverlapMatchesSerial(t *testing.T) {
	const nodes = 2
	for _, degraded := range []bool{false, true} {
		t.Run(fmt.Sprintf("degraded=%v", degraded), func(t *testing.T) {
			dir := t.TempDir()
			buildFarmDir(t, dir, nodes)
			_, ctrlAddrs := startNodesOver(t, dir, nodes, func(_ int, cfg *backend.Config) {
				cfg.Scan = engine.ScanOptions{BatchWindow: 250 * time.Millisecond, MaxBatch: 2}
				cfg.Degraded = degraded
			})

			want := serialReference(t, dir, nodes, &core.Query{
				Input: "sensor", Output: "raster", Strategy: plan.FRA,
				App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
			})

			pc, err := frontend.NewParallelClient(ctrlAddrs)
			if err != nil {
				t.Fatal(err)
			}
			spec := &frontend.QuerySpec{
				Input: "sensor", Output: "raster", Strategy: "FRA",
				App: frontend.AppSpec{Kind: "raster", Op: "sum", CellsPerDim: 4},
			}
			results, errs := pc.QueryAll([]*frontend.QuerySpec{spec, spec})
			var sharedReads, dedupedBytes int64
			for qi := range results {
				if errs[qi] != nil {
					t.Fatalf("query %d: %v", qi, errs[qi])
				}
				if got := canonicalJSON(mergeStreams(results[qi])); got != want {
					t.Errorf("query %d result differs from serial reference", qi)
				}
				for _, st := range results[qi] {
					if st.Stats == nil || st.Stats.Trace == nil {
						t.Fatalf("query %d node %d: missing trace", qi, st.Node)
					}
					sharedReads += st.Stats.Trace.Totals.SharedReads
					dedupedBytes += st.Stats.Trace.Totals.DedupedBytes
				}
			}
			if degraded && sharedReads != 0 {
				t.Errorf("degraded nodes recorded %d shared reads: the batch window must be off", sharedReads)
			}
			if !degraded && (sharedReads == 0 || dedupedBytes == 0) {
				t.Errorf("no shared reads recorded (shared=%d deduped=%d): batch never coalesced", sharedReads, dedupedBytes)
			}
		})
	}
}

// TestSharedBatchZeroResult runs a zero-result query inside a shared batch
// alongside a full query: the empty member must complete cleanly (no items,
// no error) without disturbing its peer.
func TestSharedBatchZeroResult(t *testing.T) {
	const nodes = 2
	dir, ctrlAddrs := startBatchStack(t, nodes, 250*time.Millisecond, 2)

	full := &frontend.QuerySpec{
		Input: "sensor", Output: "raster", Strategy: "DA",
		App: frontend.AppSpec{Kind: "raster", Op: "count", CellsPerDim: 4},
	}
	// Inputs restricted to the lower-left corner, outputs to the top-right
	// chunk: the selected output has no contributing inputs, so the query
	// returns its chunk with zero cells.
	empty := &frontend.QuerySpec{
		Input: "sensor", Output: "raster", Strategy: "DA",
		InputBox:  []float64{0, 1, 0, 1},
		OutputBox: []float64{38, 39, 38, 39},
		App:       frontend.AppSpec{Kind: "raster", Op: "count", CellsPerDim: 4},
	}
	pc, err := frontend.NewParallelClient(ctrlAddrs)
	if err != nil {
		t.Fatal(err)
	}
	results, errs := pc.QueryAll([]*frontend.QuerySpec{full, empty})
	for qi, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
	}

	var counted int64
	for _, c := range mergeStreams(results[0]) {
		for _, it := range c.Items {
			v, err := apps.DecodeValue(it.Value)
			if err != nil {
				t.Fatal(err)
			}
			counted += v
		}
	}
	if counted != 1500 {
		t.Errorf("full query counted %d items, want 1500", counted)
	}

	emptyChunks := mergeStreams(results[1])
	cells := 0
	for _, c := range emptyChunks {
		cells += len(c.Items)
	}
	if cells != 0 {
		t.Errorf("zero-result batch member produced %d cells", cells)
	}
	if len(emptyChunks) == 0 {
		t.Error("zero-result member emitted no chunks at all (owner must still emit its empty output)")
	}

	want := serialReference(t, dir, nodes, &core.Query{
		Input: "sensor", Output: "raster", Strategy: plan.DA,
		App: &apps.RasterApp{Op: apps.Count, CellsPerDim: 4},
	})
	if got := canonicalJSON(mergeStreams(results[0])); got != want {
		t.Error("full query inside shared batch differs from serial reference")
	}
}

// TestSharedBatchAbortPeersComplete kills one batch member mid-query — the
// client submits to every node, then drops its connections — and checks the
// surviving member still completes with the correct result.
func TestSharedBatchAbortPeersComplete(t *testing.T) {
	const nodes = 2
	dir, ctrlAddrs := startBatchStack(t, nodes, 250*time.Millisecond, 2)

	want := serialReference(t, dir, nodes, &core.Query{
		Input: "sensor", Output: "raster", Strategy: plan.FRA,
		App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
	})

	// The doomed member: submit the same query under a hand-picked id on
	// every node, then slam the connections shut. The nodes fail when they
	// stream output to the dead client and abort that query mesh-wide.
	doomed := make([]net.Conn, 0, nodes)
	for _, addr := range ctrlAddrs {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		doomed = append(doomed, conn)
		req := &frontend.NodeRequest{QueryID: -777777, Spec: frontend.QuerySpec{
			Input: "sensor", Output: "raster", Strategy: "FRA",
			App: frontend.AppSpec{Kind: "raster", Op: "sum", CellsPerDim: 4},
		}}
		if err := frontend.WriteJSON(conn, req); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		for _, c := range doomed {
			c.Close()
		}
	}()

	// The survivor joins the same batch window and must be untouched by its
	// peer's death.
	pc, err := frontend.NewParallelClient(ctrlAddrs)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := pc.Query(&frontend.QuerySpec{
		Input: "sensor", Output: "raster", Strategy: "FRA",
		App: frontend.AppSpec{Kind: "raster", Op: "sum", CellsPerDim: 4},
	})
	if err != nil {
		t.Fatalf("surviving batch member failed: %v", err)
	}
	if got := canonicalJSON(mergeStreams(streams)); got != want {
		t.Error("surviving batch member's result differs from serial reference")
	}
}
