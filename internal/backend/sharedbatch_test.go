package backend_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"adr/internal/apps"
	"adr/internal/backend"
	"adr/internal/core"
	"adr/internal/frontend"
	"adr/internal/layout"
	"adr/internal/plan"
)

// startCachedStack brings up a mesh of node daemons, each with a chunk cache
// large enough never to evict, over a fresh file-backed farm: the stack on
// which concurrent overlapping queries share reads.
func startCachedStack(t *testing.T, nodes int) (dir string, ctrlAddrs []string) {
	t.Helper()
	dir = t.TempDir()
	buildFarmDir(t, dir, nodes)
	_, ctrlAddrs = startNodesOver(t, dir, nodes, func(_ int, cfg *backend.Config) {
		cfg.CacheBytes = 64 << 20
	})
	return dir, ctrlAddrs
}

// degradedVictim is the node startDegradedCachedStack kills.
const degradedVictim = 2

// startDegradedCachedStack is startCachedStack over a three-node farm loaded
// with 2-way replication, with node degradedVictim dead. The parallel client
// it returns has already learned the death from one query, so every query it
// sends is planned without that node onto the survivors' replica copies.
// That query's input box lies outside the dataset, so it reads no chunk and
// the survivors' caches are still cold.
func startDegradedCachedStack(t *testing.T) (dir string, pc *frontend.ParallelClient) {
	t.Helper()
	const nodes = 3
	dir = t.TempDir()
	buildReplicatedFarmDir(t, dir, nodes, 2)
	servers, ctrlAddrs := startNodesOver(t, dir, nodes, func(_ int, cfg *backend.Config) {
		cfg.CacheBytes = 64 << 20
	})
	servers[degradedVictim].Close()
	pc, err := frontend.NewParallelClient(ctrlAddrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	streams, err := pc.Query(&frontend.QuerySpec{
		Input: "sensor", Output: "raster", Strategy: "DA",
		InputBox: []float64{100, 101, 100, 101},
		App:      frontend.AppSpec{Kind: "raster", Op: "sum", CellsPerDim: 4},
	})
	if err != nil {
		t.Fatalf("query that learns node %d dead: %v", degradedVictim, err)
	}
	if !streams[degradedVictim].Excluded {
		t.Fatalf("query after node %d died was not planned without it", degradedVictim)
	}
	return dir, pc
}

// queryConcurrently submits every spec from its own goroutine, so the queries
// are in flight together, and returns the per-spec streams in input order.
func queryConcurrently(t *testing.T, pc *frontend.ParallelClient, specs ...*frontend.QuerySpec) [][]frontend.NodeStream {
	t.Helper()
	results := make([][]frontend.NodeStream, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for qi, spec := range specs {
		wg.Add(1)
		go func(qi int, spec *frontend.QuerySpec) {
			defer wg.Done()
			results[qi], errs[qi] = pc.Query(spec)
		}(qi, spec)
	}
	wg.Wait()
	for qi, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
	}
	return results
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

// TestSharedBatchOverlapMatchesSerial runs two fully-overlapping queries
// concurrently on a cached stack, for every strategy, on a whole mesh and on
// a degraded one (a dead node every query is planned without), and checks
// (a) both results equal the serial in-process reference and (b) the traces
// account for the sharing exactly: the cache never evicts here, so across
// the stack's life each chunk is read from disk once and every other read of
// it — by the concurrent peer, through its in-flight load or after it, and
// by the later strategies — is a cache hit.
func TestSharedBatchOverlapMatchesSerial(t *testing.T) {
	for _, degraded := range []bool{false, true} {
		t.Run(fmt.Sprintf("degraded=%v", degraded), func(t *testing.T) {
			nodes := 2
			var dir string
			var pc *frontend.ParallelClient
			if degraded {
				nodes = 3
				dir, pc = startDegradedCachedStack(t)
			} else {
				var ctrlAddrs []string
				dir, ctrlAddrs = startCachedStack(t, nodes)
				var err error
				if pc, err = frontend.NewParallelClient(ctrlAddrs); err != nil {
					t.Fatal(err)
				}
			}
			defer pc.Close()
			var queries, chunksRead, cacheHits int64
			for _, strategy := range plan.Strategies {
				want := serialReference(t, dir, nodes, &core.Query{
					Input: "sensor", Output: "raster", Strategy: strategy,
					App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
				})
				spec := &frontend.QuerySpec{
					Input: "sensor", Output: "raster", Strategy: strategy.String(),
					App: frontend.AppSpec{Kind: "raster", Op: "sum", CellsPerDim: 4},
				}
				for qi, streams := range queryConcurrently(t, pc, spec, spec) {
					if got := canonicalJSON(mergeStreams(streams)); got != want {
						t.Errorf("%v query %d result differs from serial reference", strategy, qi)
					}
					queries++
					for _, st := range streams {
						if excluded := degraded && st.Node == degradedVictim; st.Excluded != excluded {
							t.Fatalf("%v query %d node %d: Excluded = %v, want %v", strategy, qi, st.Node, st.Excluded, excluded)
						}
						if st.Excluded {
							continue
						}
						if st.Stats == nil || st.Stats.Trace == nil {
							t.Fatalf("%v query %d node %d: missing trace", strategy, qi, st.Node)
						}
						if st.Stats.Trace.Degraded != degraded {
							t.Errorf("%v query %d node %d: trace Degraded = %v", strategy, qi, st.Node, st.Stats.Trace.Degraded)
						}
						chunksRead += st.Stats.Trace.Totals.ChunksRead
						cacheHits += st.Stats.Trace.Totals.CacheHits
					}
				}
			}
			// Every query reads the same chunks; all but one read of each was
			// served by the cache.
			if perQuery := chunksRead / queries; perQuery == 0 || cacheHits != chunksRead-perQuery {
				t.Errorf("%d queries read %d chunks with %d cache hits, want %d hits (%d chunks read from disk once)",
					queries, chunksRead, cacheHits, chunksRead-perQuery, perQuery)
			}
		})
	}
}

// TestSharedBatchZeroResult runs a zero-result query concurrently with a
// full query on a cached stack: the empty one must complete cleanly (no
// items, no error) without disturbing its peer.
func TestSharedBatchZeroResult(t *testing.T) {
	const nodes = 2
	dir, ctrlAddrs := startCachedStack(t, nodes)

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
	defer pc.Close()
	results := queryConcurrently(t, pc, full, empty)

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
		t.Errorf("zero-result query produced %d cells", cells)
	}
	if len(emptyChunks) == 0 {
		t.Error("zero-result query emitted no chunks at all (owner must still emit its empty output)")
	}

	want := serialReference(t, dir, nodes, &core.Query{
		Input: "sensor", Output: "raster", Strategy: plan.DA,
		App: &apps.RasterApp{Op: apps.Count, CellsPerDim: 4},
	})
	if got := canonicalJSON(mergeStreams(results[0])); got != want {
		t.Error("full query beside the zero-result one differs from serial reference")
	}
}

// TestSharedBatchAbortPeersComplete kills one of two overlapping queries
// mid-run on a cached stack — its client submits to every node, then drops
// its connections, so its result sink fails — and checks the other, which
// shares the doomed query's in-flight loads, still completes with the correct
// result: a load's leader finishes it whatever becomes of its own query.
func TestSharedBatchAbortPeersComplete(t *testing.T) {
	const nodes = 2
	dir, ctrlAddrs := startCachedStack(t, nodes)

	want := serialReference(t, dir, nodes, &core.Query{
		Input: "sensor", Output: "raster", Strategy: plan.FRA,
		App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
	})

	// The doomed query: submit the same query under a hand-picked id on
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

	// The survivor runs beside it and must be untouched by its peer's death.
	pc, err := frontend.NewParallelClient(ctrlAddrs)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	streams, err := pc.Query(&frontend.QuerySpec{
		Input: "sensor", Output: "raster", Strategy: "FRA",
		App: frontend.AppSpec{Kind: "raster", Op: "sum", CellsPerDim: 4},
	})
	if err != nil {
		t.Fatalf("surviving query failed: %v", err)
	}
	if got := canonicalJSON(mergeStreams(streams)); got != want {
		t.Error("surviving query's result differs from serial reference")
	}
}
