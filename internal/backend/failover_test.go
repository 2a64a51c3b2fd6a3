package backend_test

import (
	"math/rand"
	"testing"
	"time"

	"adr/internal/apps"
	"adr/internal/backend"
	"adr/internal/chunk"
	"adr/internal/frontend"
	"adr/internal/layout"
	"adr/internal/metrics"
	"adr/internal/rpc"
	"adr/internal/space"
)

// buildReplicatedFarmDir is buildFarmDir with r-way chained replication, so
// the daemons can re-plan a dead node's chunks onto surviving holders.
func buildReplicatedFarmDir(t *testing.T, dir string, nodes, replicas int) {
	t.Helper()
	farm, err := layout.OpenFarm(dir, nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()

	rng := rand.New(rand.NewSource(31))
	inSpace := space.AttrSpace{Name: "sensor", Bounds: space.R(0, 40, 0, 40)}
	var items []chunk.Item
	for i := 0; i < 1500; i++ {
		items = append(items, chunk.Item{
			Coord: space.Pt(rng.Float64()*40, rng.Float64()*40),
			Value: apps.EncodeValue(int64(rng.Intn(500))),
		})
	}
	grid, _ := space.NewGrid(inSpace.Bounds, 8, 8)
	chunks, err := layout.PartitionGrid(items, grid)
	if err != nil {
		t.Fatal(err)
	}
	loader := &layout.Loader{Farm: farm, Replicas: replicas}
	inDS, err := loader.Load("sensor", inSpace, chunks)
	if err != nil {
		t.Fatal(err)
	}
	outSpace := space.AttrSpace{Name: "raster", Bounds: space.R(0, 40, 0, 40)}
	og, _ := space.NewGrid(outSpace.Bounds, 4, 4)
	var outChunks []*chunk.Chunk
	for c := 0; c < og.NumCells(); c++ {
		outChunks = append(outChunks, &chunk.Chunk{Meta: chunk.Meta{MBR: og.CellRect(c)}})
	}
	outDS, err := loader.Load("raster", outSpace, outChunks)
	if err != nil {
		t.Fatal(err)
	}
	if err := layout.SaveManifest(dir, nodes, 1, []*layout.Dataset{inDS, outDS}); err != nil {
		t.Fatal(err)
	}
}

// TestBackendDegradedFailover is the daemon-stack acceptance test: a farm
// loaded with -replicas 2, three -degraded node daemons, a parallel client.
// Killing one daemon must not fail subsequent queries — the survivors
// re-plan its chunks onto their replica copies, complete with results
// identical to the fault-free run, report the exclusion on their done
// stats, and bump the degraded-query counters.
func TestBackendDegradedFailover(t *testing.T) {
	const nodes = 3
	dir := t.TempDir()
	buildReplicatedFarmDir(t, dir, nodes, 2)
	meshAddrs, meshLns := freeAddrs(t, nodes)
	servers := make([]*backend.Server, nodes)
	startErr := make(chan error, nodes)
	for i := 0; i < nodes; i++ {
		go func(i int) {
			s, err := backend.Start(backend.Config{
				Node: rpc.NodeID(i), MeshAddrs: meshAddrs, MeshListener: meshLns[i],
				ControlAddr: "127.0.0.1:0", DataDir: dir,
				Degraded: true,
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
	defer func() {
		for _, s := range servers {
			if s != nil {
				s.Close()
			}
		}
	}()

	addrs := make([]string, nodes)
	for i, s := range servers {
		addrs[i] = s.ControlAddr()
	}
	pc, err := frontend.NewParallelClient(addrs)
	if err != nil {
		t.Fatal(err)
	}
	spec := &frontend.QuerySpec{
		Input: "sensor", Output: "raster", Strategy: "DA",
		App: frontend.AppSpec{Op: "sum", CellsPerDim: 4},
	}

	collect := func(streams []frontend.NodeStream) []*frontend.ChunkJSON {
		var all []*frontend.ChunkJSON
		for _, st := range streams {
			all = append(all, st.Chunks...)
		}
		return all
	}

	// Fault-free reference on the full mesh.
	streams, err := pc.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalJSON(collect(streams))

	// Kill node 2 and query again: the survivors must complete degraded.
	degradedBefore := metrics.Default.Counter("adr_node_degraded_queries_total").Value()
	servers[2].Close()
	servers[2] = nil

	deadline := time.Now().Add(30 * time.Second)
	var got []frontend.NodeStream
	for {
		got, err = pc.Query(spec)
		if err == nil || time.Now().After(deadline) {
			break
		}
		// The death may race the first post-kill submission (a survivor can
		// observe it only after committing to the doomed attempt and fail
		// non-retryably); resubmit until the mesh has converged on the death.
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("post-kill query failed: %v", err)
	}
	if !got[2].Excluded {
		t.Errorf("dead node's stream = %+v, want Excluded", got[2])
	}
	for q := 0; q < 2; q++ {
		st := got[q].Stats
		if st == nil || !st.Degraded {
			t.Errorf("survivor %d stats = %+v, want Degraded", q, st)
			continue
		}
		found := false
		for _, ex := range st.Excluded {
			if ex == 2 {
				found = true
			}
		}
		if !found {
			t.Errorf("survivor %d exclusion set %v does not name node 2", q, st.Excluded)
		}
	}
	if canon := canonicalJSON(collect(got)); canon != want {
		t.Error("degraded result differs from the fault-free run")
	}
	if after := metrics.Default.Counter("adr_node_degraded_queries_total").Value(); after <= degradedBefore {
		t.Errorf("adr_node_degraded_queries_total = %d, want > %d", after, degradedBefore)
	}
}

// TestBackendUnreplicatedDegradedAbortFailover: the same kill on an
// unreplicated farm has no surviving copy to re-plan onto, so the client
// receives the typed PR 2 abort — promptly and non-retryably.
func TestBackendUnreplicatedDegradedAbortFailover(t *testing.T) {
	const nodes = 2
	dir := t.TempDir()
	buildFarmDir(t, dir, nodes)
	meshAddrs, meshLns := freeAddrs(t, nodes)
	servers := make([]*backend.Server, nodes)
	startErr := make(chan error, nodes)
	for i := 0; i < nodes; i++ {
		go func(i int) {
			s, err := backend.Start(backend.Config{
				Node: rpc.NodeID(i), MeshAddrs: meshAddrs, MeshListener: meshLns[i],
				ControlAddr: "127.0.0.1:0", DataDir: dir,
				Degraded: true,
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
	defer func() {
		for _, s := range servers {
			if s != nil {
				s.Close()
			}
		}
	}()

	pc, err := frontend.NewParallelClient([]string{servers[0].ControlAddr(), servers[1].ControlAddr()})
	if err != nil {
		t.Fatal(err)
	}
	pc.BusyRetries = -1
	servers[1].Close()
	servers[1] = nil

	start := time.Now()
	_, err = pc.Query(&frontend.QuerySpec{
		Input: "sensor", Output: "raster", Strategy: "DA",
		App: frontend.AppSpec{Op: "sum", CellsPerDim: 4},
	})
	if err == nil {
		t.Fatal("query on an unreplicated farm survived a node death")
	}
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Errorf("unreplicated abort took %v", elapsed)
	}
}
