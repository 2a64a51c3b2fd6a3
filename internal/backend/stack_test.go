package backend_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"adr/internal/apps"
	"adr/internal/backend"
	"adr/internal/chunk"
	"adr/internal/core"
	"adr/internal/frontend"
	"adr/internal/layout"
	"adr/internal/plan"
	"adr/internal/rpc"
	"adr/internal/space"
)

// buildFarmDir loads a synthetic dataset pair into a file-backed farm
// directory with a manifest, as cmd/adr-load does.
func buildFarmDir(t *testing.T, dir string, nodes int) {
	t.Helper()
	buildFarmDirCodec(t, dir, nodes, chunk.CodecNone)
}

// buildFarmDirCodec is buildFarmDir with the chunks stored under codec
// (every chunk it shrinks at all).
func buildFarmDirCodec(t *testing.T, dir string, nodes int, codec chunk.Codec) {
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
	loader := &layout.Loader{Farm: farm, Codec: codec, MinRatio: 1}
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

// freeAddrs binds n distinct loopback addresses and returns them with their
// listeners, still open, for each node's Config.MeshListener: a port given
// back and re-bound by backend.Start can be lost to another package's test
// in between. Listeners no node took are closed with the test.
func freeAddrs(t *testing.T, n int) ([]string, []net.Listener) {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return addrs, lns
}

func canonicalJSON(chunks []*frontend.ChunkJSON) string {
	var lines []string
	for _, c := range chunks {
		for _, it := range c.Items {
			v, _ := apps.DecodeValue(it.Value)
			lines = append(lines, fmt.Sprintf("%.3f,%.3f=%d", it.Coords[0], it.Coords[1], v))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func canonicalChunks(chunks []*chunk.Chunk) string {
	var lines []string
	for _, c := range chunks {
		for _, it := range c.Items {
			v, _ := apps.DecodeValue(it.Value)
			lines = append(lines, fmt.Sprintf("%.3f,%.3f=%d", it.Coord.Coords[0], it.Coord.Coords[1], v))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestFullStack runs the complete distributed deployment on loopback:
// three node daemons with file-backed disks, a front-end, and a client —
// and checks the result against the in-process repository executing the
// same query over the same farm directory.
func TestFullStack(t *testing.T) {
	const nodes = 3
	dir := t.TempDir()
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

	ctrlAddrs := make([]string, nodes)
	for i, s := range servers {
		ctrlAddrs[i] = s.ControlAddr()
	}
	fe, err := frontend.Start("127.0.0.1:0", ctrlAddrs)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()

	client, err := frontend.Dial(fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	for _, strat := range []string{"FRA", "SRA", "DA", "HYBRID"} {
		t.Run(strat, func(t *testing.T) {
			spec := &frontend.QuerySpec{
				Input: "sensor", Output: "raster",
				Strategy: strat,
				App:      frontend.AppSpec{Kind: "raster", Op: "sum", CellsPerDim: 4},
			}
			chunks, stats, err := client.Query(spec)
			if err != nil {
				t.Fatal(err)
			}
			if stats == nil || stats.Chunks != 16 {
				t.Fatalf("stats = %+v, want 16 chunks", stats)
			}
			if len(chunks) != 16 {
				t.Fatalf("received %d chunks", len(chunks))
			}
			if stats.AggOps == 0 || stats.BytesRead == 0 {
				t.Errorf("stats not populated: %+v", stats)
			}

			// The merged done frame carries every node's per-phase trace,
			// and the traces agree with the aggregate stats.
			if len(stats.Traces) != nodes {
				t.Fatalf("done frame has %d traces, want %d", len(stats.Traces), nodes)
			}
			var traceRead int64
			seen := map[int]bool{}
			for _, tr := range stats.Traces {
				seen[tr.Node] = true
				if len(tr.Phases) != 4 {
					t.Errorf("node %d trace has %d phases", tr.Node, len(tr.Phases))
				}
				if tr.WallNanos <= 0 {
					t.Errorf("node %d trace has no wall time", tr.Node)
				}
				traceRead += tr.Totals.BytesRead
			}
			if len(seen) != nodes {
				t.Errorf("traces cover nodes %v, want %d distinct", seen, nodes)
			}
			if traceRead != stats.BytesRead {
				t.Errorf("trace read bytes %d != stats read bytes %d", traceRead, stats.BytesRead)
			}
			if qt := stats.QueryTrace(1); len(qt.Nodes) != nodes || qt.Total().BytesRead != stats.BytesRead {
				t.Errorf("QueryTrace inconsistent: %+v", qt.Total())
			}

			// Reference: in-process repository over the same farm dir.
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
			s, _ := plan.ParseStrategy(strat)
			res, err := repo.Execute(context.Background(), &core.Query{
				Input: "sensor", Output: "raster", Strategy: s,
				App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
			})
			if err != nil {
				t.Fatal(err)
			}
			if canonicalJSON(chunks) != canonicalChunks(res.Chunks) {
				t.Error("distributed stack result differs from in-process result")
			}
		})
	}
}

// TestStackErrors covers protocol-level failures.
func TestStackErrors(t *testing.T) {
	const nodes = 2
	dir := t.TempDir()
	buildFarmDir(t, dir, nodes)
	// A flow-control window the mesh cannot honour fails start-up (it used to
	// come up and then fail every query).
	if s, err := backend.Start(backend.Config{
		Node: 0, MeshAddrs: []string{"127.0.0.1:0", "127.0.0.1:0"}, ControlAddr: "127.0.0.1:0", DataDir: dir,
		Flow: rpc.Flow{WindowBytes: -5},
	}); err == nil {
		s.Close()
		t.Error("negative forwarding window should fail start-up")
	}
	meshAddrs, meshLns := freeAddrs(t, nodes)
	servers := make([]*backend.Server, nodes)
	startErr := make(chan error, nodes)
	for i := 0; i < nodes; i++ {
		go func(i int) {
			s, err := backend.Start(backend.Config{
				Node: rpc.NodeID(i), MeshAddrs: meshAddrs, MeshListener: meshLns[i],
				ControlAddr: "127.0.0.1:0", DataDir: dir,
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
			s.Close()
		}
	}()
	fe, err := frontend.Start("127.0.0.1:0", []string{servers[0].ControlAddr(), servers[1].ControlAddr()})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	client, err := frontend.Dial(fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Unknown dataset.
	_, _, err = client.Query(&frontend.QuerySpec{
		Input: "nosuch", Output: "raster",
		App: frontend.AppSpec{Op: "sum", CellsPerDim: 2},
	})
	if err == nil {
		t.Error("unknown dataset should fail")
	}
	// Unknown op. (Reconnect: an errored query leaves the per-query node
	// connections closed but the client connection open.)
	_, _, err = client.Query(&frontend.QuerySpec{
		Input: "sensor", Output: "raster",
		App: frontend.AppSpec{Op: "bogus", CellsPerDim: 2},
	})
	if err == nil {
		t.Error("unknown op should fail")
	}
	// Bad strategy.
	_, _, err = client.Query(&frontend.QuerySpec{
		Input: "sensor", Output: "raster", Strategy: "XXX",
		App: frontend.AppSpec{Op: "sum", CellsPerDim: 2},
	})
	if err == nil {
		t.Error("bad strategy should fail")
	}
	// A good query still works on the same client connection afterwards.
	chunks, _, err := client.Query(&frontend.QuerySpec{
		Input: "sensor", Output: "raster",
		App: frontend.AppSpec{Op: "count", CellsPerDim: 2},
	})
	if err != nil {
		t.Fatalf("recovery query failed: %v", err)
	}
	var total int64
	for _, c := range chunks {
		for _, it := range c.Items {
			v, _ := apps.DecodeValue(it.Value)
			total += v
		}
	}
	if total != 1500 {
		t.Errorf("count = %d, want 1500", total)
	}
}

// TestConcurrentClients: several clients sharing one front-end get
// consistent results (back-end nodes serialize queries internally).
func TestConcurrentClients(t *testing.T) {
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
			s.Close()
		}
	}()
	fe, err := frontend.Start("127.0.0.1:0", []string{servers[0].ControlAddr(), servers[1].ControlAddr()})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()

	errs := make(chan error, 3)
	for k := 0; k < 3; k++ {
		go func(k int) {
			client, err := frontend.Dial(fe.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for q := 0; q < 3; q++ {
				chunks, _, err := client.Query(&frontend.QuerySpec{
					Input: "sensor", Output: "raster",
					Strategy: "DA",
					App:      frontend.AppSpec{Op: "count", CellsPerDim: 2},
				})
				if err != nil {
					errs <- fmt.Errorf("client %d query %d: %w", k, q, err)
					return
				}
				var total int64
				for _, c := range chunks {
					for _, it := range c.Items {
						v, _ := apps.DecodeValue(it.Value)
						total += v
					}
				}
				if total != 1500 {
					errs <- fmt.Errorf("client %d query %d counted %d", k, q, total)
					return
				}
			}
			errs <- nil
		}(k)
	}
	for k := 0; k < 3; k++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestParallelClient: the Meta-Chaos-style interface — output chunks
// delivered per owning node, no front-end merge — must partition exactly
// the chunks the merged path returns.
func TestParallelClient(t *testing.T) {
	const nodes = 3
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
			s.Close()
		}
	}()
	ctrl := make([]string, nodes)
	for i, s := range servers {
		ctrl[i] = s.ControlAddr()
	}

	pc, err := frontend.NewParallelClient(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	spec := &frontend.QuerySpec{
		Input: "sensor", Output: "raster", Strategy: "DA",
		App: frontend.AppSpec{Op: "sum", CellsPerDim: 4},
	}
	streams, err := pc.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != nodes {
		t.Fatalf("got %d streams", len(streams))
	}
	// Union of per-node streams == the merged front-end result.
	fe, err := frontend.Start("127.0.0.1:0", ctrl)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	client, err := frontend.Dial(fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	merged, _, err := client.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	var all []*frontend.ChunkJSON
	total := 0
	for _, s := range streams {
		all = append(all, s.Chunks...)
		total += len(s.Chunks)
		if s.Stats == nil {
			t.Errorf("node %d stream missing stats", s.Node)
		}
	}
	if total != 16 {
		t.Errorf("parallel streams carried %d chunks, want 16", total)
	}
	if canonicalJSON(all) != canonicalJSON(merged) {
		t.Error("parallel-client union differs from merged result")
	}
	// Every node delivered at least one chunk (16 chunks over 3 nodes,
	// Hilbert-declustered).
	for _, s := range streams {
		if len(s.Chunks) == 0 {
			t.Errorf("node %d delivered nothing", s.Node)
		}
	}
}

// TestUpdateInPlaceOverTCP: UseExisting + ResultDataset through the full
// distributed stack — two identical sum queries updating the stored raster
// double the cumulative total.
func TestUpdateInPlaceOverTCP(t *testing.T) {
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
			s.Close()
		}
	}()
	fe, err := frontend.Start("127.0.0.1:0", []string{servers[0].ControlAddr(), servers[1].ControlAddr()})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	client, err := frontend.Dial(fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	spec := &frontend.QuerySpec{
		Input: "sensor", Output: "raster", Strategy: "FRA",
		ResultDataset: "raster",
		App:           frontend.AppSpec{Op: "sum", CellsPerDim: 4, UseExisting: true},
	}
	sumOf := func(chunks []*frontend.ChunkJSON) int64 {
		var total int64
		for _, c := range chunks {
			for _, it := range c.Items {
				v, _ := apps.DecodeValue(it.Value)
				total += v
			}
		}
		return total
	}
	first, _, err := client.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := client.Query(spec)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := sumOf(first), sumOf(second)
	if s1 == 0 || s2 != 2*s1 {
		t.Errorf("update-in-place: first %d, second %d (want doubling)", s1, s2)
	}
}

// TestBackendMalformedControlRequest: garbage on the control port must not
// crash the daemon or wedge subsequent queries.
func TestBackendMalformedControlRequest(t *testing.T) {
	const nodes = 1
	dir := t.TempDir()
	buildFarmDir(t, dir, nodes)
	meshAddrs, meshLns := freeAddrs(t, nodes)
	srv, err := backend.Start(backend.Config{
		Node: 0, MeshAddrs: meshAddrs, MeshListener: meshLns[0], ControlAddr: "127.0.0.1:0", DataDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Garbage request.
	conn, err := net.Dial("tcp", srv.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("this is not json\n"))
	conn.Close()

	// A valid query afterwards still works.
	pc, err := frontend.NewParallelClient([]string{srv.ControlAddr()})
	if err != nil {
		t.Fatal(err)
	}
	streams, err := pc.Query(&frontend.QuerySpec{
		Input: "sensor", Output: "raster", Strategy: "DA",
		App: frontend.AppSpec{Op: "count", CellsPerDim: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range streams {
		for _, c := range s.Chunks {
			for _, it := range c.Items {
				v, _ := apps.DecodeValue(it.Value)
				total += v
			}
		}
	}
	if total != 1500 {
		t.Errorf("post-garbage query counted %d", total)
	}
}

// TestStructuredErrorFrames: back-end failures reach the client as typed
// *frontend.QueryError values that name the reporting node — the structured
// half of the error frame survives the node -> front-end -> client relay.
// The cluster runs with a nanosecond QueryTimeout so a valid query also
// exercises the per-query deadline path deterministically.
func TestStructuredErrorFrames(t *testing.T) {
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
				QueryTimeout: time.Nanosecond,
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
			s.Close()
		}
	}()
	fe, err := frontend.Start("127.0.0.1:0", []string{servers[0].ControlAddr(), servers[1].ControlAddr()})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	client, err := frontend.Dial(fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// A planning failure (unknown dataset) is reported by a specific node.
	_, _, err = client.Query(&frontend.QuerySpec{
		Input: "nosuch", Output: "raster",
		App: frontend.AppSpec{Op: "sum", CellsPerDim: 2},
	})
	var qe *frontend.QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("unknown dataset error = %v, want *frontend.QueryError", err)
	}
	if qe.Node < 0 || qe.Node >= nodes {
		t.Errorf("error frame names node %d, want a back-end node id", qe.Node)
	}
	if !strings.Contains(qe.Message, "nosuch") {
		t.Errorf("error lost the cause: %q", qe.Message)
	}

	// So is a box whose dimensionality is not the dataset's (one pair dropped
	// from -input-box): a non-retryable error naming the dataset and both
	// dimensionalities, not a plausible all-zero raster.
	_, _, err = client.Query(&frontend.QuerySpec{
		Input: "sensor", Output: "raster", InputBox: []float64{0, 100},
		App: frontend.AppSpec{Op: "sum", CellsPerDim: 2},
	})
	if !errors.As(err, &qe) {
		t.Fatalf("1-D box error = %v, want *frontend.QueryError", err)
	}
	if qe.Retryable || qe.Node < 0 || qe.Node >= nodes {
		t.Errorf("1-D box error frame: node %d retryable %v, want a back-end node, not retryable", qe.Node, qe.Retryable)
	}
	for _, want := range []string{`"sensor"`, "1 dimensions", "has 2"} {
		if !strings.Contains(qe.Message, want) {
			t.Errorf("1-D box error lost %s: %q", want, qe.Message)
		}
	}

	// A valid query dies on the per-query deadline, still as a typed error.
	_, _, err = client.Query(&frontend.QuerySpec{
		Input: "sensor", Output: "raster",
		App: frontend.AppSpec{Op: "sum", CellsPerDim: 2},
	})
	if !errors.As(err, &qe) {
		t.Fatalf("deadline error = %v, want *frontend.QueryError", err)
	}
	if !strings.Contains(qe.Message, "deadline") && !strings.Contains(qe.Message, "abort") {
		t.Errorf("deadline error does not mention the deadline or abort: %q", qe.Message)
	}
}
