package backend_test

import (
	"bufio"
	"bytes"
	"math"
	"net"
	"sort"
	"testing"
	"time"

	"adr/internal/backend"
	"adr/internal/bufpool"
	"adr/internal/chunk"
	"adr/internal/core"
	"adr/internal/engine"
	"adr/internal/frontend"
	"adr/internal/layout"
	"adr/internal/metrics"
	"adr/internal/plan"
	"adr/internal/space"
)

// serialOracle runs spec through engine.RunSerial over the farm directory
// the stack serves.
func serialOracle(t *testing.T, dir string, spec *frontend.QuerySpec) []*chunk.Chunk {
	t.Helper()
	m, datasets, err := layout.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*layout.Dataset{}
	for _, ds := range datasets {
		byName[ds.Name] = ds
	}
	farm, err := layout.OpenFarm(dir, m.Nodes, m.DisksPerNode)
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()
	inBox, _ := frontend.ParseBox(spec.InputBox)
	outBox, _ := frontend.ParseBox(spec.OutputBox)
	wl, err := core.BuildWorkload(byName[spec.Input], byName[spec.Output], inBox, outBox, space.IdentityMapper{})
	if err != nil {
		t.Fatal(err)
	}
	planner, err := plan.NewPlanner(plan.Machine{Procs: m.Nodes, AccMemBytes: core.DefaultAccMemBytes})
	if err != nil {
		t.Fatal(err)
	}
	p, err := planner.Plan(plan.FRA, wl)
	if err != nil {
		t.Fatal(err)
	}
	app, err := spec.App.Build()
	if err != nil {
		t.Fatal(err)
	}
	out, err := engine.RunSerial(engine.Config{
		Plan: p, Workload: wl, App: app, InputDataset: spec.Input, OutputDataset: spec.Output,
	}.WithSerialStorage(engine.FarmStorage{Farm: farm}))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// requireBitIdentical compares what a client received with the oracle's
// chunks: ids, dataset, bounds, item order, coordinate bits, value bytes.
func requireBitIdentical(t *testing.T, want []*chunk.Chunk, got []*frontend.ChunkJSON) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d chunks, want %d", len(got), len(want))
	}
	sort.Slice(want, func(a, b int) bool { return want[a].Meta.ID < want[b].Meta.ID })
	sort.Slice(got, func(a, b int) bool { return got[a].ID < got[b].ID })
	for k, w := range want {
		g, err := frontend.FromChunkJSON(got[k])
		if err != nil {
			t.Fatal(err)
		}
		if g.Meta.ID != w.Meta.ID || g.Meta.Dataset != w.Meta.Dataset || !g.Meta.MBR.Equal(w.Meta.MBR) || len(g.Items) != len(w.Items) {
			t.Fatalf("chunk %d: got %s/%d %v with %d items, want %s/%d %v with %d", k,
				g.Meta.Dataset, g.Meta.ID, g.Meta.MBR, len(g.Items), w.Meta.Dataset, w.Meta.ID, w.Meta.MBR, len(w.Items))
		}
		for j := range w.Items {
			x, y := w.Items[j], g.Items[j]
			if x.Coord.Dims != y.Coord.Dims || !bytes.Equal(x.Value, y.Value) {
				t.Fatalf("chunk %d item %d differs", w.Meta.ID, j)
			}
			for d := 0; d < x.Coord.Dims; d++ {
				if math.Float64bits(x.Coord.Coords[d]) != math.Float64bits(y.Coord.Coords[d]) {
					t.Fatalf("chunk %d item %d coord %d: %v, want %v", w.Meta.ID, j, d, y.Coord.Coords[d], x.Coord.Coords[d])
				}
			}
		}
	}
}

// TestFrameStackMatchesSerial: results streamed as binary chunk frames —
// through the front-end's relay to a Client, and straight from the nodes to a
// ParallelClient — are bit-identical to engine.RunSerial for every strategy
// and for AUTO, over a raw farm and over a columnar-compressed one, on nodes
// configured by default, with a chunk cache, and with a 1 KiB forwarding
// window.
func TestFrameStackMatchesSerial(t *testing.T) {
	const nodes = 3
	variants := []struct {
		name string
		mut  func(i int, cfg *backend.Config)
	}{
		{"default", nil},
		// The cached stack. Its label is the shared-scan variant's, which it
		// replaced: printed subtest names are kept stable.
		{"batch-window", func(_ int, cfg *backend.Config) { cfg.CacheBytes = 1 << 20 }},
		{"flow-window", func(_ int, cfg *backend.Config) { cfg.Flow.WindowBytes = 1 << 10 }},
	}
	for _, codec := range []chunk.Codec{chunk.CodecNone, chunk.CodecColumnar} {
		dir := t.TempDir()
		buildFarmDirCodec(t, dir, nodes, codec)
		if _, datasets, err := layout.LoadManifest(dir); err != nil {
			t.Fatal(err)
		} else if stored := datasets[0].Chunks[0].StoredBytes; (stored > 0) != (codec != chunk.CodecNone) {
			t.Fatalf("%s farm: input chunk 0 has stored_bytes %d", codec, stored)
		}
		for _, v := range variants {
			// One subtest per stack, so each is torn down before the next
			// reserves its ports. The default stack keeps the codec's bare name.
			name := codec.String()
			if v.mut != nil {
				name += "+" + v.name
			}
			t.Run(name, func(t *testing.T) {
				_, ctrl := startNodesOver(t, dir, nodes, v.mut)
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
				pc, err := frontend.NewParallelClient(ctrl)
				if err != nil {
					t.Fatal(err)
				}
				defer pc.Close()
				for _, strategy := range []string{"FRA", "SRA", "DA", "HYBRID", "AUTO"} {
					spec := &frontend.QuerySpec{
						Input: "sensor", Output: "raster", Strategy: strategy,
						InputBox: []float64{3, 37, 5, 40},
						App:      frontend.AppSpec{Kind: "raster", Op: "sum", CellsPerDim: 16},
					}
					want := serialOracle(t, dir, spec)
					if len(want) == 0 {
						t.Fatal("oracle produced no output")
					}
					t.Run(strategy+"/client", func(t *testing.T) {
						got, stats, err := client.Query(spec)
						if err != nil {
							t.Fatal(err)
						}
						if stats == nil || stats.Chunks != len(got) {
							t.Fatalf("done line counts %+v chunks, stream carried %d", stats, len(got))
						}
						requireBitIdentical(t, want, got)
					})
					t.Run(strategy+"/parallel", func(t *testing.T) {
						streams, err := pc.Query(spec)
						if err != nil {
							t.Fatal(err)
						}
						requireBitIdentical(t, want, mergeStreams(streams))
					})
				}
			})
		}
	}
}

// TestFrameStackClientDisconnectLeak: a client that hangs up on the
// front-end mid-stream leaves no pooled frame buffer checked out anywhere in
// the stack — node encode buffers and relay buffers alike — and the stack
// serves the next query.
func TestFrameStackClientDisconnectLeak(t *testing.T) {
	_, ctrl := startNodes(t, 3, nil)
	fe, err := frontend.Start("127.0.0.1:0", ctrl)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	spec := &frontend.QuerySpec{
		Input: "sensor", Output: "raster", Strategy: "SRA",
		App: frontend.AppSpec{Kind: "raster", Op: "sum", CellsPerDim: 64},
	}
	base := bufpool.Outstanding()
	for round := 0; round < 4; round++ {
		conn, err := net.Dial("tcp", fe.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := frontend.WriteJSON(conn, spec); err != nil {
			t.Fatal(err)
		}
		// Hang up as soon as the first frame has arrived.
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if frame, _, err := frontend.ReadFrame(bufio.NewReader(conn), false); err != nil || frame == nil {
			t.Fatalf("round %d: first frame = %d bytes, %v", round, len(frame), err)
		}
		conn.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	busy := func() int64 {
		return metrics.Default.Gauge("adr_frontend_queries_inflight").Value() +
			metrics.Default.Gauge("adr_node_queries_inflight").Value()
	}
	for busy() != 0 || bufpool.Outstanding() != base {
		if time.Now().After(deadline) {
			t.Fatalf("after the hang-ups: %d queries in flight, %d pooled buffers outstanding (want %d)", busy(), bufpool.Outstanding(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
	client, err := frontend.Dial(fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if chunks, _, err := client.Query(spec); err != nil || len(chunks) == 0 {
		t.Fatalf("query after the hang-ups: %d chunks, %v", len(chunks), err)
	}
}
