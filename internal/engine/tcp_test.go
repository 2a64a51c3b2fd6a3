package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"adr/internal/apps"
	"adr/internal/chunk"
	"adr/internal/core"
	"adr/internal/engine"
	"adr/internal/plan"
	"adr/internal/rpc"
)

// buildRepo loads a synthetic dataset pair into a repository; the TCP test
// reuses the repository for planning but executes on a TCP mesh with
// engine.RunNodeTraced per node, exactly as the daemons do.
func buildRepo(t *testing.T, nodes int) *core.Repository {
	t.Helper()
	repo, err := core.NewRepository(core.Options{Nodes: nodes, AccMemBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	loadTestDatasets(t, repo)
	return repo
}

func render(chunks []*chunk.Chunk) string {
	var lines []string
	for _, c := range chunks {
		if c == nil {
			continue
		}
		for _, it := range c.Items {
			v, _ := apps.DecodeValue(it.Value)
			lines = append(lines, fmt.Sprintf("%.3f,%.3f=%d", it.Coord.Coords[0], it.Coord.Coords[1], v))
		}
	}
	sort.Strings(lines)
	var buf bytes.Buffer
	for _, l := range lines {
		buf.WriteString(l)
		buf.WriteByte('\n')
	}
	return buf.String()
}

// TestTCPExecutionMatchesInproc runs the same plan over both transports:
// node goroutines in one process versus TCP daem?-style nodes on a loopback
// mesh, each calling RunNodeTraced independently.
func TestTCPExecutionMatchesInproc(t *testing.T) {
	const nodes = 3
	repo := buildRepo(t, nodes)
	for _, s := range []plan.Strategy{plan.FRA, plan.SRA, plan.DA, plan.Hybrid} {
		t.Run(s.String(), func(t *testing.T) {
			app := &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4}
			q := &core.Query{Input: "pts", Output: "img", Strategy: s, App: app}

			// Inproc reference via the repository.
			res, err := repo.Execute(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			want := render(res.Chunks)

			// TCP mesh execution of the same plan.
			mesh, err := rpc.NewLoopbackMesh(nodes, rpc.TCPOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer mesh.Close()

			var mu sync.Mutex
			var got []*chunk.Chunk
			cfg := engine.Config{
				Plan:         res.Plan,
				Workload:     res.Workload,
				App:          app,
				InputDataset: "pts",
				OnResult: func(node rpc.NodeID, c *chunk.Chunk) error {
					mu.Lock()
					got = append(got, c)
					mu.Unlock()
					return nil
				},
			}
			st := engine.FarmStorage{Farm: repo.Farm()}
			v := newViews(t, mesh.Endpoint)
			var wg sync.WaitGroup
			errs := make([]error, nodes)
			id := v.query()
			for q := 0; q < nodes; q++ {
				wg.Add(1)
				go func(q int) {
					defer wg.Done()
					_, errs[q] = v.run(context.Background(), id, rpc.NodeID(q), cfg, st)
				}(q)
			}
			wg.Wait()
			for q, err := range errs {
				if err != nil {
					t.Fatalf("tcp node %d: %v", q, err)
				}
			}
			if render(got) != want {
				t.Error("TCP mesh result differs from inproc result")
			}
		})
	}
}

// TestEngineErrorPropagation checks that a failing app aborts all nodes.
func TestEngineErrorPropagation(t *testing.T) {
	repo := buildRepo(t, 3)
	app := &failingApp{RasterApp: apps.RasterApp{Op: apps.Sum, CellsPerDim: 4}}
	_, err := repo.Execute(context.Background(), &core.Query{
		Input: "pts", Output: "img", Strategy: plan.DA, App: app,
	})
	if err == nil {
		t.Fatal("failing app should abort the query")
	}
}

type failingApp struct {
	apps.RasterApp
	mu    sync.Mutex
	count int
}

func (f *failingApp) Aggregate(acc engine.Accumulator, out chunk.Meta, in *chunk.Chunk) error {
	f.mu.Lock()
	f.count++
	n := f.count
	f.mu.Unlock()
	if n > 5 {
		return fmt.Errorf("injected aggregation failure")
	}
	return f.RasterApp.Aggregate(acc, out, in)
}

// TestEngineContextCancel checks that cancelling the context aborts a run.
func TestEngineContextCancel(t *testing.T) {
	repo := buildRepo(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before starting
	_, err := repo.Execute(ctx, &core.Query{
		Input: "pts", Output: "img", Strategy: plan.FRA,
		App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
	})
	if err == nil {
		t.Fatal("cancelled context should abort the query")
	}
}

// TestReportMetricsPopulated sanity-checks the engine's counters.
func TestReportMetricsPopulated(t *testing.T) {
	repo := buildRepo(t, 3)
	res, err := repo.Execute(context.Background(), &core.Query{
		Input: "pts", Output: "img", Strategy: plan.FRA,
		App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	total := res.Report.Total()
	if total.ChunksRead == 0 || total.BytesRead == 0 {
		t.Error("no I/O recorded")
	}
	if total.AggOps == 0 {
		t.Error("no aggregation ops recorded")
	}
	// FRA on 3 nodes must exchange ghosts.
	if total.MsgsSent == 0 || total.CombineOps == 0 {
		t.Error("no ghost exchange recorded under FRA")
	}
	if total.BytesSent+total.BytesRecv == 0 {
		t.Error("no communication volume recorded")
	}
}
