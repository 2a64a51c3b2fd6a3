package engine_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"adr/internal/apps"
	"adr/internal/chunk"
	"adr/internal/core"
	"adr/internal/engine"
	"adr/internal/layout"
	"adr/internal/plan"
	"adr/internal/rpc"
	"adr/internal/space"
)

// buildReplicatedRepo is buildRepo with r-way chained replication, so a dead
// node's chunks have surviving holders for degraded-mode re-planning.
func buildReplicatedRepo(t *testing.T, nodes, replicas int) *core.Repository {
	t.Helper()
	repo, err := core.NewRepository(core.Options{
		Nodes: nodes, AccMemBytes: 32 << 10, Replicas: replicas,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repo.Close() })
	loadTestDatasets(t, repo)
	return repo
}

// loadTestDatasets loads the engine tests' synthetic pair: "pts", 1200 points
// on a quarter-unit lattice (instrument-grid coordinates, which the columnar
// codec collapses) in an 8x8 grid of input chunks, and "img", a 4x4 grid of
// empty output chunks.
func loadTestDatasets(t *testing.T, repo *core.Repository) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	inSpace := space.AttrSpace{Name: "pts", Bounds: space.R(0, 64, 0, 64)}
	var items []chunk.Item
	for i := 0; i < 1200; i++ {
		items = append(items, chunk.Item{
			Coord: space.Pt(float64(rng.Intn(256))/4, float64(rng.Intn(256))/4),
			Value: apps.EncodeValue(int64(rng.Intn(1000))),
		})
	}
	grid, _ := space.NewGrid(inSpace.Bounds, 8, 8)
	chunks, err := layout.PartitionGrid(items, grid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.LoadDataset("pts", inSpace, chunks); err != nil {
		t.Fatal(err)
	}
	outSpace := space.AttrSpace{Name: "img", Bounds: space.R(0, 64, 0, 64)}
	og, _ := space.NewGrid(outSpace.Bounds, 4, 4)
	var outChunks []*chunk.Chunk
	for c := 0; c < og.NumCells(); c++ {
		outChunks = append(outChunks, &chunk.Chunk{Meta: chunk.Meta{MBR: og.CellRect(c)}})
	}
	if _, err := repo.LoadDataset("img", outSpace, outChunks); err != nil {
		t.Fatal(err)
	}
}

// replanFor builds the Replan callback a daemon would install: degrade the
// workload onto surviving replica holders and re-plan with the dead nodes
// excluded. Deterministic in the exclusion set, as Config.Replan requires.
func replanFor(repo *core.Repository, w *plan.Workload, s plan.Strategy) func([]rpc.NodeID) (*plan.Plan, *plan.Workload, error) {
	return func(excluded []rpc.NodeID) (*plan.Plan, *plan.Workload, error) {
		ex := make(map[int32]bool, len(excluded))
		for _, id := range excluded {
			ex[int32(id)] = true
		}
		dw, err := plan.Degrade(repo.Machine(), w, ex, repo.Farm().DisksPerNode)
		if err != nil {
			return nil, nil, err
		}
		planner, err := plan.NewPlanner(repo.Machine())
		if err != nil {
			return nil, nil, err
		}
		planner.Exclude = ex
		p, err := planner.Plan(s, dw)
		if err != nil {
			return nil, nil, err
		}
		return p, dw, nil
	}
}

// runDegradedFailover executes one kill-mid-query failover on the given
// degraded fabric: node 0 joins the mesh but dies shortly after the
// survivors start, and the survivors must complete the query with results
// identical to the fault-free reference. Returns the survivors' traces.
func runDegradedFailover(t *testing.T, repo *core.Repository, s plan.Strategy, v *views, mutate ...func(*engine.Config)) []engineTrace {
	t.Helper()
	app := &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4}
	res, err := repo.Execute(context.Background(), &core.Query{
		Input: "pts", Output: "img", Strategy: s, App: app,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := render(res.Chunks)

	var mu sync.Mutex
	var got []*chunk.Chunk
	cfg := engine.Config{
		Plan: res.Plan, Workload: res.Workload,
		App:          app,
		InputDataset: "pts",
		Replan:       replanFor(repo, res.Workload, s),
		OnResult: func(node rpc.NodeID, c *chunk.Chunk) error {
			mu.Lock()
			got = append(got, c)
			mu.Unlock()
			return nil
		},
	}
	for _, m := range mutate {
		m(&cfg)
	}
	st := engine.FarmStorage{Farm: repo.Farm()}

	const nodes = 3
	traces := make([]engineTrace, nodes)
	var wg sync.WaitGroup
	id := v.query()
	for q := 1; q < nodes; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			tr, err := v.run(ctx, id, rpc.NodeID(q), cfg, st)
			traces[q] = engineTrace{degraded: tr.Degraded, attempts: tr.Attempts, excluded: tr.Excluded, err: err}
		}(q)
	}

	// Node 0 joins the mesh but dies shortly after the query starts; the
	// degraded fabric reports its death instead of failing the survivors'
	// endpoints.
	ep0, err := v.endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	ep0.Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(90 * time.Second):
		t.Fatal("survivors hung after peer death")
	}

	for q := 1; q < nodes; q++ {
		if traces[q].err != nil {
			t.Fatalf("survivor %d failed: %v", q, traces[q].err)
		}
	}
	if render(got) != want {
		t.Errorf("degraded %s result differs from the fault-free reference", s)
	}
	return traces[1:]
}

type engineTrace struct {
	degraded bool
	attempts int
	excluded []int
	err      error
}

// TestDegradedFailoverTCP is the tentpole acceptance test on the TCP
// transport: with 2-way replication, killing one node mid-query completes
// the query on the survivors with serial-equivalent results, for every
// strategy.
func TestDegradedFailoverTCP(t *testing.T) {
	repo := buildReplicatedRepo(t, 3, 2)
	for _, s := range []plan.Strategy{plan.FRA, plan.SRA, plan.DA, plan.Hybrid} {
		t.Run(s.String(), func(t *testing.T) {
			mesh, err := rpc.NewLoopbackMesh(3, rpc.TCPOptions{Degraded: true})
			if err != nil {
				t.Fatal(err)
			}
			defer mesh.Close()
			traces := runDegradedFailover(t, repo, s, newViews(t, mesh.Endpoint))
			checkDegradedTraces(t, traces)
		})
	}
}

// TestDegradedFailoverInproc runs the same failover on the in-process
// fabric, which daemon-free embedders use.
func TestDegradedFailoverInproc(t *testing.T) {
	repo := buildReplicatedRepo(t, 3, 2)
	for _, s := range []plan.Strategy{plan.FRA, plan.DA} {
		t.Run(s.String(), func(t *testing.T) {
			fabric, err := rpc.NewInprocFabricOpts(3, rpc.InprocOptions{Degraded: true})
			if err != nil {
				t.Fatal(err)
			}
			defer fabric.Close()
			traces := runDegradedFailover(t, repo, s, newViews(t, fabric.Endpoint))
			checkDegradedTraces(t, traces)
		})
	}
}

// checkDegradedTraces: every survivor must have completed degraded, with
// node 0 excluded and more than one attempt on record.
func checkDegradedTraces(t *testing.T, traces []engineTrace) {
	t.Helper()
	for i, tr := range traces {
		if !tr.degraded {
			t.Errorf("survivor %d trace not marked degraded", i+1)
		}
		if tr.attempts < 2 {
			t.Errorf("survivor %d recorded %d attempts, want >= 2", i+1, tr.attempts)
		}
		found := false
		for _, ex := range tr.excluded {
			if ex == 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("survivor %d exclusion set %v does not name node 0", i+1, tr.excluded)
		}
	}
}

// TestUnreplicatedDegradedFailsTyped: degraded mode on an unreplicated
// layout cannot re-plan around a death — some chunk's only copy is gone —
// so the engine must fall back to the PR 2 failure model: a typed error on
// every survivor within the deadline, never a hang and never a wrong
// result.
func TestUnreplicatedDegradedFailsTyped(t *testing.T) {
	repo := buildRepo(t, 3) // replicas = 1
	app := &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4}
	res, err := repo.Execute(context.Background(), &core.Query{
		Input: "pts", Output: "img", Strategy: plan.DA, App: app,
	})
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := rpc.NewLoopbackMesh(3, rpc.TCPOptions{Degraded: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()

	cfg := engine.Config{
		Plan: res.Plan, Workload: res.Workload,
		App:          app,
		InputDataset: "pts",
		Replan:       replanFor(repo, res.Workload, plan.DA),
		OnResult:     func(rpc.NodeID, *chunk.Chunk) error { return nil },
	}
	st := engine.FarmStorage{Farm: repo.Farm()}

	errs := make([]error, 3)
	var wg sync.WaitGroup
	v := newViews(t, mesh.Endpoint)
	id := v.query()
	for q := 1; q < 3; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_, errs[q] = v.run(ctx, id, rpc.NodeID(q), cfg, st)
		}(q)
	}
	ep0, _ := mesh.Endpoint(0)
	time.Sleep(100 * time.Millisecond)
	ep0.Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("survivors hung after unreplicated peer death")
	}

	for q := 1; q < 3; q++ {
		err := errs[q]
		if err == nil {
			t.Fatalf("survivor %d completed against a dead peer on an unreplicated layout", q)
		}
		var nh *plan.NoHolderError
		var abort *engine.AbortError
		if !errors.As(err, &nh) && !errors.As(err, &abort) {
			t.Errorf("survivor %d error = %v, want *plan.NoHolderError or *engine.AbortError", q, err)
		}
		if engine.IsRetryable(err) {
			t.Errorf("survivor %d error classified retryable, want fatal: %v", q, err)
		}
	}
}

// TestDegradedDeathBeforeQuery: a peer that died before the query was
// submitted (its death is on the fabric's record, replayed to new query
// queues) is excluded on the first fence round — the steady-state "node
// crashed, traffic keeps flowing" shape a daemon fleet sees.
func TestDegradedDeathBeforeQuery(t *testing.T) {
	repo := buildReplicatedRepo(t, 3, 2)
	app := &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4}
	res, err := repo.Execute(context.Background(), &core.Query{
		Input: "pts", Output: "img", Strategy: plan.SRA, App: app,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := render(res.Chunks)

	mesh, err := rpc.NewLoopbackMesh(3, rpc.TCPOptions{Degraded: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()

	// Node 0 dies before anyone runs the query.
	ep0, err := mesh.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	ep0.Close()
	time.Sleep(50 * time.Millisecond)

	var mu sync.Mutex
	var got []*chunk.Chunk
	cfg := engine.Config{
		Plan: res.Plan, Workload: res.Workload,
		App:          app,
		InputDataset: "pts",
		Replan:       replanFor(repo, res.Workload, plan.SRA),
		OnResult: func(node rpc.NodeID, c *chunk.Chunk) error {
			mu.Lock()
			got = append(got, c)
			mu.Unlock()
			return nil
		},
	}
	st := engine.FarmStorage{Farm: repo.Farm()}
	errs := make([]error, 3)
	var wg sync.WaitGroup
	v := newViews(t, mesh.Endpoint)
	id := v.query()
	for q := 1; q < 3; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			_, errs[q] = v.run(ctx, id, rpc.NodeID(q), cfg, st)
		}(q)
	}
	wg.Wait()
	for q := 1; q < 3; q++ {
		if errs[q] != nil {
			t.Fatalf("survivor %d failed: %v", q, errs[q])
		}
	}
	if render(got) != want {
		t.Error("pre-dead-node degraded result differs from the fault-free reference")
	}
}
