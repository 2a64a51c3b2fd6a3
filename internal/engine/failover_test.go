package engine_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"adr/internal/apps"
	"adr/internal/chunk"
	"adr/internal/core"
	"adr/internal/engine"
	"adr/internal/layout"
	"adr/internal/leakcheck"
	"adr/internal/plan"
	"adr/internal/rpc"
	"adr/internal/space"
)

// buildReplicatedRepo is buildRepo with r-way chained replication, so a dead
// node's chunks have surviving holders to be planned onto.
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

// failoverQuery is the query every failover test runs: a sum raster of pts
// onto img.
func failoverQuery(s plan.Strategy) *core.Query {
	return &core.Query{Input: "pts", Output: "img", Strategy: s, App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4}}
}

// prepare plans q over repo's catalog as a back-end daemon does, without the
// excluded nodes: core.Exec.Prepare, the one place a plan is made without
// the dead.
func prepare(repo *core.Repository, q *core.Query, exclude ...rpc.NodeID) (engine.Config, error) {
	e := core.Exec{
		Machine:      repo.Machine(),
		DisksPerNode: repo.Farm().DisksPerNode,
		Resolve: func(q *core.Query) (in, out *layout.Dataset, mapper space.RectMapper, err error) {
			in, _ = repo.Dataset(q.Input)
			out, _ = repo.Dataset(q.Output)
			return in, out, space.IdentityMapper{}, nil
		},
	}
	cfg, _, err := e.Prepare(q, exclude)
	return cfg, err
}

// runSurvivors runs nodes 1 and 2 of one query on v, collecting their
// results, and returns their traces and errors (index 0 unused). Node 0 is
// not run: die, when non-nil, is called once the survivors are under way
// and is expected to kill it.
func runSurvivors(t *testing.T, v *views, cfg engine.Config, st engine.ChunkStorage, die func()) (got []*chunk.Chunk, traces []engineTrace) {
	t.Helper()
	var mu sync.Mutex
	cfg.OnResult = func(node rpc.NodeID, c *chunk.Chunk) error {
		mu.Lock()
		got = append(got, c)
		mu.Unlock()
		return nil
	}
	const nodes = 3
	traces = make([]engineTrace, nodes)
	var wg sync.WaitGroup
	id := v.query()
	for q := 1; q < nodes; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			tr, err := v.run(ctx, id, rpc.NodeID(q), cfg, st)
			traces[q] = engineTrace{degraded: tr.Degraded, excluded: tr.Excluded, err: err}
		}(q)
	}
	if die != nil {
		time.Sleep(100 * time.Millisecond)
		die()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("survivors hung after a peer death")
	}
	return got, traces
}

// runDegradedFailover executes one kill-mid-query failover on the given
// fabric, the way the resolver drives it: node 0 joins the mesh but dies
// shortly after the survivors start, so each survivor fails retryably, naming
// node 0; the query resubmitted under a fresh id and planned without node 0
// then completes on the survivors with results identical to the fault-free
// reference. Returns the resubmission's survivor traces.
func runDegradedFailover(t *testing.T, repo *core.Repository, s plan.Strategy, v *views) []engineTrace {
	t.Helper()
	res, err := repo.Execute(context.Background(), failoverQuery(s))
	if err != nil {
		t.Fatal(err)
	}
	want := render(res.Chunks)
	st := engine.FarmStorage{Farm: repo.Farm()}
	config := func(exclude ...rpc.NodeID) engine.Config {
		cfg, err := prepare(repo, failoverQuery(s), exclude...)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}

	ep0, err := v.endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	_, first := runSurvivors(t, v, config(), st, func() { ep0.Close() })
	for q := 1; q < 3; q++ {
		checkDiesOf(t, q, first[q].err, 0)
	}

	got, traces := runSurvivors(t, v, config(0), st, nil)
	for q := 1; q < 3; q++ {
		if traces[q].err != nil {
			t.Fatalf("survivor %d failed the resubmission: %v", q, traces[q].err)
		}
	}
	if render(got) != want {
		t.Errorf("degraded %s result differs from the fault-free reference", s)
	}
	return traces[1:]
}

// checkDiesOf: survivor q's run failed retryably, naming dead as the node
// whose death caused it.
func checkDiesOf(t *testing.T, q int, err error, dead rpc.NodeID) {
	t.Helper()
	if err == nil {
		t.Fatalf("survivor %d completed a query whose plan needs dead node %d", q, dead)
	}
	if got, ok := engine.DeadPeer(err); !ok || got != dead || !engine.IsRetryable(err) {
		t.Errorf("survivor %d error = %v: DeadPeer %d, %v, retryable %v; want node %d, retryable", q, err, got, ok, engine.IsRetryable(err), dead)
	}
}

type engineTrace struct {
	degraded bool
	excluded []int
	err      error
}

// TestDegradedFailoverTCP is the failover acceptance test on the TCP
// transport: with 2-way replication, killing one node mid-query fails the
// survivors retryably, and the resubmission planned without it completes
// with serial-equivalent results, for every strategy.
func TestDegradedFailoverTCP(t *testing.T) {
	leakcheck.Check(t)
	repo := buildReplicatedRepo(t, 3, 2)
	for _, s := range []plan.Strategy{plan.FRA, plan.SRA, plan.DA, plan.Hybrid} {
		t.Run(s.String(), func(t *testing.T) {
			mesh, err := rpc.NewLoopbackMesh(3, rpc.TCPOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer mesh.Close()
			checkDegradedTraces(t, runDegradedFailover(t, repo, s, newViews(t, mesh.Endpoint)))
		})
	}
}

// TestDegradedFailoverInproc runs the same failover on the in-process
// fabric.
func TestDegradedFailoverInproc(t *testing.T) {
	leakcheck.Check(t)
	repo := buildReplicatedRepo(t, 3, 2)
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
}

// checkDegradedTraces: every survivor of the resubmission ran degraded, with
// node 0 excluded.
func checkDegradedTraces(t *testing.T, traces []engineTrace) {
	t.Helper()
	for i, tr := range traces {
		if !tr.degraded || !slices.Equal(tr.excluded, []int{0}) {
			t.Errorf("survivor %d trace: degraded %v, excluded %v; want degraded without node 0", i+1, tr.degraded, tr.excluded)
		}
	}
}

// TestUnreplicatedDegradedFailsTyped: on an unreplicated layout a death
// still fails the survivors retryably — they cannot know the layout — but
// the resubmission cannot be planned: some chunk's only copy is gone, so
// Prepare fails with a *plan.NoHolderError naming it, which is fatal.
func TestUnreplicatedDegradedFailsTyped(t *testing.T) {
	leakcheck.Check(t)
	repo := buildRepo(t, 3) // replicas = 1
	mesh, err := rpc.NewLoopbackMesh(3, rpc.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	v := newViews(t, mesh.Endpoint)
	cfg, err := prepare(repo, failoverQuery(plan.DA))
	if err != nil {
		t.Fatal(err)
	}
	ep0, _ := mesh.Endpoint(0)
	_, first := runSurvivors(t, v, cfg, engine.FarmStorage{Farm: repo.Farm()}, func() { ep0.Close() })
	for q := 1; q < 3; q++ {
		checkDiesOf(t, q, first[q].err, 0)
	}

	_, err = prepare(repo, failoverQuery(plan.DA), 0)
	var nh *plan.NoHolderError
	if !errors.As(err, &nh) || nh.Dataset != "pts" || nh.Node != 0 {
		t.Fatalf("prepare without node 0 = %v, want a *plan.NoHolderError for a pts chunk on node 0", err)
	}
	if engine.IsRetryable(err) {
		t.Errorf("no-holder error classified retryable: %v", err)
	}
}

// TestDegradedDeathBeforeQuery: a peer that died before the query was
// submitted — the steady state of a daemon fleet after a crash. A query
// whose plan still needs it fails at once, retryably, from the Dispatcher's
// record of the death; one planned without it is not failed by that record
// and completes with the fault-free result.
func TestDegradedDeathBeforeQuery(t *testing.T) {
	leakcheck.Check(t)
	repo := buildReplicatedRepo(t, 3, 2)
	res, err := repo.Execute(context.Background(), failoverQuery(plan.SRA))
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := rpc.NewLoopbackMesh(3, rpc.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	v := newViews(t, mesh.Endpoint)
	st := engine.FarmStorage{Farm: repo.Farm()}

	ep0, err := mesh.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	ep0.Close()

	cfg, err := prepare(repo, failoverQuery(plan.SRA))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, first := runSurvivors(t, v, cfg, st, nil)
	for q := 1; q < 3; q++ {
		checkDiesOf(t, q, first[q].err, 0)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("a query needing a long-dead peer took %v to fail", elapsed)
	}

	if cfg, err = prepare(repo, failoverQuery(plan.SRA), 0); err != nil {
		t.Fatal(err)
	}
	got, traces := runSurvivors(t, v, cfg, st, nil)
	for q := 1; q < 3; q++ {
		if traces[q].err != nil {
			t.Fatalf("survivor %d failed a query planned without the dead node: %v", q, traces[q].err)
		}
	}
	if render(got) != render(res.Chunks) {
		t.Error("degraded result differs from the fault-free reference")
	}
	checkDegradedTraces(t, traces[1:])
}
