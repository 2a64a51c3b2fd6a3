package engine_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"adr/internal/apps"
	"adr/internal/chunk"
	"adr/internal/core"
	"adr/internal/engine"
	"adr/internal/plan"
	"adr/internal/rpc"
)

// flakyStorage injects read failures on selected chunks.
type flakyStorage struct {
	engine.ChunkStorage
	mu       sync.Mutex
	failOn   map[chunk.ID]bool
	failures int
}

func (f *flakyStorage) ReadChunkCached(dataset string, m chunk.Meta) ([]byte, bool, error) {
	f.mu.Lock()
	shouldFail := f.failOn[m.ID] && dataset != "img"
	if shouldFail {
		f.failures++
	}
	f.mu.Unlock()
	if shouldFail {
		return nil, false, fmt.Errorf("injected disk failure on chunk %d", m.ID)
	}
	return f.ChunkStorage.ReadChunkCached(dataset, m)
}

// TestStorageFailurePropagates: a disk read error on one node must abort
// the whole query with a descriptive error, not hang the other nodes.
func TestStorageFailurePropagates(t *testing.T) {
	repo := buildRepo(t, 3)
	res, err := repo.Execute(context.Background(), &core.Query{
		Input: "pts", Output: "img", Strategy: plan.DA,
		App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
	})
	if err != nil {
		t.Fatal(err)
	}

	flaky := &flakyStorage{
		ChunkStorage: engine.FarmStorage{Farm: repo.Farm()},
		failOn:       map[chunk.ID]bool{res.Workload.Inputs[3].ID: true},
	}
	fabric, err := rpc.NewInprocFabric(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()
	cfg := engine.Config{
		Plan: res.Plan, Workload: res.Workload,
		App:          &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
		InputDataset: "pts",
		OnResult:     func(rpc.NodeID, *chunk.Chunk) error { return nil },
	}
	done := make(chan error, 1)
	go func() {
		_, err := engine.Run(context.Background(), cfg, fabric, flaky)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("injected disk failure did not abort the query")
		}
		if !strings.Contains(err.Error(), "injected disk failure") {
			t.Errorf("error does not name the cause: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("query hung after storage failure")
	}
	if flaky.failures == 0 {
		t.Fatal("test did not exercise the failure path")
	}
}

// TestNodeDeathUnblocksPeers: killing one node's endpoint mid-query must
// error out the peers that wait on its messages rather than hang them.
func TestNodeDeathUnblocksPeers(t *testing.T) {
	repo := buildRepo(t, 3)
	// Plan with DA so nodes depend on each other's forwards.
	res, err := repo.Execute(context.Background(), &core.Query{
		Input: "pts", Output: "img", Strategy: plan.DA,
		App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	fabric, err := rpc.NewInprocFabric(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()

	st := engine.FarmStorage{Farm: repo.Farm()}
	cfg := engine.Config{
		Plan: res.Plan, Workload: res.Workload,
		App:          &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
		InputDataset: "pts",
		OnResult:     func(rpc.NodeID, *chunk.Chunk) error { return nil },
	}

	errs := make(chan error, 2)
	v := newViews(t, fabric.Endpoint)
	id := v.query()
	for q := 1; q < 3; q++ {
		go func(q int) {
			_, err := v.run(context.Background(), id, rpc.NodeID(q), cfg, st)
			errs <- err
		}(q)
	}
	// Node 0 never runs; kill its endpoint so peers' sends/waits fail.
	ep0, _ := fabric.Endpoint(0)
	time.Sleep(50 * time.Millisecond)
	ep0.Close()
	fabric.Close()

	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Error("peer completed despite dead node")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("peer hung after node death")
		}
	}
}

// TestOnResultErrorAborts: a failing result sink aborts the query.
func TestOnResultErrorAborts(t *testing.T) {
	repo := buildRepo(t, 2)
	res, err := repo.Execute(context.Background(), &core.Query{
		Input: "pts", Output: "img", Strategy: plan.FRA,
		App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	fabric, err := rpc.NewInprocFabric(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()
	cfg := engine.Config{
		Plan: res.Plan, Workload: res.Workload,
		App:          &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
		InputDataset: "pts",
		OnResult: func(rpc.NodeID, *chunk.Chunk) error {
			return fmt.Errorf("sink full")
		},
	}
	_, err = engine.Run(context.Background(), cfg, fabric, engine.FarmStorage{Farm: repo.Farm()})
	if err == nil || !strings.Contains(err.Error(), "sink full") {
		t.Errorf("sink error not propagated: %v", err)
	}
}

// TestCorruptChunkOnDisk: garbage bytes in the store surface as a decode
// error naming the chunk.
func TestCorruptChunkOnDisk(t *testing.T) {
	repo := buildRepo(t, 2)
	res, err := repo.Execute(context.Background(), &core.Query{
		Input: "pts", Output: "img", Strategy: plan.FRA,
		App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite one input chunk with garbage.
	victim := res.Workload.Inputs[0]
	st, err := repo.Farm().Store(int(victim.Disk))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("pts", victim.ID, []byte("not a chunk at all")); err != nil {
		t.Fatal(err)
	}
	_, err = repo.Execute(context.Background(), &core.Query{
		Input: "pts", Output: "img", Strategy: plan.FRA,
		App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
	})
	if err == nil {
		t.Fatal("corrupt chunk did not fail the query")
	}
	if !strings.Contains(err.Error(), "decode input") {
		t.Errorf("error does not identify decode failure: %v", err)
	}
}
