package engine_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"adr/internal/apps"
	"adr/internal/chunk"
	"adr/internal/core"
	"adr/internal/engine"
	"adr/internal/leakcheck"
	"adr/internal/plan"
	"adr/internal/rpc"
	"adr/internal/rpc/faultep"
)

// planDA builds the 3-node repo and a DA plan whose execution exchanges
// input forwards between all nodes — the dependency structure that turns a
// single dead node into a mesh-wide stall if failure detection is broken.
func planDA(t *testing.T, nodes int) (*core.Repository, *core.Result, engine.Config) {
	t.Helper()
	repo := buildRepo(t, nodes)
	res, err := repo.Execute(context.Background(), &core.Query{
		Input: "pts", Output: "img", Strategy: plan.DA,
		App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{
		Plan: res.Plan, Workload: res.Workload,
		App:          &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
		InputDataset: "pts",
		OnResult:     func(rpc.NodeID, *chunk.Chunk) error { return nil },
	}
	return repo, res, cfg
}

// TestTCPPeerDeathAbortsQuery is the acceptance test for the failure model:
// kill one TCP node mid-query and every survivor must return a retryable
// error rooted in the peer failure — within the deadline, never a hang.
// Each survivor learns of the death from the transport (a MsgPeerDown, or a
// send that fails with a *rpc.PeerError) or from the abort the first
// detector broadcast, and whichever it was, the error names node 0
// (engine.DeadPeer).
func TestTCPPeerDeathAbortsQuery(t *testing.T) {
	const nodes = 3
	repo, _, cfg := planDA(t, nodes)

	mesh, err := rpc.NewLoopbackMesh(nodes, rpc.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	st := engine.FarmStorage{Farm: repo.Farm()}

	errs := make(chan error, nodes-1)
	v := newViews(t, mesh.Endpoint)
	id := v.query()
	for q := 1; q < nodes; q++ {
		go func(q int) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_, err := v.run(ctx, id, rpc.NodeID(q), cfg, st)
			errs <- err
		}(q)
	}

	// Node 0 joins the mesh but dies shortly after the query starts.
	ep0, _ := mesh.Endpoint(0)
	time.Sleep(100 * time.Millisecond)
	ep0.Close()

	for i := 0; i < nodes-1; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("survivor completed against a dead peer")
			}
			if dead, ok := engine.DeadPeer(err); !ok || dead != 0 || !engine.IsRetryable(err) {
				t.Errorf("survivor error %v: DeadPeer %d, %v; want node 0, retryable", err, dead, ok)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("survivor hung after TCP peer death")
		}
	}
}

// TestAbortNamesDeadPeerRetryable: a survivor that learns of a death only
// through a peer's abort — its own death notice and its sends toward the
// dead node are eaten — must still fail retryably, naming the dead node: the
// abort carries the death it was caused by.
func TestAbortNamesDeadPeerRetryable(t *testing.T) {
	leakcheck.Check(t)
	const nodes = 3
	repo, _, cfg := planDA(t, nodes)
	inner, err := rpc.NewInprocFabric(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	fabric := faultep.WrapFabric(inner)
	n1, _ := fabric.Node(1)
	n1.OnRecv(func(m rpc.Message) bool { return m.Type == rpc.MsgPeerDown }, faultep.Action{Drop: true})
	n1.OnSend(func(m rpc.Message) bool { return m.Dst == 0 }, faultep.Action{Drop: true})

	v := newViews(t, fabric.Endpoint)
	_, traces := runSurvivors(t, v, cfg, engine.FarmStorage{Farm: repo.Farm()}, func() {
		ep0, _ := inner.Endpoint(0)
		ep0.Close()
	})
	var abort *engine.AbortError
	if err := traces[1].err; !errors.As(err, &abort) || abort.Node != 2 {
		t.Fatalf("node 1 error = %v, want node 2's abort", err)
	}
	checkDiesOf(t, 1, traces[1].err, 0)
	checkDiesOf(t, 2, traces[2].err, 0)
}

// TestStorageFailureBroadcastsAbort: a node failing on its own disk tells
// the mesh via the abort broadcast; peers with perfectly healthy transport
// return an *engine.AbortError naming the failing node instead of blocking
// on forwards that will never come. Each node runs under its own context so
// the propagation is the protocol's, not a shared cancellation's.
func TestStorageFailureBroadcastsAbort(t *testing.T) {
	const nodes = 3
	repo, res, cfg := planDA(t, nodes)

	// Fail a chunk owned by node 2, so node 2 is the one that aborts.
	victim := chunk.Meta{}
	for _, in := range res.Workload.Inputs {
		if in.Node == 2 {
			victim = in
			break
		}
	}
	if victim.Node != 2 {
		t.Fatal("no input chunk owned by node 2")
	}
	flaky := &flakyStorage{
		ChunkStorage: engine.FarmStorage{Farm: repo.Farm()},
		failOn:       map[chunk.ID]bool{victim.ID: true},
	}

	fabric, err := rpc.NewInprocFabric(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()

	errs := make([]error, nodes)
	var wg sync.WaitGroup
	v := newViews(t, fabric.Endpoint)
	id := v.query()
	for q := 0; q < nodes; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_, errs[q] = v.run(ctx, id, rpc.NodeID(q), cfg, flaky)
		}(q)
	}
	wg.Wait()

	if errs[2] == nil || !strings.Contains(errs[2].Error(), "injected disk failure") {
		t.Errorf("failing node error = %v, want the disk failure", errs[2])
	}
	for q := 0; q < 2; q++ {
		var abort *engine.AbortError
		if !errors.As(errs[q], &abort) {
			t.Fatalf("node %d error = %v, want *engine.AbortError", q, errs[q])
		}
		if abort.Node != 2 {
			t.Errorf("node %d abort names node %d, want 2", q, abort.Node)
		}
		if !strings.Contains(abort.Reason, "injected disk failure") {
			t.Errorf("node %d abort reason lost the cause: %q", q, abort.Reason)
		}
	}
	if flaky.failures == 0 {
		t.Fatal("test did not exercise the failure path")
	}
}

// TestFaultInjectionSendErrorAborts drives the faultep harness through a
// real query: node 1's link errors every outbound message (aborts included,
// as a fully severed link would), so node 1 fails with the injected error
// and its peers — whose transport is healthy and who therefore hear nothing
// — fall back to their per-node context deadlines instead of hanging.
func TestFaultInjectionSendErrorAborts(t *testing.T) {
	const nodes = 3
	repo, _, cfg := planDA(t, nodes)

	inner, err := rpc.NewInprocFabric(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	fabric := faultep.WrapFabric(inner)
	defer fabric.Close()
	boom := fmt.Errorf("injected link failure")
	n1, err := fabric.Node(1)
	if err != nil {
		t.Fatal(err)
	}
	n1.OnSend(func(rpc.Message) bool { return true }, faultep.Action{Err: boom})

	st := engine.FarmStorage{Farm: repo.Farm()}
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	v := newViews(t, fabric.Endpoint)
	id := v.query()
	for q := 0; q < nodes; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 4*time.Second)
			defer cancel()
			_, errs[q] = v.run(ctx, id, rpc.NodeID(q), cfg, st)
		}(q)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nodes hung despite context deadlines")
	}

	if !errors.Is(errs[1], boom) {
		t.Errorf("node 1 error = %v, want the injected link failure", errs[1])
	}
	for _, q := range []int{0, 2} {
		if errs[q] == nil {
			t.Errorf("node %d completed despite a mute peer", q)
		}
	}
}

// TestFaultInjectionDelayTransparent: the harness with only delay rules must
// not change results — a slow mesh is a correct mesh.
func TestFaultInjectionDelayTransparent(t *testing.T) {
	repo := buildRepo(t, 2)
	q := &core.Query{
		Input: "pts", Output: "img", Strategy: plan.FRA,
		App: &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
	}
	res, err := repo.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want := render(res.Chunks)

	inner, err := rpc.NewInprocFabric(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	fabric := faultep.WrapFabric(inner)
	defer fabric.Close()
	for id := rpc.NodeID(0); id < 2; id++ {
		ep, err := fabric.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		ep.OnRecv(func(rpc.Message) bool { return true }, faultep.Action{Delay: time.Millisecond})
	}

	var mu sync.Mutex
	var got []*chunk.Chunk
	cfg := engine.Config{
		Plan: res.Plan, Workload: res.Workload,
		App:          &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4},
		InputDataset: "pts",
		OnResult: func(node rpc.NodeID, c *chunk.Chunk) error {
			mu.Lock()
			got = append(got, c)
			mu.Unlock()
			return nil
		},
	}
	if _, err := engine.Run(context.Background(), cfg, fabric, engine.FarmStorage{Farm: repo.Farm()}); err != nil {
		t.Fatal(err)
	}
	if render(got) != want {
		t.Error("delayed mesh changed the query result")
	}
}
