package engine_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"adr/internal/apps"
	"adr/internal/bufpool"
	"adr/internal/chunk"
	"adr/internal/core"
	"adr/internal/engine"
	"adr/internal/plan"
	"adr/internal/rpc"
	"adr/internal/rpc/faultep"
)

// runParallelFlow executes the plan across an in-process fabric built with
// opts and returns the finished output chunks in output-position order and
// the largest in-flight byte total any one link reached. With a flow window
// in opts every forwarded payload charges it before delivery, so the
// engine's senders block and resume throughout the query.
func runParallelFlow(t *testing.T, repo *core.Repository, p *plan.Plan, w *plan.Workload, app engine.App, workers int, opts rpc.InprocOptions) ([]*chunk.Chunk, int64) {
	t.Helper()
	fabric, err := rpc.NewInprocFabricOpts(p.Machine.Procs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fabric.Close()

	idToPos := make(map[chunk.ID]int32, len(w.Outputs))
	for pos, m := range w.Outputs {
		idToPos[m.ID] = int32(pos)
	}
	results := make([]*chunk.Chunk, len(w.Outputs))
	var mu sync.Mutex
	cfg := engine.Config{
		Plan: p, Workload: w, App: app,
		InputDataset: "pts",
		Workers:      workers,
		OnResult: func(node rpc.NodeID, c *chunk.Chunk) error {
			mu.Lock()
			defer mu.Unlock()
			pos, ok := idToPos[c.Meta.ID]
			if !ok {
				return fmt.Errorf("result for unknown output chunk %d", c.Meta.ID)
			}
			results[pos] = c
			return nil
		},
	}
	if _, err := engine.Run(context.Background(), cfg, fabric, engine.FarmStorage{Farm: repo.Farm()}); err != nil {
		t.Fatal(err)
	}
	return results, fabric.FlowHighWater()
}

// TestFlowTinyWindowMatchesSerial is the acceptance test for flow-control
// correctness: with a 1 KiB window — room for one encoded chunk (the
// fixture's largest is just under it), so forwards go out one at a time — every
// strategy must still produce output byte-identical to the serial oracle,
// and every pooled buffer must return. Backpressure may reorder and stall
// the pipeline arbitrarily; it must never change results or lose credits.
// The engine's payloads must really pass through the window: the peak
// in-flight bytes on any link are above zero and within the window plus one
// frame (the transport's bound: rpc's TestConformance).
func TestFlowTinyWindowMatchesSerial(t *testing.T) {
	const (
		nodes  = 3
		window = 1 << 10
	)
	base := bufpool.Outstanding()
	repo := buildRepo(t, nodes)
	for _, s := range []plan.Strategy{plan.FRA, plan.SRA, plan.DA, plan.Hybrid} {
		t.Run(s.String(), func(t *testing.T) {
			app := &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4}
			q := &core.Query{Input: "pts", Output: "img", Strategy: s, App: app}
			w, err := repo.BuildWorkload(q)
			if err != nil {
				t.Fatal(err)
			}
			planner, err := plan.NewPlanner(repo.Machine())
			if err != nil {
				t.Fatal(err)
			}
			p, err := planner.Plan(s, w)
			if err != nil {
				t.Fatal(err)
			}
			want := serialOracle(t, repo, p, w, &apps.RasterApp{Op: apps.Sum, CellsPerDim: 4})
			got, peak := runParallelFlow(t, repo, p, w, app, 4, rpc.InprocOptions{
				Flow: rpc.Flow{WindowBytes: window},
			})
			requireIdenticalChunks(t, want, got)
			var maxChunk int64
			for _, m := range w.Inputs {
				maxChunk = max(maxChunk, m.Bytes)
			}
			if peak <= 0 || peak > window+maxChunk {
				t.Errorf("peak in-flight bytes on a link = %d, want within (0, %d] (window %d + largest input chunk %d)",
					peak, window+maxChunk, window, maxChunk)
			}
		})
	}
	if got := bufpool.Outstanding(); got != base {
		t.Errorf("outstanding buffers after flow-controlled queries: %d, want %d", got, base)
	}
}

// TestFlowPeerFailureLeaksNoBuffers pins the buffer-ownership sweep end to
// end: a query killed mid-flight — by an injected link error or by a peer
// dying outright — must leave the bufpool balance exactly where it started
// once every node has returned and the fabric is closed. Pre-fix, payloads
// stranded in transport queues, mailboxes and the dispatcher leaked on every
// failure.
func TestFlowPeerFailureLeaksNoBuffers(t *testing.T) {
	const nodes = 3

	// Both legs run on a flow-controlled fabric so the failure also exercises
	// credit reclaim: blocked senders must wake and their charged balances
	// must be returned, not leaked, when the peer dies.
	opts := rpc.InprocOptions{Flow: rpc.Flow{WindowBytes: 4 << 10}}

	t.Run("injected-send-error", func(t *testing.T) {
		base := bufpool.Outstanding()
		repo, _, cfg := planDA(t, nodes)
		inner, err := rpc.NewInprocFabricOpts(nodes, opts)
		if err != nil {
			t.Fatal(err)
		}
		fabric := faultep.WrapFabric(inner)
		boom := fmt.Errorf("injected data-link failure")
		n1, err := fabric.Node(1)
		if err != nil {
			t.Fatal(err)
		}
		// Node 1's data link dies mid-query: every non-urgent payload send
		// errors, but the urgent abort broadcast still reaches the peers.
		n1.OnSend(func(m rpc.Message) bool {
			return !m.Urgent && len(m.Payload) > 0
		}, faultep.Action{Err: boom})

		st := engine.FarmStorage{Farm: repo.Farm()}
		v := newViews(t, fabric.Endpoint)
		errs := make([]error, nodes)
		var wg sync.WaitGroup
		id := v.query()
		for q := 0; q < nodes; q++ {
			wg.Add(1)
			go func(q int) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				_, errs[q] = v.run(ctx, id, rpc.NodeID(q), cfg, st)
			}(q)
		}
		wg.Wait()

		if !errors.Is(errs[1], boom) {
			t.Errorf("node 1 error = %v, want the injected failure", errs[1])
		}
		for _, q := range []int{0, 2} {
			if errs[q] == nil {
				t.Errorf("node %d completed despite node 1's dead data link", q)
			}
		}
		fabric.Close()
		v.close()
		if got := bufpool.Outstanding(); got != base {
			t.Errorf("outstanding buffers after injected failure: %d, want %d", got, base)
		}
	})

	t.Run("peer-death", func(t *testing.T) {
		base := bufpool.Outstanding()
		repo, _, cfg := planDA(t, nodes)
		fabric, err := rpc.NewInprocFabricOpts(nodes, opts)
		if err != nil {
			t.Fatal(err)
		}
		st := engine.FarmStorage{Farm: repo.Farm()}
		v := newViews(t, fabric.Endpoint)

		errs := make([]error, nodes)
		var wg sync.WaitGroup
		id := v.query()
		for q := 1; q < nodes; q++ {
			wg.Add(1)
			go func(q int) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				_, errs[q] = v.run(ctx, id, rpc.NodeID(q), cfg, st)
			}(q)
		}
		// Node 0 joins, then dies shortly into the query.
		ep0, _ := fabric.Endpoint(0)
		time.Sleep(50 * time.Millisecond)
		ep0.Close()
		wg.Wait()

		for q := 1; q < nodes; q++ {
			if errs[q] == nil {
				t.Errorf("node %d completed against a dead peer", q)
			}
		}
		fabric.Close()
		v.close()
		if got := bufpool.Outstanding(); got != base {
			t.Errorf("outstanding buffers after peer death: %d, want %d", got, base)
		}
	})
}
