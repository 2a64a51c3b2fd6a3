package engine_test

import (
	"context"
	"sync"
	"testing"

	"adr/internal/engine"
	"adr/internal/metrics"
	"adr/internal/rpc"
)

// views is what a hand-driven test runs nodes through, as the daemons do:
// one long-lived Dispatcher per endpoint of a fabric, made on the endpoint's
// first use and closed when the test ends, and a fresh query id per run. A
// fabric that a second run reuses routes each run's traffic to its own
// mailboxes, so nothing an earlier run left behind reaches the next.
type views struct {
	endpoint func(rpc.NodeID) (rpc.Endpoint, error)
	mu       sync.Mutex
	ds       map[rpc.NodeID]*engine.Dispatcher
	last     int32
}

func newViews(t *testing.T, endpoint func(rpc.NodeID) (rpc.Endpoint, error)) *views {
	v := &views{endpoint: endpoint, ds: make(map[rpc.NodeID]*engine.Dispatcher)}
	t.Cleanup(v.close)
	return v
}

// query claims a fresh query id for one run.
func (v *views) query() int32 {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.last++
	return v.last
}

// run executes node q's share of query id on q's view and gives the view
// back.
func (v *views) run(ctx context.Context, id int32, q rpc.NodeID, cfg engine.Config, st engine.ChunkStorage) (metrics.NodeTrace, error) {
	v.mu.Lock()
	d := v.ds[q]
	if d == nil {
		ep, err := v.endpoint(q)
		if err != nil {
			v.mu.Unlock()
			return metrics.NodeTrace{}, err
		}
		d = engine.NewDispatcher(ep)
		v.ds[q] = d
	}
	v.mu.Unlock()
	defer d.Release(id)
	return engine.RunNodeTraced(ctx, cfg, d.Endpoint(id), st)
}

// close closes every Dispatcher; when it returns, their routing loops have
// exited and what they held is retired. A test that counts pooled buffers
// closes its fabric, then this, before it counts.
func (v *views) close() {
	v.mu.Lock()
	defer v.mu.Unlock()
	for q, d := range v.ds {
		d.Close()
		delete(v.ds, q)
	}
}
