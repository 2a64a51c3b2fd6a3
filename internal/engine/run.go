package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"adr/internal/metrics"
	"adr/internal/rpc"
)

// Mesh is the query execution service of an in-process back-end (§2.1): a
// long-lived Dispatcher on each node of a fabric. Each Run claims a fresh
// query id and runs every node on its Dispatcher's view of it, as each
// daemon of a TCP mesh runs its own node, so concurrent queries share the
// fabric and its credit windows.
type Mesh struct {
	nodes  []*Dispatcher
	ids    atomic.Int32
	closed atomic.Bool
}

// NewMesh starts a Dispatcher on each of the fabric's first nodes endpoints.
func NewMesh(fabric rpc.Fabric, nodes int) (*Mesh, error) {
	m := &Mesh{}
	for q := 0; q < nodes; q++ {
		ep, err := fabric.Endpoint(rpc.NodeID(q))
		if err != nil {
			m.Close()
			return nil, err
		}
		m.nodes = append(m.nodes, NewDispatcher(ep))
	}
	return m, nil
}

// Run executes the configured query, planned for the mesh's node count, on
// every node, one goroutine group each, and returns the aggregated report.
func (m *Mesh) Run(ctx context.Context, cfg Config, st ChunkStorage) (*Report, error) {
	if m.closed.Load() {
		return nil, errors.New("engine: mesh closed")
	}
	id := m.ids.Add(1)
	report := &Report{Traces: make([]metrics.NodeTrace, len(m.nodes))}

	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	errs := make([]error, len(m.nodes))
	for q, d := range m.nodes {
		ep := d.Endpoint(id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer d.Release(id)
			var err error
			if report.Traces[q], err = RunNodeTraced(rctx, cfg, ep, st); err != nil {
				errs[q] = err
				cancel() // unblock peers waiting on this node
			}
		}()
	}
	wg.Wait()
	// Prefer the root-cause failure over the cancellations it induced: the
	// first failing node cancels the shared context, so peers usually fail
	// with a bare context.Canceled that would mask the real error whenever
	// the root cause happened on a higher-numbered node.
	var canceled error
	for q, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) && ctx.Err() == nil {
			if canceled == nil {
				canceled = fmt.Errorf("engine: node %d failed: %w", q, err)
			}
			continue
		}
		return report, fmt.Errorf("engine: node %d failed: %w", q, err)
	}
	if canceled != nil {
		return report, canceled
	}
	return report, nil
}

// Close stops the Dispatchers, and Run fails from then on. The fabric stays
// open: its owner closes it, as a whole, so the shutdown stays out of the
// transport's peer-failure metrics.
func (m *Mesh) Close() {
	m.closed.Store(true)
	for _, d := range m.nodes {
		d.stop()
	}
}

// Run executes one query on all nodes of a caller's fabric, through a Mesh
// that lives for the run.
func Run(ctx context.Context, cfg Config, fabric rpc.Fabric, st ChunkStorage) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := NewMesh(fabric, cfg.Plan.Machine.Procs)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return m.Run(ctx, cfg, st)
}
