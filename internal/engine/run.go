package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"adr/internal/metrics"
	"adr/internal/rpc"
)

// Run executes the configured query across all nodes of an in-process
// fabric, one goroutine group per back-end node, and returns the aggregated
// report. It is the driver behind the in-process Repository; distributed
// deployments call RunNodeTraced per daemon instead.
func Run(ctx context.Context, cfg Config, fabric rpc.Fabric, st ChunkStorage) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	procs := cfg.Plan.Machine.Procs
	report := &Report{Traces: make([]metrics.NodeTrace, procs)}

	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	errs := make([]error, procs)
	for q := 0; q < procs; q++ {
		ep, err := fabric.Endpoint(rpc.NodeID(q))
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(q int, ep rpc.Endpoint) {
			defer wg.Done()
			var err error
			if report.Traces[q], err = RunNodeTraced(rctx, cfg, ep, st); err != nil {
				errs[q] = err
				cancel() // unblock peers waiting on this node
			}
		}(q, ep)
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
