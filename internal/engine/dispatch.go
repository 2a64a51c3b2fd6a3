package engine

import (
	"context"
	"sync"

	"adr/internal/metrics"
	"adr/internal/rpc"
)

// Dispatcher multiplexes one back-end node's mesh endpoint across multiple
// concurrently executing queries: outbound messages are stamped with their
// query id, inbound messages are routed to the per-query virtual endpoint.
// This is the piece of the query execution service that lets ADR "manage
// all the resources in the system" (§2.1) when the front-end has several
// client queries in flight — without it, two queries' ghost chunks and
// forwarded inputs would interleave on the wire and corrupt each other's
// phase accounting.
type Dispatcher struct {
	ep rpc.Endpoint

	mu     sync.Mutex
	queues map[int32]*dispatchQueue
	// released remembers query ids whose buffers were dropped, so a message
	// arriving after Release (an abort straggler, a slow peer's last chunk)
	// is discarded and counted instead of silently re-creating the queue —
	// which nothing would ever delete again.
	released map[int32]bool
	// deadPeers remembers every rpc.MsgPeerDown the degraded transport has
	// delivered. The synthetic message arrives once per dead peer, but every
	// query — including ones registered after the death — needs to see it, so
	// the run loop replicates it into each active queue and queue() replays
	// the set into queues created later.
	deadPeers []rpc.NodeID
	stopped   bool
	err       error
	cancel    context.CancelFunc
	done      chan struct{}
}

// lateMsgs counts inbound messages for already-released queries, dropped by
// the dispatcher instead of leaking a resurrected queue.
var lateMsgs = metrics.Default.Counter("adr_dispatch_late_msgs_total")

type dispatchQueue struct {
	cond    *sync.Cond
	pending []rpc.Message
	closed  bool
	err     error
}

// NewDispatcher wraps an endpoint and starts the routing loop.
func NewDispatcher(ep rpc.Endpoint) *Dispatcher {
	ctx, cancel := context.WithCancel(context.Background())
	d := &Dispatcher{
		ep:       ep,
		queues:   make(map[int32]*dispatchQueue),
		released: make(map[int32]bool),
		cancel:   cancel,
		done:     make(chan struct{}),
	}
	go d.run(ctx)
	return d
}

func (d *Dispatcher) run(ctx context.Context) {
	defer close(d.done)
	for {
		m, err := d.ep.Recv(ctx)
		if err != nil {
			d.mu.Lock()
			d.stopped = true
			d.err = err
			for _, q := range d.queues {
				q.closed = true
				q.err = err
				q.cond.Broadcast()
			}
			d.mu.Unlock()
			return
		}
		if m.Type == rpc.MsgPeerDown {
			// Transport-level event, not query traffic: fan it out to every
			// active query and remember it for queries not yet registered.
			d.mu.Lock()
			d.deadPeers = append(d.deadPeers, m.Src)
			for _, q := range d.queues {
				q.pending = append(q.pending, rpc.Message{Src: m.Src, Dst: m.Dst, Type: rpc.MsgPeerDown})
				q.cond.Broadcast()
			}
			d.mu.Unlock()
			continue
		}
		d.mu.Lock()
		if d.released[m.Query] {
			d.mu.Unlock()
			// Retire the straggler: its sender's flow-control credit returns
			// and a pooled payload recycles, instead of leaking with the drop.
			m.Release()
			lateMsgs.Inc()
			continue
		}
		q := d.queue(m.Query)
		q.pending = append(q.pending, m)
		q.cond.Broadcast()
		d.mu.Unlock()
	}
}

// queue returns (creating if needed) the queue for a query id. Callers hold
// d.mu.
func (d *Dispatcher) queue(query int32) *dispatchQueue {
	q, ok := d.queues[query]
	if !ok {
		q = &dispatchQueue{cond: sync.NewCond(&d.mu)}
		if d.stopped {
			q.closed = true
			q.err = d.err
		}
		for _, peer := range d.deadPeers {
			q.pending = append(q.pending, rpc.Message{Src: peer, Dst: d.ep.Self(), Type: rpc.MsgPeerDown})
		}
		d.queues[query] = q
	}
	return q
}

// Endpoint returns the virtual endpoint for one query. Sends stamp the
// query id; receives see only this query's traffic. Call Release when the
// query finishes.
func (d *Dispatcher) Endpoint(query int32) rpc.Endpoint {
	d.mu.Lock()
	delete(d.released, query) // an explicit re-registration reopens the id
	d.queue(query)            // pre-create so early arrivals buffer
	d.mu.Unlock()
	return &queryEndpoint{d: d, query: query}
}

// Release drops a finished query's buffers: messages still pending are
// retired (credits back to their senders, pooled payloads recycled), and
// messages for the query that arrive later are dropped and counted in
// adr_dispatch_late_msgs_total rather than re-creating the queue.
func (d *Dispatcher) Release(query int32) {
	d.mu.Lock()
	var orphans []rpc.Message
	if q, ok := d.queues[query]; ok {
		q.closed = true
		orphans = q.pending
		q.pending = nil
		q.cond.Broadcast()
		delete(d.queues, query)
	}
	d.released[query] = true
	d.mu.Unlock()
	for i := range orphans {
		orphans[i].Release()
	}
}

// Close stops routing and closes the underlying endpoint.
func (d *Dispatcher) Close() error {
	d.cancel()
	err := d.ep.Close()
	<-d.done
	return err
}

// queryEndpoint is the per-query view of the node's endpoint.
type queryEndpoint struct {
	d     *Dispatcher
	query int32
}

func (e *queryEndpoint) Self() rpc.NodeID { return e.d.ep.Self() }
func (e *queryEndpoint) Nodes() int       { return e.d.ep.Nodes() }

// Send stamps the query id and forwards to the real endpoint.
func (e *queryEndpoint) Send(m rpc.Message) error {
	m.Query = e.query
	return e.d.ep.Send(m)
}

// Recv blocks for this query's next message. After Release it reports the
// endpoint closed instead of resurrecting the query's queue.
func (e *queryEndpoint) Recv(ctx context.Context) (rpc.Message, error) {
	d := e.d
	d.mu.Lock()
	if d.released[e.query] {
		d.mu.Unlock()
		return rpc.Message{}, rpc.ErrClosed
	}
	q := d.queue(e.query)

	// Wake the waiter if the context dies.
	stop := context.AfterFunc(ctx, func() {
		d.mu.Lock()
		q.cond.Broadcast()
		d.mu.Unlock()
	})
	defer stop()

	for {
		if len(q.pending) > 0 {
			m := q.pending[0]
			q.pending = q.pending[1:]
			d.mu.Unlock()
			return m, nil
		}
		if q.closed {
			err := q.err
			d.mu.Unlock()
			if err == nil {
				err = rpc.ErrClosed
			}
			return rpc.Message{}, err
		}
		if ctx.Err() != nil {
			d.mu.Unlock()
			return rpc.Message{}, ctx.Err()
		}
		q.cond.Wait()
	}
}

// Close releases this query's buffers (the underlying endpoint stays open
// for other queries).
func (e *queryEndpoint) Close() error {
	e.d.Release(e.query)
	return nil
}

var _ rpc.Endpoint = (*queryEndpoint)(nil)
