package engine

import (
	"context"
	"slices"
	"sync"
	"time"

	"adr/internal/metrics"
	"adr/internal/rpc"
)

// Dispatcher multiplexes one back-end node's mesh endpoint across multiple
// concurrently executing queries, and is the one owner of their inbound
// messages: outbound messages are stamped with their query id, and the
// routing loop puts each inbound message straight into the mailbox of the
// query it names — the queue a node run takes from. This is the piece of the
// query execution service that lets ADR "manage all the resources in the
// system" (§2.1) when the front-end has several client queries in flight —
// without it, two queries' ghost chunks and forwarded inputs would interleave
// on the wire and corrupt each other's phase accounting.
//
// Its state is bounded. A mailbox lives from its query's first arrival or
// Endpoint call to Release; one that no Endpoint call claims within
// inboundLifetime of the arrival that created it (the request never reached
// this node) is retired and its messages counted late. Release leaves a
// tombstone, so stragglers are dropped rather than buffered; a tombstone
// older than inboundLifetime is forgotten. Both are swept lazily from
// Endpoint and Release, at most once per inboundLifetime/2, so the tombstone
// set never holds more than the queries released in the last
// 1.5 × inboundLifetime.
type Dispatcher struct {
	ep  rpc.Endpoint
	now func() time.Time // time.Now; tests inject a clock

	mu    sync.Mutex
	boxes map[int32]*mailbox
	// marks dates the ids that expire: for an id with a box, when an early
	// arrival created it — no Endpoint call has claimed it yet — and for an
	// id without one, when it was released (its tombstone). A claimed box
	// has no mark.
	marks map[int32]time.Time
	swept time.Time
	// dead remembers every peer the transport reported dead (rpc.MsgPeerDown
	// arrives once per peer, but every later query needs to know), and runs
	// holds, for each query whose node run has begun (watch), the peers its
	// plan excludes: a death fails a running query unless its plan excludes
	// the peer.
	dead []rpc.NodeID
	runs map[int32][]rpc.NodeID
	// err is why the routing loop ended; boxes created afterwards are born
	// failed with it.
	err    error
	cancel context.CancelFunc
	done   chan struct{}
}

// inboundLifetime is how long a tombstone and an unclaimed box live. It only
// has to outlast a finished query's stragglers, which the peers' own query
// deadline bounds (30 s on the back-end); a request arriving
// after it merely finds its early messages gone.
const inboundLifetime = 2 * time.Minute

// lateMsgs counts inbound messages dropped because this node is not running
// their query: it finished, was refused, or was never submitted here.
var lateMsgs = metrics.Default.Counter("adr_dispatch_late_msgs_total")

// NewDispatcher wraps an endpoint and starts the routing loop.
func NewDispatcher(ep rpc.Endpoint) *Dispatcher {
	ctx, cancel := context.WithCancel(context.Background())
	d := &Dispatcher{
		ep:     ep,
		now:    time.Now,
		boxes:  make(map[int32]*mailbox),
		marks:  make(map[int32]time.Time),
		runs:   make(map[int32][]rpc.NodeID),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	go d.run(ctx)
	return d
}

// run is the one goroutine between the endpoint's Recv and a node's take.
func (d *Dispatcher) run(ctx context.Context) {
	defer close(d.done)
	for {
		m, err := d.ep.Recv(ctx)
		d.mu.Lock()
		if err != nil {
			d.err = err
			for _, b := range d.boxes {
				b.fail(err)
			}
			d.mu.Unlock()
			return
		}
		if m.Type == rpc.MsgPeerDown {
			// Transport-level event, not query traffic: it fails every running
			// query that needs the peer, and watch checks later ones.
			d.dead = append(d.dead, m.Src)
			for id, excluded := range d.runs {
				if b := d.boxes[id]; b != nil && !slices.Contains(excluded, m.Src) {
					b.fail(&peerDownError{Node: m.Src})
				}
			}
			d.mu.Unlock()
			continue
		}
		b := d.boxes[m.Query]
		if b == nil {
			if _, tomb := d.marks[m.Query]; !tomb {
				b = d.box(m.Query) // an early arrival: it waits to be claimed
				d.marks[m.Query] = d.now()
			}
		}
		d.mu.Unlock()
		if b == nil {
			// Retire the straggler: its sender's flow-control credit returns
			// and a pooled payload recycles, instead of leaking with the drop.
			m.Release()
			lateMsgs.Inc()
			continue
		}
		b.put(m) // a box released since the lookup drops and counts it
	}
}

// box returns (creating if needed) the mailbox for a query id. Callers hold
// d.mu.
func (d *Dispatcher) box(query int32) *mailbox {
	b, ok := d.boxes[query]
	if !ok {
		b = newMailbox()
		if d.err != nil {
			b.fail(d.err)
		}
		d.boxes[query] = b
	}
	return b
}

// sweep forgets expired tombstones and returns the unclaimed boxes whose
// lifetime is over, for the caller to retire once it has dropped d.mu.
func (d *Dispatcher) sweep(now time.Time) (expired []*mailbox) {
	if now.Sub(d.swept) < inboundLifetime/2 {
		return nil
	}
	d.swept = now
	for id, at := range d.marks {
		if now.Sub(at) > inboundLifetime {
			if b, ok := d.boxes[id]; ok {
				expired = append(expired, b)
				delete(d.boxes, id)
			}
			delete(d.marks, id)
		}
	}
	return expired
}

func retireLate(expired []*mailbox) {
	for _, b := range expired {
		lateMsgs.Add(int64(b.retire()))
	}
}

// Endpoint returns one query's view of the mesh and claims its mailbox,
// early arrivals included. Sends stamp the query id; a node run on the view
// (RunNodeTraced) takes the query's inbound messages from that mailbox. Call
// Release when the query finishes — or will not run. Registering a released
// id again (a retry reusing it) reopens it.
func (d *Dispatcher) Endpoint(query int32) *QueryEndpoint {
	d.mu.Lock()
	expired := d.sweep(d.now())
	delete(d.marks, query)
	b := d.box(query)
	d.mu.Unlock()
	retireLate(expired)
	return &QueryEndpoint{d: d, query: query, mbox: b}
}

// Release ends a query on this node: blocked takers fail, messages still
// pending are retired (credits back to their senders, pooled payloads
// recycled), and messages for the query that arrive later are dropped and
// counted in adr_dispatch_late_msgs_total rather than buffered again.
func (d *Dispatcher) Release(query int32) {
	d.mu.Lock()
	now := d.now()
	expired := d.sweep(now)
	b := d.boxes[query]
	delete(d.boxes, query)
	delete(d.runs, query)
	d.marks[query] = now
	d.mu.Unlock()
	if b != nil {
		b.retire()
	}
	retireLate(expired)
}

// stop ends the routing loop and retires every mailbox; the endpoint stays
// open. Boxes asked for afterwards are born failed.
func (d *Dispatcher) stop() {
	d.cancel()
	<-d.done
	d.mu.Lock()
	boxes := d.boxes
	d.boxes = make(map[int32]*mailbox)
	d.mu.Unlock()
	for _, b := range boxes {
		b.retire()
	}
}

// Close stops routing and closes the underlying endpoint.
func (d *Dispatcher) Close() error {
	err := d.ep.Close()
	d.stop()
	return err
}

// QueryEndpoint is one query's view of a node's mesh endpoint, from
// Dispatcher.Endpoint: what it sends carries the query id, and what the mesh
// sends the query waits in its mailbox.
type QueryEndpoint struct {
	d     *Dispatcher
	query int32
	mbox  *mailbox
}

// Self and Nodes describe the node's endpoint.
func (e *QueryEndpoint) Self() rpc.NodeID { return e.d.ep.Self() }
func (e *QueryEndpoint) Nodes() int       { return e.d.ep.Nodes() }

// watch begins the query's node run on this view: from here on a peer's
// death fails it unless excluded lists the peer, and a peer already dead
// that excluded leaves out is that failure now.
func (e *QueryEndpoint) watch(excluded []rpc.NodeID) error {
	d := e.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.boxes[e.query]; ok {
		d.runs[e.query] = excluded
	}
	for _, peer := range d.dead {
		if !slices.Contains(excluded, peer) {
			return &peerDownError{Node: peer}
		}
	}
	return nil
}

// Send stamps the query id and forwards to the real endpoint.
func (e *QueryEndpoint) Send(m rpc.Message) error {
	m.Query = e.query
	return e.d.ep.Send(m)
}
