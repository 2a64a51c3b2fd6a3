package rpc

import (
	"context"
	"fmt"
	"sync"
)

// InprocFabric connects n nodes within one process. Each endpoint has one
// buffered inbox; Send never blocks for longer than the inbox has room,
// which models a bounded network buffer. Per-pair ordering follows from
// channel FIFO semantics because every (src,dst) pair uses a single channel.
//
// Flow control mirrors the TCP transport byte for byte: with
// InprocOptions.Flow set, a non-Urgent payload
// charges the sender's per-destination window and node budget before
// delivery, and the credit returns when the receiver calls Message.Release
// — here directly on the sender's windows, where TCP ships a credit frame.
// The shared semantics are what let the engine's serial-equivalence and
// backpressure tests run in-process and still exercise the exact blocking
// behaviour a TCP mesh exhibits.
//
// Failure semantics mirror the TCP transport so engine failure paths are
// testable in-process: closing one endpoint is that node's death. Sends to
// it fail with a *PeerError, every surviving endpoint's Recv reports the
// peer failure once its buffered messages are drained, and each surviving
// sender's outstanding credit toward the dead peer is reclaimed so nobody
// blocks on credit a dead node can never return. A fabric-wide Close is a
// shutdown, not a failure, and is not counted in the failure metrics.
type InprocFabric struct {
	mu        sync.Mutex
	endpoints []*inprocEndpoint
	closed    bool
	degraded  bool
	met       *meters
}

type inprocEndpoint struct {
	fabric *InprocFabric
	id     NodeID
	inbox  chan Message
	done   chan struct{}
	once   sync.Once

	// Flow control: wins[d] is the sender-side credit window toward node d
	// (nil when per-peer windows are off or d is self), budget the
	// endpoint's node-wide forwarding cap, flow[d] the charged-byte balance
	// toward d with its reclaim guard.
	wins   []*flowWindow
	budget *flowWindow
	flow   []*pairFlow

	// peerFail is closed when any peer endpoint dies; failErr records the
	// first failure.
	peerFail chan struct{}
	failOnce sync.Once
	failMu   sync.Mutex
	failErr  error
}

// pairFlow is one (sender, destination) pair's charged-byte balance.
// reclaimed flips exactly once — when the destination dies — after which
// late releases are no-ops, so the budget is never double-credited.
type pairFlow struct {
	mu        sync.Mutex
	charged   int64
	reclaimed bool
}

// DefaultInboxDepth bounds the number of in-flight messages per receiving
// node. Deep enough that a tile's ghost exchange never deadlocks the
// pipelined engine, small enough to exert backpressure on runaway senders.
// (This is a message-count bound; the byte bound is the flow-control
// window.)
const DefaultInboxDepth = 1024

// InprocOptions tunes an in-process fabric. The zero value matches the
// historical NewInprocFabric behaviour: default inbox depth, no flow
// control.
type InprocOptions struct {
	// InboxDepth bounds buffered inbound messages per endpoint (<= 0 selects
	// DefaultInboxDepth).
	InboxDepth int
	// Flow bounds each sender's in-flight payload bytes (see Flow).
	Flow Flow
	// Degraded selects the degraded failure model, mirroring
	// TCPOptions.Degraded: a peer's death no longer fails surviving
	// endpoints' Recv. Each survivor instead receives a synthetic
	// Message{Src: deadPeer, Type: MsgPeerDown}, once per dead peer, and
	// keeps exchanging traffic with the rest of the fabric. Sends to the
	// dead peer still fail fast with a *PeerError.
	Degraded bool
}

// NewInprocFabric builds a fabric of n in-process nodes. depth <= 0 selects
// DefaultInboxDepth.
func NewInprocFabric(n, depth int) (*InprocFabric, error) {
	return NewInprocFabricOpts(n, InprocOptions{InboxDepth: depth})
}

// NewInprocFabricOpts is NewInprocFabric with full options, including the
// byte-accounted flow control both transports share.
func NewInprocFabricOpts(n int, opts InprocOptions) (*InprocFabric, error) {
	if n < 1 {
		return nil, fmt.Errorf("rpc: fabric needs at least 1 node, got %d", n)
	}
	if err := opts.Flow.Validate(); err != nil {
		return nil, err
	}
	depth := opts.InboxDepth
	if depth <= 0 {
		depth = DefaultInboxDepth
	}
	f := &InprocFabric{met: newMeters("inproc", n), degraded: opts.Degraded}
	for i := 0; i < n; i++ {
		ep := &inprocEndpoint{
			fabric:   f,
			id:       NodeID(i),
			inbox:    make(chan Message, depth),
			done:     make(chan struct{}),
			peerFail: make(chan struct{}),
			budget:   newFlowWindow(opts.Flow.BudgetBytes),
			wins:     make([]*flowWindow, n),
			flow:     make([]*pairFlow, n),
		}
		for d := 0; d < n; d++ {
			ep.flow[d] = &pairFlow{}
			if d != i {
				ep.wins[d] = newFlowWindow(opts.Flow.WindowBytes)
			}
		}
		f.endpoints = append(f.endpoints, ep)
		f.met.up(NodeID(i))
	}
	return f, nil
}

// Endpoint returns node id's endpoint.
func (f *InprocFabric) Endpoint(id NodeID) (Endpoint, error) {
	if id < 0 || int(id) >= len(f.endpoints) {
		return nil, fmt.Errorf("rpc: no endpoint %d in %d-node fabric", id, len(f.endpoints))
	}
	return f.endpoints[id], nil
}

// Close closes all endpoints.
func (f *InprocFabric) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	for _, ep := range f.endpoints {
		ep.close()
	}
	// Second drain pass: with every endpoint closed and all senders
	// returned, anything that raced into an inbox during shutdown is
	// retired here, so pooled buffers never outlive the fabric.
	for _, ep := range f.endpoints {
		ep.drainInbox()
	}
	return nil
}

// FlowHighWater returns the largest in-flight byte total any single
// (sender, destination) credit window reached over the fabric's lifetime —
// the quantity the backpressure benchmark asserts stays within the
// configured window (± one oversized frame). Zero without flow control.
func (f *InprocFabric) FlowHighWater() int64 {
	var peak int64
	for _, ep := range f.endpoints {
		for _, w := range ep.wins {
			if hw := w.highWater(); hw > peak {
				peak = hw
			}
		}
	}
	return peak
}

// notifyPeerDown marks every surviving endpoint failed because peer id
// died, and reclaims each survivor's outstanding credit toward it. On a
// degraded fabric survivors stay up and get a synthetic MsgPeerDown in
// their inbox instead. During a fabric-wide Close this is a shutdown, not a
// failure, and stays out of the metrics (and delivers no peer-down
// messages).
func (f *InprocFabric) notifyPeerDown(id NodeID) {
	f.mu.Lock()
	shutdown := f.closed
	f.mu.Unlock()
	if !shutdown {
		f.met.down(id)
	}
	for _, ep := range f.endpoints {
		if ep.id == id {
			continue
		}
		ep.reclaimFlow(id)
		if f.degraded {
			if !shutdown {
				ep.notifyDown(id)
			}
			continue
		}
		ep.failPeer(&PeerError{Peer: id, Op: "recv", Err: ErrClosed})
	}
}

// notifyDown delivers the degraded-mode synthetic peer-down message into
// this endpoint's inbox on its own goroutine (a full inbox must not block
// the dying peer's close path); the endpoint's own shutdown abandons it.
func (e *inprocEndpoint) notifyDown(peer NodeID) {
	go func() {
		select {
		case e.inbox <- Message{Src: peer, Dst: e.id, Type: MsgPeerDown}:
		case <-e.done:
		}
	}()
}

// reclaimFlow tears down this sender's flow state toward a dead peer: the
// window closes (blocked senders wake with the failure) and the charged
// balance returns to the budget exactly once.
func (e *inprocEndpoint) reclaimFlow(peer NodeID) {
	fl := e.flow[peer]
	fl.mu.Lock()
	charged := fl.charged
	fl.charged = 0
	fl.reclaimed = true
	fl.mu.Unlock()
	e.wins[peer].close()
	if charged > 0 {
		e.budget.release(charged)
		e.fabric.met.inflight(peer, -charged)
	}
}

// returnCredit hands back credit a receiver released for one delivered
// payload. After the destination's death the balance was reclaimed
// wholesale, so late releases are no-ops; grants are clamped to what is
// actually charged.
func (e *inprocEndpoint) returnCredit(dst NodeID, n int64) {
	if n <= 0 {
		return
	}
	fl := e.flow[dst]
	fl.mu.Lock()
	if fl.reclaimed {
		fl.mu.Unlock()
		return
	}
	if n > fl.charged {
		n = fl.charged
	}
	fl.charged -= n
	fl.mu.Unlock()
	if n > 0 {
		e.wins[dst].release(n)
		e.budget.release(n)
		e.fabric.met.inflight(dst, -n)
	}
}

// failPeer records the first peer failure and wakes blocked receivers.
func (e *inprocEndpoint) failPeer(err error) {
	e.failOnce.Do(func() {
		e.failMu.Lock()
		e.failErr = err
		e.failMu.Unlock()
		close(e.peerFail)
	})
}

// failure returns the first peer failure observed, or nil.
func (e *inprocEndpoint) failure() error {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.failErr
}

func (e *inprocEndpoint) Self() NodeID { return e.id }
func (e *inprocEndpoint) Nodes() int   { return len(e.fabric.endpoints) }

// Send routes m to its destination's inbox, blocking if the inbox is full
// (backpressure) unless either side closes first. With flow control
// configured, a non-Urgent payload additionally charges the
// per-destination window and this node's budget before delivery, blocking
// until the receiver releases earlier payloads; m.OnStall observes the
// wait. Sending to a dead peer fails with a *PeerError (which unwraps to
// ErrClosed). A Pooled payload is owned by the transport on every path out
// of Send — on failure it is recycled here.
func (e *inprocEndpoint) Send(m Message) error {
	if err := Validate(m, e.Nodes()); err != nil {
		releasePooled(m)
		return err
	}
	if m.Src != e.id {
		releasePooled(m)
		return fmt.Errorf("rpc: endpoint %d sending with src %d", e.id, m.Src)
	}
	dst := e.fabric.endpoints[m.Dst]
	select {
	case <-e.done:
		releasePooled(m)
		return ErrClosed
	default:
	}
	// Checked before the delivery select: a dead destination's inbox may
	// still have room, and select would otherwise pick between the two ready
	// cases at random.
	select {
	case <-dst.done:
		releasePooled(m)
		return &PeerError{Peer: m.Dst, Op: "send", Err: ErrClosed}
	default:
	}
	// dm is the copy the receiver sees; on flow-controlled sends it carries
	// the release hook that returns this payload's credit.
	dm := m
	var charge int64
	if !m.Urgent && len(m.Payload) > 0 && m.Dst != e.id &&
		(e.wins[m.Dst] != nil || e.budget != nil) {
		charge = int64(len(m.Payload))
		if err := e.chargeFlow(dst, &m, charge); err != nil {
			releasePooled(m)
			return err
		}
		dstID, owed := m.Dst, charge
		dm.release = func() { e.returnCredit(dstID, owed) }
	}
	select {
	case dst.inbox <- dm:
		e.fabric.met.sent(m.Dst, len(m.Payload))
		return nil
	case <-dst.done:
		e.returnCredit(m.Dst, charge)
		releasePooled(m)
		return &PeerError{Peer: m.Dst, Op: "send", Err: ErrClosed}
	case <-e.done:
		e.returnCredit(m.Dst, charge)
		releasePooled(m)
		return ErrClosed
	}
}

// chargeFlow blocks until charge bytes fit the window toward dst and the
// endpoint's budget, then records them on the pair balance. Windows close
// on peer death and on this endpoint's own shutdown, so a blocked sender
// always wakes with the right failure.
func (e *inprocEndpoint) chargeFlow(dst *inprocEndpoint, m *Message, charge int64) error {
	win := e.wins[m.Dst]
	stallW, ok := win.acquire(charge)
	if !ok {
		return e.sendFailure(dst, m.Dst)
	}
	stallB, ok := e.budget.acquire(charge)
	if !ok {
		win.release(charge)
		return e.sendFailure(dst, m.Dst)
	}
	if stall := stallW + stallB; stall > 0 {
		e.fabric.met.stall()
		if m.OnStall != nil {
			m.OnStall(stall)
		}
	}
	fl := e.flow[m.Dst]
	fl.mu.Lock()
	if fl.reclaimed {
		// Destination died between the gate and the charge; its balance was
		// reclaimed already, so hand the budget credit straight back.
		fl.mu.Unlock()
		e.budget.release(charge)
		return &PeerError{Peer: m.Dst, Op: "send", Err: ErrClosed}
	}
	fl.charged += charge
	fl.mu.Unlock()
	e.fabric.met.inflight(m.Dst, charge)
	e.fabric.met.peakInflight(win.highWater())
	return nil
}

// sendFailure names the right error for a send interrupted by a closed
// flow gate: the destination's death if that is what closed it, otherwise
// this endpoint's own shutdown.
func (e *inprocEndpoint) sendFailure(dst *inprocEndpoint, id NodeID) error {
	select {
	case <-dst.done:
		return &PeerError{Peer: id, Op: "send", Err: ErrClosed}
	default:
		return ErrClosed
	}
}

// Recv blocks for the next message. Buffered messages are always drained
// first; after that, a dead peer anywhere in the fabric surfaces as a
// *PeerError, exactly as on the TCP transport.
func (e *inprocEndpoint) Recv(ctx context.Context) (Message, error) {
	select {
	case m := <-e.inbox:
		e.fabric.met.recv(m.Src, len(m.Payload))
		return m, nil
	default:
	}
	// Own shutdown wins over a concurrent peer-failure notification (a
	// fabric-wide Close triggers both): a closed endpoint reports ErrClosed,
	// not a peer failure.
	select {
	case <-e.done:
		return Message{}, ErrClosed
	default:
	}
	select {
	case m := <-e.inbox:
		e.fabric.met.recv(m.Src, len(m.Payload))
		return m, nil
	case <-e.done:
		// Drain anything that raced with close so no message is lost.
		select {
		case m := <-e.inbox:
			e.fabric.met.recv(m.Src, len(m.Payload))
			return m, nil
		default:
		}
		return Message{}, ErrClosed
	case <-e.peerFail:
		select {
		case m := <-e.inbox:
			e.fabric.met.recv(m.Src, len(m.Payload))
			return m, nil
		default:
		}
		return Message{}, e.failure()
	case <-ctx.Done():
		return Message{}, ctx.Err()
	}
}

// drainInbox retires whatever nobody will ever Recv: credits return to the
// senders (a no-op once their balances were reclaimed) and pooled payloads
// recycle, keeping the bufpool balance exact through failures.
func (e *inprocEndpoint) drainInbox() {
	for {
		select {
		case m := <-e.inbox:
			m.Release()
		default:
			return
		}
	}
}

func (e *inprocEndpoint) close() {
	e.once.Do(func() {
		close(e.done)
		// Wake this endpoint's own senders blocked on credit toward any
		// peer: their credit can still return (we may only be shutting
		// down), but a dying node must not sit in acquire forever.
		e.budget.close()
		for _, w := range e.wins {
			w.close()
		}
		e.fabric.notifyPeerDown(e.id)
		e.drainInbox()
	})
}

// Close closes this endpoint only; the fabric treats it as this node dying.
func (e *inprocEndpoint) Close() error {
	e.close()
	return nil
}
