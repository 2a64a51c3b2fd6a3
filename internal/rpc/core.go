package rpc

import (
	"context"
	"fmt"
	"sync"

	"adr/internal/bufpool"
)

// core is the flow-and-failure half of an endpoint, embedded by both
// transports: the per-destination credit gates, the inbox with its
// drain-first Recv, and the one peer-death path. A transport adds only
// framing and delivery — how a charged message reaches the destination's
// inbox, and how a consumed payload's credit travels back — so the exactly-
// once reclaim racing peer death and the MsgPeerDown delivery exist here and
// nowhere else.
type core struct {
	self NodeID
	met  *meters

	// inbox buffers delivered messages; done closes when the endpoint shuts.
	inbox    chan Message
	done     chan struct{}
	shutOnce sync.Once

	// peers[d] is this endpoint's view of node d (its own slot has no gate).
	peers []peerState
}

// peerState is one endpoint's view of one peer. dead is closed on the peer's
// death — or this endpoint's own shutdown, after which every peer is dead to
// it — with cause written first; once makes that transition, and the gate
// reclaim that rides on it, happen exactly once.
type peerState struct {
	// gate is the sender-side credit window toward the peer; nil when flow
	// control is off or the peer is this endpoint itself (loopback is
	// consumed by the sender's own engine, so a charge would be moot).
	gate  *flowWindow
	dead  chan struct{}
	once  sync.Once
	cause error
}

func newCore(self NodeID, nodes, inboxDepth int, flow Flow, met *meters) *core {
	if inboxDepth <= 0 {
		inboxDepth = defaultInboxDepth
	}
	c := &core{
		self:  self,
		met:   met,
		inbox: make(chan Message, inboxDepth),
		done:  make(chan struct{}),
		peers: make([]peerState, nodes),
	}
	for d := range c.peers {
		c.peers[d].dead = make(chan struct{})
		if NodeID(d) != self {
			c.peers[d].gate = newFlowWindow(flow.WindowBytes)
		}
	}
	return c
}

// Self returns this endpoint's node id.
func (c *core) Self() NodeID { return c.self }

// Nodes returns the fabric size.
func (c *core) Nodes() int { return len(c.peers) }

// closed reports whether this endpoint has shut.
func (c *core) closed() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// admit checks an outbound message's routing. The transport owns a Pooled
// payload from the moment Send is invoked, so a refused message is recycled
// here.
func (c *core) admit(m Message) error {
	err := validate(m, c.Nodes())
	if err == nil && m.Src != c.self {
		err = fmt.Errorf("rpc: node %d sending with src %d", c.self, m.Src)
	}
	if err != nil {
		releasePooled(m)
	}
	return err
}

// releasePooled recycles an outbound pooled payload that will never reach
// its receiver. The transport owns a Pooled payload from the moment Send is
// invoked, so every failure path out of Send must come through here.
func releasePooled(m Message) {
	if m.Pooled {
		bufpool.Put(m.Payload)
	}
}

// flowCharged reports whether m's payload is subject to flow-control
// accounting toward dst. charge uses it to take the credit and the TCP
// writer to stamp frameFlow so the receiver knows a credit is owed; both
// must agree, which is why the predicate is shared.
func (c *core) flowCharged(dst NodeID, m *Message) bool {
	return !m.Urgent && len(m.Payload) > 0 && c.peers[dst].gate != nil
}

// charge blocks until m's payload fits the window toward dst and returns the
// bytes it charged (0 for exempt traffic — without flow control this is a
// nil-gate no-op). m.OnStall observes the wait. The gate closes on the
// peer's death and on this endpoint's shutdown, so a blocked sender always
// wakes with the right failure instead of waiting on credit that cannot
// come.
func (c *core) charge(dst NodeID, m *Message) (int64, error) {
	if !c.flowCharged(dst, m) {
		return 0, nil
	}
	gate, n := c.peers[dst].gate, int64(len(m.Payload))
	stall, ok := gate.acquire(n)
	if !ok {
		return 0, c.sendErr(dst)
	}
	if stall > 0 {
		c.met.stall()
		if m.OnStall != nil {
			m.OnStall(stall)
		}
	}
	c.met.inflight(dst, n)
	c.met.peakInflight(gate.highWater())
	return n, nil
}

// credited hands back n bytes of credit the receiver released toward dst.
// The count may come off the wire, so the gate clamps it to what is actually
// charged; after dst's death the balance was reclaimed wholesale and a late
// release is a no-op.
func (c *core) credited(dst NodeID, n int64) {
	if got := c.peers[dst].gate.release(n); got > 0 {
		c.met.inflight(dst, -got)
	}
}

// sendErr names the failure of a send toward dst that a closed gate or a
// dead connection interrupted: this endpoint's own shutdown if that is what
// happened, otherwise the peer's death (a *PeerError carrying the recorded
// cause).
func (c *core) sendErr(dst NodeID) error {
	if c.closed() {
		return ErrClosed
	}
	cause := ErrClosed
	select {
	case <-c.peers[dst].dead:
		cause = c.peers[dst].cause
	default:
	}
	return peerErr(dst, "send", cause)
}

// markDown makes peer dead to this endpoint, once: the cause is recorded,
// blocked and future senders learn of it, and the gate closes — which wakes
// senders blocked on credit and reclaims the pair's whole charged balance
// (flowWindow.close), so nothing a later release or racing charge does can
// credit it twice. Reports whether this call made the transition.
func (c *core) markDown(peer NodeID, cause error) (first bool) {
	p := &c.peers[peer]
	p.once.Do(func() {
		first = true
		p.cause = cause
		close(p.dead)
		if held := p.gate.close(); held > 0 {
			c.met.inflight(peer, -held)
		}
	})
	return first
}

// peerDown is the one peer-death path. Beyond markDown it counts the failure
// and delivers a synthetic MsgPeerDown, exactly once per dead peer; the
// endpoint stays up for the survivors. A death noticed after this endpoint
// shut is the shutdown, not a failure: it is not counted and nothing is
// delivered.
func (c *core) peerDown(peer NodeID, cause error) {
	if c.closed() || !c.markDown(peer, cause) {
		return
	}
	c.met.down(peer)
	// On its own goroutine: failure handling must never block behind a full
	// inbox. The endpoint's shutdown abandons the delivery.
	go func() {
		select {
		case c.inbox <- Message{Src: peer, Dst: c.self, Type: MsgPeerDown}:
		case <-c.done:
		}
	}()
}

// deliver puts m into this endpoint's inbox, blocking while it is full
// (backpressure) until the endpoint shuts or stop closes; a nil stop never
// fires. This is the one place adr_rpc_recv_* is counted, on both
// transports: a message is received when it reaches the inbox, whether or
// not Recv ever hands it out. On false the caller still owns m. A shut
// endpoint is refused up front: its inbox may still have room, and select
// would otherwise pick between the ready cases at random.
func (c *core) deliver(m Message, stop <-chan struct{}) bool {
	if c.closed() {
		return false
	}
	select {
	case c.inbox <- m:
		c.met.recv(m.Src, len(m.Payload))
		return true
	case <-c.done:
	case <-stop:
	}
	return false
}

// Recv blocks for the next inbound message. Buffered messages are always
// drained first, so nothing that arrived before this endpoint's own shutdown
// is lost; after that it reports ErrClosed. A peer's death is one of the
// messages (MsgPeerDown), never a Recv error.
func (c *core) Recv(ctx context.Context) (Message, error) {
	select {
	case m := <-c.inbox:
		return m, nil
	default:
	}
	select {
	case m := <-c.inbox:
		return m, nil
	case <-c.done:
	case <-ctx.Done():
		return Message{}, ctx.Err()
	}
	select {
	case m := <-c.inbox:
		return m, nil
	default:
	}
	return Message{}, ErrClosed
}

// shut closes the endpoint, once: Recv reports ErrClosed, and every peer is
// dead to it from here on — its own senders blocked on credit wake (their
// credit could still return, we may only be shutting down, but a dying node
// must not sit in acquire forever) and the balances they held are reclaimed.
// Reports whether this call did the closing.
func (c *core) shut() (first bool) {
	c.shutOnce.Do(func() {
		first = true
		close(c.done)
		for peer := range c.peers {
			c.markDown(NodeID(peer), ErrClosed)
		}
	})
	return first
}

// drain retires whatever nobody will ever Recv: credits return to the
// senders (a no-op once their balances were reclaimed) and pooled payloads
// recycle, keeping the bufpool balance exact through failures.
func (c *core) drain() {
	for {
		select {
		case m := <-c.inbox:
			m.Release()
		default:
			return
		}
	}
}
