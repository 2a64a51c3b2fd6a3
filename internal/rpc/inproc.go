package rpc

import "fmt"

// InprocFabric connects n nodes within one process. Each endpoint has one
// buffered inbox; Send never blocks for longer than the inbox has room,
// which models a bounded network buffer. Per-pair ordering follows from
// channel FIFO semantics because every (src,dst) pair uses a single channel.
//
// Flow control and failure handling are the shared core's (core.go), so they
// match the TCP transport byte for byte: with InprocOptions.Flow set, a
// non-Urgent payload charges the sender's per-destination window before
// delivery, and the credit returns when the receiver calls Message.Release —
// here directly on the sender's window, where TCP ships a credit frame. The
// shared semantics are what let the engine's serial-equivalence and
// backpressure tests run in-process and still exercise the exact blocking
// behaviour a TCP mesh exhibits.
//
// Closing one endpoint is that node's death: sends to it fail with a
// *PeerError, and every surviving endpoint takes it through core.peerDown
// exactly as a TCP node does for a broken connection. A fabric-wide Close is
// a shutdown, not a failure, and is not counted in the failure metrics.
type InprocFabric struct {
	endpoints []*inprocEndpoint
}

// inprocEndpoint is the shared core plus channel delivery: Send puts the
// message straight into the destination core's inbox.
type inprocEndpoint struct {
	*core
	fabric *InprocFabric
}

// defaultInboxDepth bounds the number of in-flight messages per receiving
// node. Deep enough that a tile's ghost exchange never deadlocks the
// pipelined engine, small enough to exert backpressure on runaway senders.
// (This is a message-count bound; the byte bound is the flow-control
// window.)
const defaultInboxDepth = 1024

// InprocOptions tunes an in-process fabric. The zero value matches the
// historical NewInprocFabric behaviour: default inbox depth, no flow
// control.
type InprocOptions struct {
	// InboxDepth bounds buffered inbound messages per endpoint (<= 0 selects
	// 1024).
	InboxDepth int
	// Flow bounds each sender's in-flight payload bytes (see Flow).
	Flow Flow
}

// NewInprocFabric builds a fabric of n in-process nodes. depth <= 0 selects
// 1024.
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
	f := &InprocFabric{}
	met := newMeters("inproc", n)
	for i := 0; i < n; i++ {
		f.endpoints = append(f.endpoints, &inprocEndpoint{
			core:   newCore(NodeID(i), n, opts.InboxDepth, opts.Flow, met),
			fabric: f,
		})
		met.up(NodeID(i))
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

// Close closes all endpoints. Every endpoint shuts before any inbox is
// drained: no survivor is left to see a peer die, so the shutdown stays out
// of the failure metrics and delivers no peer-down messages, and with every
// endpoint closed and all senders returned, anything that raced into an
// inbox during shutdown — including one an earlier per-endpoint Close
// already drained — is retired by this pass, so pooled buffers never outlive
// the fabric.
func (f *InprocFabric) Close() error {
	for _, ep := range f.endpoints {
		ep.shut()
	}
	for _, ep := range f.endpoints {
		ep.drain()
	}
	return nil
}

// FlowHighWater returns the largest in-flight byte total any single
// (sender, destination) credit window reached over the fabric's lifetime —
// the quantity the engine's flow test asserts stays within the configured
// window plus one frame. Zero without flow control.
func (f *InprocFabric) FlowHighWater() int64 {
	var peak int64
	for _, ep := range f.endpoints {
		for d := range ep.peers {
			if hw := ep.peers[d].gate.highWater(); hw > peak {
				peak = hw
			}
		}
	}
	return peak
}

// Send routes m to its destination's inbox, blocking if the inbox is full
// (backpressure) unless either side closes first. With flow control
// configured, a non-Urgent payload first charges the per-destination window,
// blocking until the receiver releases earlier payloads. Sending to a dead
// peer fails with a *PeerError (which unwraps to ErrClosed). A Pooled
// payload is owned by the transport on every path out of Send — on failure
// it is recycled here.
func (e *inprocEndpoint) Send(m Message) error {
	if err := e.admit(m); err != nil {
		return err
	}
	dst := e.fabric.endpoints[m.Dst]
	// Fast path: a dead peer fails immediately, before any credit charge.
	if e.closed() || dst.closed() {
		releasePooled(m)
		return e.sendErr(m.Dst)
	}
	charged, err := e.charge(m.Dst, &m)
	if err != nil {
		releasePooled(m)
		return err
	}
	// dm is the copy the receiver sees; on flow-controlled sends it carries
	// the release hook that returns this payload's credit.
	dm := m
	if charged > 0 {
		dm.release = func() { e.credited(dst.self, charged) }
	}
	if !dst.deliver(dm, e.done) {
		e.credited(m.Dst, charged)
		releasePooled(m)
		return e.sendErr(m.Dst)
	}
	e.met.sent(m.Dst, len(m.Payload))
	return nil
}

// Close closes this endpoint only; the fabric treats it as this node dying:
// every survivor's core takes the death, reclaiming its outstanding credit
// toward this node so nobody blocks on credit a dead node can never return.
func (e *inprocEndpoint) Close() error {
	if e.shut() {
		for _, ep := range e.fabric.endpoints {
			if ep != e {
				ep.peerDown(e.self, ErrClosed)
			}
		}
		e.drain()
	}
	return nil
}
