// Package rpc is ADR's interprocessor communication layer. The original ADR
// ran on an IBM SP with a message-passing runtime; this port replaces that
// with a small custom RPC/message layer (no MPI) used by the execution
// engine to exchange ghost accumulator chunks, forward input chunks, and run
// the barriers between query-execution phases.
//
// The layer has two transports with identical semantics — flow control,
// peer death and Recv are one shared core (core.go); a transport is only
// framing and delivery:
//
//   - inproc: every node is a goroutine group in one process; messages are
//     delivered over buffered channels. This is the transport the examples
//     and the in-process repository use.
//   - tcp: every node is a process reachable over TCP; messages are framed
//     with a fixed header. This is the transport behind cmd/adr-node.
//
// Semantics: messages between a pair of nodes are delivered in send order;
// sends are asynchronous (buffered) so the engine can overlap communication
// with disk I/O and processing, as the ADR query execution service does by
// design (§2.4: "ADR overlaps disk operations, network operations and
// processing as much as possible").
//
// Both transports record into the process-wide metrics registry: aggregate
// message/byte totals per direction and per-peer byte volume, labelled by
// transport (adr_rpc_sent_msgs_total{transport="tcp"}, ...). Handles are
// resolved once per fabric, so the per-message cost is one atomic add.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"time"

	"adr/internal/bufpool"
)

// NodeID identifies a back-end node (processor) in [0, NumNodes).
type NodeID int32

// MsgType distinguishes engine message kinds. The engine defines its own
// values; the transport only routes on Dst.
type MsgType uint8

// MsgPeerDown is the one MsgType the transport itself originates: a peer's
// death is delivered to each surviving endpoint, exactly once, as a
// synthetic inbound Message{Src: deadPeer, Type: MsgPeerDown}, and the
// endpoint stays up for the survivors. Sends to the dead peer fail fast with
// a *PeerError. Engines must treat the value as reserved; it is never put on
// the wire.
const MsgPeerDown MsgType = 0xFF

// Message is one unit of interprocessor communication: an opaque payload
// plus routing and demultiplexing metadata.
type Message struct {
	Src, Dst NodeID
	Type     MsgType
	// Query identifies which query's execution this message belongs to,
	// letting one mesh carry several concurrent queries (the query
	// execution service "manages all the resources in the system", §2.1 —
	// including multiplexing the interconnect).
	Query int32
	// Tile lets receivers demultiplex traffic per tile iteration.
	Tile int32
	// Seq is a sender-assigned sequence/identifier (chunk position, barrier
	// generation, ...), interpreted per Type.
	Seq int32
	// Payload is the message body (e.g. an encoded chunk). The transport
	// does not copy it; senders must not mutate it after Send.
	Payload []byte
	// Pooled marks Payload as recyclable through bufpool: whoever finishes
	// with the bytes may return them for reuse. It is never serialized; each
	// hop sets it only for buffers it allocated from the pool and owns
	// exclusively. The TCP transport sets it on inbound frames (each frame
	// body is a fresh pool buffer). For outbound messages carrying it, the
	// transport owns the payload from the moment Send is invoked — on every
	// path, success or error — and recycles it itself (once the frame is on
	// the wire, or when the send fails); callers must never touch the buffer
	// after Send. Buffers that may be shared — cache-resident chunk data —
	// must leave Pooled unset. Dropping a pooled buffer without recycling is
	// always memory-safe (the GC reclaims it) but shows up in the
	// adr_bufpool_outstanding balance; receivers retire inbound messages with
	// Release or ReleaseKeep instead of dropping them.
	Pooled bool
	// Urgent exempts the message from flow-control accounting: it is sent
	// even when the destination's credit window is exhausted and consumes no
	// credit. Reserved for small control traffic whose delivery must not
	// stall behind data — the engine's abort broadcast uses it so failure
	// propagation cannot deadlock against the very backpressure a failing
	// query caused.
	Urgent bool
	// OnStall, when set, is invoked by the transport's Send with the time it
	// spent blocked waiting for flow-control credit (only when it actually
	// stalled). The engine uses it to attribute credit stalls to the query's
	// NodeTrace. It is never serialized and runs on the sender's goroutine.
	OnStall func(stall time.Duration)
	// release, installed by the transport on flow-controlled inbound
	// messages, returns the payload's credit to the sender. Consumed (and
	// nil-ed) by Release/ReleaseKeep.
	release func()
}

// Release retires an inbound message: the payload's flow-control credit (if
// any) returns to the sender, and a pooled payload is recycled. Call it
// exactly once, after the last read of Payload — the engine's consumption
// paths, including drops (aborted queries, late messages, teardown drains),
// must all release, or the sender's window leaks and adr_bufpool_outstanding
// climbs. Calling Release on a zero or already-released Message is a no-op.
func (m *Message) Release() {
	if r := m.release; r != nil {
		m.release = nil
		r()
	}
	if m.Pooled {
		m.Pooled = false
		bufpool.Put(m.Payload)
	}
}

// ReleaseKeep returns the payload's flow-control credit but keeps the bytes
// alive, for receivers that retain data aliasing the payload (a decoded
// final-output chunk handed to a result callback). The buffer leaves the
// pool's outstanding balance (bufpool.Disown) and its ownership passes to
// the retainer and the GC; it must not be recycled afterwards.
func (m *Message) ReleaseKeep() {
	if r := m.release; r != nil {
		m.release = nil
		r()
	}
	if m.Pooled {
		m.Pooled = false
		bufpool.Disown(m.Payload)
	}
}

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("rpc: endpoint closed")

// PeerError reports failed communication with one specific peer: a broken or
// timed-out connection, a malformed frame, or an exhausted dial. It is the
// typed root of every failure caused by a dead or misbehaving peer; callers
// unwrap it with errors.As to learn which node failed. Once a transport
// reports a PeerError for a peer, that peer is dead for the life of the
// fabric — the mesh is static and there is no reconnect.
type PeerError struct {
	// Peer is the node whose connection failed.
	Peer NodeID
	// Op names the failing operation: "dial", "read", "write", "send" or
	// "frame" (a malformed header from the peer).
	Op string
	// Err is the underlying cause.
	Err error
}

// Error formats the failure.
func (e *PeerError) Error() string {
	return fmt.Sprintf("rpc: peer %d %s: %v", e.Peer, e.Op, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *PeerError) Unwrap() error { return e.Err }

// peerErr wraps cause in a PeerError unless it already carries one (so the
// failure chain names the peer exactly once).
func peerErr(peer NodeID, op string, cause error) error {
	var pe *PeerError
	if errors.As(cause, &pe) {
		return pe
	}
	return &PeerError{Peer: peer, Op: op, Err: cause}
}

// Endpoint is one node's connection to the communication fabric.
type Endpoint interface {
	// Self returns this endpoint's node id.
	Self() NodeID
	// Nodes returns the total number of nodes in the fabric.
	Nodes() int
	// Send enqueues a message to m.Dst. It is asynchronous: delivery order
	// is preserved per (src, dst) pair but Send returns before the receiver
	// consumes the message. Sending to self is allowed and loops back. On a
	// flow-controlled fabric, Send blocks while the destination's credit
	// window is exhausted, until receivers Release consumed payloads (Urgent
	// messages are exempt; m.OnStall observes the wait). A Pooled
	// payload is owned by the transport from the moment Send is invoked —
	// the transport recycles it on success and failure alike.
	Send(m Message) error
	// Recv blocks until a message arrives or the context is cancelled.
	Recv(ctx context.Context) (Message, error)
	// Close tears the endpoint down; blocked Recvs return ErrClosed.
	Close() error
}

// Fabric is a set of connected endpoints, one per node.
type Fabric interface {
	// Endpoint returns node id's endpoint.
	Endpoint(id NodeID) (Endpoint, error)
	// Close closes every endpoint.
	Close() error
}

// validate checks a message's routing fields against a fabric size.
func validate(m Message, nodes int) error {
	if m.Dst < 0 || int(m.Dst) >= nodes {
		return fmt.Errorf("rpc: destination %d out of range [0,%d)", m.Dst, nodes)
	}
	if m.Src < 0 || int(m.Src) >= nodes {
		return fmt.Errorf("rpc: source %d out of range [0,%d)", m.Src, nodes)
	}
	return nil
}
