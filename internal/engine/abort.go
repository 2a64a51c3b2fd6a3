package engine

import (
	"errors"
	"fmt"

	"adr/internal/metrics"
	"adr/internal/rpc"
)

// AbortError reports that a peer node aborted the query and why. It is what
// a healthy node's RunNodeTraced returns when another node of the mesh failed
// mid-query (disk error, decode error, dead transport peer, result-sink
// failure) and broadcast msgAbort: the transport here is fine, the query is
// not. Callers unwrap it with errors.As to learn which node failed.
type AbortError struct {
	// Node is the node that failed and broadcast the abort.
	Node rpc.NodeID
	// Dead is the peer whose death made Node fail, or -1 when Node failed on
	// its own. An abort with a dead peer is retryable (IsRetryable).
	Dead rpc.NodeID
	// Reason is the failing node's error text.
	Reason string
}

// Error formats the abort.
func (e *AbortError) Error() string {
	return fmt.Sprintf("engine: query aborted by node %d: %s", e.Node, e.Reason)
}

// peerDownError is a node's failure when the transport reports a peer its
// plan did not exclude dead (rpc.MsgPeerDown): the query cannot complete
// without that peer's share.
type peerDownError struct {
	Node rpc.NodeID
}

func (e *peerDownError) Error() string {
	return fmt.Sprintf("engine: peer %d down", e.Node)
}

// DeadPeer returns the peer whose death err traces back to: a peer the
// transport reported dead to this node (a MsgPeerDown, or a send that failed
// with a *rpc.PeerError), or the dead peer an aborting node named.
func DeadPeer(err error) (rpc.NodeID, bool) {
	var ab *AbortError
	var pd *peerDownError
	var pe *rpc.PeerError
	switch {
	case errors.As(err, &ab):
		return ab.Dead, ab.Dead >= 0
	case errors.As(err, &pd):
		return pd.Node, true
	case errors.As(err, &pe):
		return pe.Peer, true
	}
	return -1, false
}

// IsRetryable reports whether a node error traces back to a peer's death
// (DeadPeer), as opposed to a fatal error — an abort for any other reason, a
// chunk with no surviving holder, an app, storage or deadline failure. The
// same query stands a chance on a fresh submission planned without the dead
// peer (Config.Exclude).
func IsRetryable(err error) bool {
	_, ok := DeadPeer(err)
	return ok
}

var engAborts = metrics.Default.Counter("adr_engine_aborts_sent_total")

// abortPeers broadcasts msgAbort so every peer stops waiting for this
// node's messages. Without it, a node that fails locally leaves the rest of
// the mesh blocked in mbox.take forever: the transport is healthy, the
// messages just never come. The abort carries the dead peer the cause traces
// back to (Seq, see msgAbort), so a survivor that hears of a death only
// through it still fails retryably. Aborts received from a peer are not
// re-broadcast (the failing node already told everyone), and sends are best
// effort — a peer that is itself dead cannot be told anything.
func (n *node) abortPeers(cause error) {
	var ae *AbortError
	if errors.As(cause, &ae) {
		return
	}
	engAborts.Inc()
	dead, _ := DeadPeer(cause)
	payload := []byte(fmt.Sprintf("node %d: %v", n.self, cause))
	for q := 0; q < n.ep.Nodes(); q++ {
		if rpc.NodeID(q) == n.self {
			continue
		}
		// Urgent: the abort must go out even when the destination's credit
		// window is exhausted — failure propagation cannot be allowed to
		// stall behind the very backpressure the failing query caused.
		n.ep.Send(rpc.Message{
			Src: n.self, Dst: rpc.NodeID(q), Type: msgAbort, Tile: -1, Seq: int32(dead) + 1,
			Payload: payload, Urgent: true,
		})
	}
}
