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
	// Reason is the failing node's error text.
	Reason string
}

// Error formats the abort.
func (e *AbortError) Error() string {
	return fmt.Sprintf("engine: query aborted by node %d: %s", e.Node, e.Reason)
}

var engAborts = metrics.Default.Counter("adr_engine_aborts_sent_total")

// abortPeers broadcasts msgAbort so every peer stops waiting for this
// node's messages. Without it, a node that fails locally leaves the rest of
// the mesh blocked in mbox.take forever: the transport is healthy, the
// messages just never come. Aborts received from a peer are not
// re-broadcast (the failing node already told everyone), and sends are best
// effort — a peer that is itself dead cannot be told anything.
func (n *node) abortPeers(cause error) {
	var ae *AbortError
	if errors.As(cause, &ae) {
		return
	}
	engAborts.Inc()
	payload := []byte(fmt.Sprintf("node %d: %v", n.self, cause))
	for q := 0; q < n.ep.Nodes(); q++ {
		if rpc.NodeID(q) == n.self {
			continue
		}
		// Urgent: the abort must go out even when the destination's credit
		// window is exhausted — failure propagation cannot be allowed to
		// stall behind the very backpressure the failing query caused.
		n.ep.Send(rpc.Message{
			Src: n.self, Dst: rpc.NodeID(q), Type: msgAbort, Tile: -1,
			Payload: payload, Urgent: true,
		})
	}
}
