package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"adr/internal/chunk"
	"adr/internal/metrics"
	"adr/internal/rpc"
)

// Degraded-mode execution: when a back-end node dies mid-query on a
// replicated layout, the survivors re-plan the dead node's chunks onto their
// surviving replica holders and retry, instead of aborting the query
// mesh-wide (the PR 2 failure model, which remains the fallback when a chunk
// has no surviving copy).
//
// The retry protocol is built from three pieces, all layered on the
// transport's synthetic rpc.MsgPeerDown delivery:
//
//   - Fence round: a node entering attempt k broadcasts msgDegradeFence
//     {Seq: k, Payload: its dead set} to the peers it believes live and
//     waits for their attempt-k fences. Fence payloads union into every
//     receiver's dead set, so all nodes that complete the round re-plan
//     against the same exclusion set; a fence ahead of a node's current
//     attempt fails that attempt, pulling stragglers onto the newest one.
//
//   - Done barrier: after its last tile a node broadcasts msgDegradeDone
//     {Seq: k} and waits for every live peer's done. Client-visible results
//     are buffered per attempt and only delivered after the barrier — a late
//     failure rolls the whole mesh (including nodes that already finished
//     their tiles) onto a new attempt without duplicating output.
//
//   - Re-plan: Config.Replan rebuilds plan and workload with the dead nodes
//     excluded (plan.Degrade remaps chunk metas onto surviving holders). A
//     *plan.NoHolderError — some chunk's every copy is gone — is fatal and
//     falls back to the mesh-wide abort.
//
// A node death concurrent with query completion can still fail the query (a
// finisher may leave before a late faller's fence reaches it); the protocol
// guarantees no wrong or duplicated results, not completion under every
// timing.

// peerDownError is the attempt-level failure injected when the transport
// reports a peer dead. It is retryable: the degraded driver re-plans around
// the peer.
type peerDownError struct {
	Node rpc.NodeID
}

func (e *peerDownError) Error() string {
	return fmt.Sprintf("engine: peer %d down", e.Node)
}

// fenceAheadError is the attempt-level failure injected when a peer fences
// an attempt ahead of this node's current one: the mesh has moved on and
// this node must join the newer attempt.
type fenceAheadError struct {
	Node    rpc.NodeID
	Attempt int32
}

func (e *fenceAheadError) Error() string {
	return fmt.Sprintf("engine: peer %d fenced attempt %d ahead of this node", e.Node, e.Attempt)
}

// IsRetryable reports whether a node error is an attempt-level degraded-mode
// failure (a peer died, or a peer fenced ahead) that the engine retries by
// re-planning, as opposed to a fatal error — an abort, a chunk with no
// surviving holder, an app, storage or deadline failure. Front-ends use it to
// classify whole-query failures: a retryable root means the same query stands
// a chance on a fresh submission.
func IsRetryable(err error) bool {
	var ab *AbortError
	if errors.As(err, &ab) {
		return false
	}
	var pd *peerDownError
	var fa *fenceAheadError
	var pe *rpc.PeerError
	return errors.As(err, &pd) || errors.As(err, &fa) || errors.As(err, &pe)
}

// encodeDeadSet serializes a dead set for a fence payload (4 bytes per node
// id, little endian); decodeDeadSet inverts it.
func encodeDeadSet(ids []rpc.NodeID) []byte {
	buf := make([]byte, 4*len(ids))
	for i, id := range ids {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(id))
	}
	return buf
}

func decodeDeadSet(p []byte) []rpc.NodeID {
	out := make([]rpc.NodeID, 0, len(p)/4)
	for i := 0; i+4 <= len(p); i += 4 {
		out = append(out, rpc.NodeID(binary.LittleEndian.Uint32(p[i:])))
	}
	return out
}

// bufferedResult is one OnResult delivery held back until the attempt's done
// barrier commits it.
type bufferedResult struct {
	node rpc.NodeID
	c    *chunk.Chunk
}

var engDegradedRuns = metrics.Default.Counter("adr_engine_degraded_runs_total")

// runDegraded is the degraded-mode attempt loop wrapped around the tile
// loop: run an attempt, and on a retryable failure fence the mesh, re-plan
// around the dead, and try again.
func (n *node) runDegraded(ctx context.Context) error {
	// Hold client-visible results back until an attempt commits; a failed
	// attempt's buffer is discarded, so retries cannot deliver duplicates.
	userOnResult := n.cfg.OnResult
	var bufMu sync.Mutex
	var buffered []bufferedResult
	if userOnResult != nil {
		n.cfg.OnResult = func(id rpc.NodeID, c *chunk.Chunk) error {
			bufMu.Lock()
			buffered = append(buffered, bufferedResult{node: id, c: c})
			bufMu.Unlock()
			return nil
		}
	}

	// Attempts are capped, the first included, at enough for every peer to
	// die once.
	maxAttempts := n.ep.Nodes() + 1
	attempt := int32(0)
	for tries := 1; ; tries++ {
		n.attempts = tries
		bufMu.Lock()
		buffered = buffered[:0]
		bufMu.Unlock()

		err := n.runAttempt(ctx, attempt)
		if err == nil {
			if len(n.excluded) > 0 {
				engDegradedRuns.Inc()
			}
			if userOnResult != nil {
				bufMu.Lock()
				out := buffered
				buffered = nil
				bufMu.Unlock()
				for _, r := range out {
					if cerr := userOnResult(r.node, r.c); cerr != nil {
						return cerr
					}
				}
			}
			return nil
		}
		if !IsRetryable(err) {
			n.abortPeers(err)
			return err
		}
		// A send that failed with a PeerError saw the death before the
		// transport's notification reached the mailbox; record it so the next
		// fence carries it.
		var pe *rpc.PeerError
		if errors.As(err, &pe) {
			n.ep.mbox.noteDead(pe.Peer)
		}
		if tries >= maxAttempts {
			err = fmt.Errorf("engine: node %d: degraded retries exhausted after %d attempts: %w", n.self, tries, err)
			n.abortPeers(err)
			return err
		}
		attempt = n.ep.mbox.beginAttempt(attempt + 1)
	}
}

// runAttempt executes one full degraded attempt: the fence round and re-plan
// (for retries), the tile loop, and the done barrier.
func (n *node) runAttempt(ctx context.Context, attempt int32) error {
	if attempt > 0 {
		if err := n.fenceRound(ctx, attempt); err != nil {
			return err
		}
	} else if dead := n.ep.mbox.deadSet(); len(dead) > 0 {
		// Deaths already on record before the first tile — the peer died
		// during an earlier query on this fabric and the dispatcher replayed
		// its MsgPeerDown. Skip straight to a fenced, re-planned attempt.
		return &peerDownError{Node: dead[0]}
	}
	if err := n.runTiles(ctx); err != nil {
		return err
	}
	return n.doneBarrier(ctx, attempt)
}

// livePeers returns every peer not recorded dead, plus the dead set it was
// computed against.
func (n *node) livePeers() (live []rpc.NodeID, dead []rpc.NodeID) {
	dead = n.ep.mbox.deadSet()
	deadMap := make(map[rpc.NodeID]bool, len(dead))
	for _, id := range dead {
		deadMap[id] = true
	}
	for q := 0; q < n.ep.Nodes(); q++ {
		id := rpc.NodeID(q)
		if id == n.self || deadMap[id] {
			continue
		}
		live = append(live, id)
	}
	return live, dead
}

// fenceRound opens attempt k across the mesh: broadcast this node's dead set
// to every live peer, collect theirs, and re-plan against the union. The
// wait doubles as the barrier that keeps new-attempt data out of peers'
// mailboxes until they have rolled over.
func (n *node) fenceRound(ctx context.Context, attempt int32) error {
	live, dead := n.livePeers()
	payload := encodeDeadSet(dead)
	for _, id := range live {
		if err := n.ep.Send(rpc.Message{
			Src: n.self, Dst: id, Type: msgDegradeFence, Tile: -1, Seq: attempt,
			Payload: payload, Urgent: true,
		}); err != nil {
			return err
		}
	}
	if err := n.ep.mbox.waitSeen(ctx, attempt, live, n.ep.mbox.fenceSeen); err != nil {
		return err
	}
	// Every node that completes the wait uninterrupted unions the same fence
	// payloads, so the exclusion set — and the plan derived from it — agrees
	// across the mesh. Any death learned after a node's own fence went out
	// fails its attempt instead, forcing a fresh round.
	excluded := n.ep.mbox.deadSet()
	p, w, err := n.cfg.Replan(excluded)
	if err != nil {
		return err
	}
	n.cfg.Plan, n.cfg.Workload = p, w
	n.excluded = excluded
	n.prepare()
	return nil
}

// doneBarrier announces completion of the attempt and waits for every live
// peer's announcement, so a straggler's failure can still roll this node
// onto a retry before results are committed.
func (n *node) doneBarrier(ctx context.Context, attempt int32) error {
	live, _ := n.livePeers()
	for _, id := range live {
		if err := n.ep.Send(rpc.Message{
			Src: n.self, Dst: id, Type: msgDegradeDone, Tile: -1, Seq: attempt,
			Urgent: true,
		}); err != nil {
			return err
		}
	}
	return n.ep.mbox.waitSeen(ctx, attempt, live, n.ep.mbox.doneSeen)
}
