package engine

import (
	"context"
	"sort"
	"sync"

	"adr/internal/rpc"
)

// mailbox holds one query's inbound messages on one node, and is the only
// queue between the endpoint's Recv and a worker: the Dispatcher's routing
// loop puts into it continuously — so a fast node running ahead into the next
// tile can never exert backpressure that deadlocks the mesh — and the node
// loop takes messages by (tile, type) in whatever order its current phase
// needs them.
//
// Failure propagation flows through here: a transport error (dead peer,
// closed endpoint) or an inbound msgAbort terminates the mailbox, so every
// blocked take unblocks with the cause instead of waiting forever.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending map[mboxKey][]rpc.Message
	// err is the first failure (non-nil once the mailbox has failed); pending
	// messages remain takeable after it.
	err error
	// gone marks a mailbox its Dispatcher has retired: the query is over on
	// this node and nothing will take from it again.
	gone bool

	// Degraded-mode state. The mailbox outlives individual execution attempts
	// of one degraded query: attempt is the node's current attempt number,
	// dead accumulates every processor known to have failed (locally observed
	// rpc.MsgPeerDown plus peers' fence payloads), and fenceSeen/doneSeen
	// track the highest fence and done-barrier attempt each peer has
	// announced. A peer death or a fence ahead of the current attempt fails
	// the mailbox with a retryable error; beginAttempt clears the failure for
	// the next attempt.
	attempt   int32
	maxFence  int32
	dead      map[rpc.NodeID]bool
	fenceSeen map[rpc.NodeID]int32
	doneSeen  map[rpc.NodeID]int32
}

type mboxKey struct {
	tile int32
	typ  uint8
}

func newMailbox() *mailbox {
	m := &mailbox{
		pending:   make(map[mboxKey][]rpc.Message),
		dead:      make(map[rpc.NodeID]bool),
		fenceSeen: make(map[rpc.NodeID]int32),
		doneSeen:  make(map[rpc.NodeID]int32),
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// put delivers one inbound message: control traffic (abort, peer death,
// degraded fences and done announcements) is consumed here, data is buffered
// under its (tile, type) for take. Whatever is not buffered retires at once —
// credit back to its sender, pooled payload recycled — and a message for a
// retired mailbox is dropped and counted late.
func (m *mailbox) put(msg rpc.Message) {
	m.mu.Lock()
	kept, purged := m.putLocked(msg)
	m.mu.Unlock()
	m.cond.Broadcast()
	if !kept {
		msg.Release()
	}
	releaseAll(purged)
}

// putLocked reports whether msg was buffered, and which pending messages it
// displaced. Callers hold m.mu.
func (m *mailbox) putLocked(msg rpc.Message) (kept bool, purged []rpc.Message) {
	if m.gone {
		lateMsgs.Inc()
		return false, nil
	}
	src, seq := msg.Src, msg.Seq
	switch uint8(msg.Type) {
	case msgAbort:
		// A peer failed and is telling the mesh: terminate, carrying who and
		// why, regardless of which tile either side is in.
		m.failLocked(&AbortError{Node: src, Reason: string(msg.Payload)})
	case uint8(rpc.MsgPeerDown):
		// The transport watched a peer die. Record it and fail the current
		// attempt; on a degraded run the driver re-plans around the corpse.
		m.dead[src] = true
		m.failLocked(&peerDownError{Node: src})
	case msgDegradeFence:
		for _, id := range decodeDeadSet(msg.Payload) {
			m.dead[id] = true
		}
		m.fenceSeen[src] = max(m.fenceSeen[src], seq)
		m.maxFence = max(m.maxFence, seq)
		// Per-pair FIFO means everything from src still pending predates its
		// fence and belongs to an abandoned attempt — drop it before the new
		// attempt's same-keyed traffic can interleave with it.
		purged = m.purgeFromLocked(src)
		if seq > m.attempt {
			m.failLocked(&fenceAheadError{Node: src, Attempt: seq})
		}
	case msgDegradeDone:
		m.doneSeen[src] = max(m.doneSeen[src], seq)
	default:
		if m.attempt > 0 && src != msg.Dst && m.fenceSeen[src] < m.attempt {
			// Degraded rollover: the sender has not fenced into this node's
			// current attempt, so per-pair FIFO makes this message abandoned
			// earlier-attempt traffic. Release it on arrival — buffering it
			// would both risk mis-delivery into the new attempt's same-keyed
			// takes and strand the sender's flow-control credit while it is
			// still draining toward its own rollover.
			return false, nil
		}
		k := mboxKey{tile: msg.Tile, typ: uint8(msg.Type)}
		m.pending[k] = append(m.pending[k], msg)
		return true, nil
	}
	return false, purged
}

// purgeFromLocked removes every pending message from one peer and returns
// them for release outside the lock. Callers hold m.mu.
func (m *mailbox) purgeFromLocked(peer rpc.NodeID) []rpc.Message {
	var out []rpc.Message
	for k, q := range m.pending {
		kept := q[:0]
		for _, msg := range q {
			if msg.Src == peer {
				out = append(out, msg)
			} else {
				kept = append(kept, msg)
			}
		}
		if len(kept) == 0 {
			delete(m.pending, k)
		} else {
			m.pending[k] = kept
		}
	}
	return out
}

// fail marks the mailbox dead; pending messages remain takeable so a node
// that has already received everything it needs can still finish. Only the
// first failure is recorded.
func (m *mailbox) fail(err error) {
	m.mu.Lock()
	m.failLocked(err)
	m.mu.Unlock()
	m.cond.Broadcast()
}

func (m *mailbox) failLocked(err error) {
	if m.err == nil {
		m.err = err
	}
}

// beginAttempt opens a degraded execution attempt: the failure from the
// previous attempt clears, every pending message purges, and the attempt
// number advances — to at least the highest fence any peer has announced, so
// a node joining late jumps straight to the attempt the rest of the mesh is
// fencing on. Returns the attempt number actually entered.
//
// Purging everything is both safe and necessary. Safe because no peer sends
// new-attempt data before collecting this node's own fence (fenceRound is a
// barrier), so whatever is buffered here predates the rollover; necessary
// because releasing it returns the senders' flow-control credit — a live
// peer blocked in Send against this node's window must unblock so it can
// reach its own fence.
func (m *mailbox) beginAttempt(attempt int32) int32 {
	m.mu.Lock()
	if m.maxFence > attempt {
		attempt = m.maxFence
	}
	m.attempt = attempt
	if !m.gone { // a retired mailbox stays failed
		m.err = nil
	}
	pending := m.pending
	m.pending = make(map[mboxKey][]rpc.Message)
	m.mu.Unlock()
	m.cond.Broadcast()
	for _, q := range pending {
		releaseAll(q)
	}
	return attempt
}

// deadSet returns the processors known to have failed, in ascending order.
func (m *mailbox) deadSet() []rpc.NodeID {
	m.mu.Lock()
	out := make([]rpc.NodeID, 0, len(m.dead))
	for id := range m.dead {
		out = append(out, id)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// noteDead records a death observed outside the mailbox (a send that failed
// with a PeerError) so the next attempt's fence carries it.
func (m *mailbox) noteDead(peer rpc.NodeID) {
	m.mu.Lock()
	m.dead[peer] = true
	m.mu.Unlock()
}

// waitSeen blocks until every listed peer has announced — in seen, the
// mailbox's fenceSeen or doneSeen — the given attempt or a later one, skipping
// peers recorded dead. A mailbox failure — a further death, a fence from a
// yet-later attempt, an abort — wins over the announcements' arrival so the
// caller joins the newer attempt instead of planning against a stale
// exclusion set.
func (m *mailbox) waitSeen(ctx context.Context, attempt int32, peers []rpc.NodeID, seen map[rpc.NodeID]int32) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.await(ctx, func() bool {
		for _, p := range peers {
			if !m.dead[p] && seen[p] < attempt {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}
	return m.err
}

// await blocks until ready holds, the mailbox has failed, or ctx is done (the
// only case it reports an error for). Callers hold m.mu.
func (m *mailbox) await(ctx context.Context, ready func() bool) error {
	// Wake this waiter when the context dies.
	stop := context.AfterFunc(ctx, func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer stop()
	for m.err == nil && !ready() {
		if err := ctx.Err(); err != nil {
			return err
		}
		m.cond.Wait()
	}
	return nil
}

// retire ends the mailbox for good: blocked takers fail, every pending
// message is released — flow-control credits return to their senders and
// pooled payloads recycle — and later puts are dropped as late. Anything
// still buffered when the query is over or aborted will never be taken, and
// holding it would leak the senders' credit windows and the bufpool balance.
// Returns how many messages it released.
func (m *mailbox) retire() (released int) {
	m.mu.Lock()
	m.gone = true
	m.failLocked(rpc.ErrClosed)
	pending := m.pending
	m.pending = make(map[mboxKey][]rpc.Message)
	m.mu.Unlock()
	m.cond.Broadcast()
	for _, q := range pending {
		released += len(q)
		releaseAll(q)
	}
	return released
}

func releaseAll(msgs []rpc.Message) {
	for i := range msgs {
		msgs[i].Release()
	}
}

// take blocks until a message of the given tile and type is available, the
// mailbox fails, or the context is done — so a node waiting on a peer that
// will never speak again still returns within its deadline.
func (m *mailbox) take(ctx context.Context, tile int32, typ uint8) (rpc.Message, error) {
	k := mboxKey{tile: tile, typ: typ}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.await(ctx, func() bool { return len(m.pending[k]) > 0 }); err != nil {
		return rpc.Message{}, err
	}
	q := m.pending[k]
	if len(q) == 0 {
		return rpc.Message{}, m.err
	}
	if len(q) == 1 {
		delete(m.pending, k)
	} else {
		m.pending[k] = q[1:]
	}
	return q[0], nil
}
