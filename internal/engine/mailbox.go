package engine

import (
	"context"
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
// Failure propagation flows through here: a closed endpoint, a peer death the
// query's plan did not exclude (the Dispatcher fails the mailbox) or an
// inbound msgAbort terminates the mailbox, so every blocked take unblocks
// with the cause instead of waiting forever.
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
}

type mboxKey struct {
	tile int32
	typ  uint8
}

func newMailbox() *mailbox {
	m := &mailbox{pending: make(map[mboxKey][]rpc.Message)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// put delivers one inbound message: an abort is consumed here, data is
// buffered under its (tile, type) for take. A message for a retired mailbox
// retires at once — credit back to its sender, pooled payload recycled — and
// is counted late.
func (m *mailbox) put(msg rpc.Message) {
	m.mu.Lock()
	kept := false
	switch {
	case m.gone:
		lateMsgs.Inc()
	case uint8(msg.Type) == msgAbort:
		// A peer failed and is telling the mesh: terminate, carrying who, why
		// and which death caused it, regardless of which tile either side is
		// in.
		m.failLocked(&AbortError{Node: msg.Src, Dead: rpc.NodeID(msg.Seq - 1), Reason: string(msg.Payload)})
	default:
		k := mboxKey{tile: msg.Tile, typ: uint8(msg.Type)}
		m.pending[k] = append(m.pending[k], msg)
		kept = true
	}
	m.mu.Unlock()
	m.cond.Broadcast()
	if !kept {
		msg.Release()
	}
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
