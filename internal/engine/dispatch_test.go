package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"adr/internal/leakcheck"
	"adr/internal/metrics"
	"adr/internal/rpc"
)

// eventually polls cond, bounded.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
	}
}

// inbound is the fixture of the inbound-path table: a fabric whose node 1
// receives through a Dispatcher while the test drives node 0 (and, where a
// case needs a peer to die, node 2) by hand.
type inbound struct {
	fabric *rpc.InprocFabric
	peer   rpc.Endpoint
	d      *Dispatcher
}

// box claims a query on the Dispatcher and returns the mailbox a node run on
// it would take from.
func (h *inbound) box(query int32) *mailbox { return h.d.Endpoint(query).mbox }

// send delivers one data message from node 0 to the query on node 1.
func (h *inbound) send(t *testing.T, query, seq int32) {
	t.Helper()
	if err := h.peer.Send(rpc.Message{Src: 0, Dst: 1, Query: query, Type: msgInputChunk, Seq: seq}); err != nil {
		t.Fatal(err)
	}
}

func take(ctx context.Context, b *mailbox) (rpc.Message, error) {
	return b.take(ctx, 0, msgInputChunk)
}

// boxes reports how many mailboxes the Dispatcher holds.
func (h *inbound) boxes() int {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	return len(h.d.boxes)
}

// inboundCases is the one table of what the inbound path does between an
// endpoint's Recv and a node's take.
var inboundCases = []struct {
	name string
	opts rpc.InprocOptions
	run  func(t *testing.T, h *inbound)
}{
	{name: "routes by query", run: func(t *testing.T, h *inbound) {
		qa, qb := h.box(1), h.box(2)
		for i := int32(0); i < 10; i++ {
			h.send(t, 1+i%2, i)
		}
		for i := int32(0); i < 10; i += 2 {
			if m, err := take(context.Background(), qa); err != nil || m.Query != 1 || m.Seq != i {
				t.Fatalf("query 1 take = %+v, %v", m, err)
			}
			if m, err := take(context.Background(), qb); err != nil || m.Query != 2 || m.Seq != i+1 {
				t.Fatalf("query 2 take = %+v, %v", m, err)
			}
		}
	}},
	{name: "send stamps query", run: func(t *testing.T, h *inbound) {
		if err := h.d.Endpoint(42).Send(rpc.Message{Src: 1, Dst: 0, Seq: 7}); err != nil {
			t.Fatal(err)
		}
		m, err := h.peer.Recv(context.Background())
		if err != nil || m.Query != 42 || m.Seq != 7 {
			t.Fatalf("stamped message = %+v, %v", m, err)
		}
	}},
	{name: "buffers early arrivals", run: func(t *testing.T, h *inbound) {
		// The message arrives before anyone claims query 9.
		h.send(t, 9, 55)
		eventually(t, "early arrival boxed", func() bool { return h.boxes() == 1 })
		if m, err := take(context.Background(), h.box(9)); err != nil || m.Seq != 55 {
			t.Fatalf("buffered arrival = %+v, %v", m, err)
		}
	}},
	{name: "release unblocks takers", run: func(t *testing.T, h *inbound) {
		b := h.box(3)
		done := make(chan error, 1)
		go func() {
			_, err := take(context.Background(), b)
			done <- err
		}()
		time.Sleep(20 * time.Millisecond)
		h.d.Release(3)
		select {
		case err := <-done:
			if !errors.Is(err, rpc.ErrClosed) {
				t.Errorf("take after release = %v, want rpc.ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("take did not unblock on release")
		}
	}},
	{name: "close unblocks all", run: func(t *testing.T, h *inbound) {
		var wg sync.WaitGroup
		for q := int32(0); q < 4; q++ {
			b := h.box(q)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := take(context.Background(), b); err == nil {
					t.Error("take survived dispatcher close")
				}
			}()
		}
		time.Sleep(20 * time.Millisecond)
		h.d.Close()
		unblocked := make(chan struct{})
		go func() { wg.Wait(); close(unblocked) }()
		select {
		case <-unblocked:
		case <-time.After(5 * time.Second):
			t.Fatal("takers did not unblock on close")
		}
	}},
	{name: "context deadline", run: func(t *testing.T, h *inbound) {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if _, err := take(ctx, h.box(1)); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("take = %v, want deadline exceeded", err)
		}
	}},
	// A message arriving after Release must be dropped and counted, not
	// silently resurrect the query's mailbox — which nothing would ever
	// release again.
	{name: "late drop", run: func(t *testing.T, h *inbound) {
		b := h.box(5)
		h.d.Release(5)
		before := lateMsgs.Value()
		h.send(t, 5, 1)
		eventually(t, "late message counted in adr_dispatch_late_msgs_total", func() bool { return lateMsgs.Value() > before })
		if h.boxes() != 0 {
			t.Error("late message resurrected the released mailbox")
		}
		if _, err := take(context.Background(), b); err == nil {
			t.Error("take on a released mailbox should error, not block")
		}
	}},
	// Explicit re-registration of a query id (a retry reusing it) reopens it.
	{name: "reopen", run: func(t *testing.T, h *inbound) {
		h.box(7)
		h.d.Release(7)
		b := h.box(7)
		h.send(t, 7, 9)
		if m, err := take(context.Background(), b); err != nil || m.Seq != 9 {
			t.Fatalf("take after reopen = %+v, %v", m, err)
		}
	}},
	// Far more messages than the inbox holds: the routing loop must keep
	// draining the endpoint so the sender never deadlocks against a node that
	// has not asked for them yet.
	{name: "drains the endpoint", opts: rpc.InprocOptions{InboxDepth: 4}, run: func(t *testing.T, h *inbound) {
		b := h.box(0)
		for i := int32(0); i < 100; i++ {
			h.send(t, 0, i)
		}
		for i := int32(0); i < 100; i++ {
			if m, err := take(context.Background(), b); err != nil || m.Seq != i {
				t.Fatalf("take %d = %+v, %v", i, m, err)
			}
		}
	}},
	{name: "peer-down replayed into a later box", run: func(t *testing.T, h *inbound) {
		running, spared := h.d.Endpoint(1), h.d.Endpoint(3)
		if err := running.watch(nil); err != nil {
			t.Fatal(err)
		}
		if err := spared.watch([]rpc.NodeID{2}); err != nil {
			t.Fatal(err)
		}
		early := h.box(4) // claimed, but its node run has not begun
		victim, _ := h.fabric.Endpoint(2)
		victim.Close()
		// The death notice arrives once; the running query that needs the
		// peer fails with it ...
		_, err := take(context.Background(), running.mbox)
		var down *peerDownError
		if !errors.As(err, &down) || down.Node != 2 || !IsRetryable(err) {
			t.Fatalf("running query's take = %v, want a retryable peer 2 down", err)
		}
		// ... one planned without the peer keeps running ...
		h.send(t, 3, 5)
		if m, err := take(context.Background(), spared.mbox); err != nil || m.Seq != 5 {
			t.Fatalf("query planned without the dead peer: take = %+v, %v", m, err)
		}
		// ... and a query whose run begins after the death learns of it then,
		// unless its plan excludes the peer too.
		h.send(t, 4, 6)
		if m, err := take(context.Background(), early); err != nil || m.Seq != 6 {
			t.Fatalf("claimed, not yet running query: take = %+v, %v", m, err)
		}
		if err := h.d.Endpoint(4).watch(nil); !errors.As(err, &down) || down.Node != 2 {
			t.Errorf("watch after the death = %v, want peer 2 down", err)
		}
		if err := h.d.Endpoint(5).watch([]rpc.NodeID{2}); err != nil {
			t.Errorf("watch excluding the dead peer = %v, want nil", err)
		}
	}},
	{name: "born failed after the endpoint failed", run: func(t *testing.T, h *inbound) {
		running := h.box(1)
		ep, _ := h.fabric.Endpoint(1)
		ep.Close() // the node's own endpoint: the routing loop ends
		if _, err := take(context.Background(), running); err != rpc.ErrClosed {
			t.Fatalf("running query's take = %v, want rpc.ErrClosed", err)
		}
		if _, err := take(context.Background(), h.box(9)); err != rpc.ErrClosed {
			t.Errorf("box created after the failure: take = %v, want rpc.ErrClosed", err)
		}
	}},
	{name: "one query's messages never reach another's taker", run: func(t *testing.T, h *inbound) {
		qa, qb := h.box(1), h.box(2)
		got := make(chan rpc.Message, 1)
		go func() {
			m, _ := take(context.Background(), qb)
			got <- m
		}()
		for i := int32(0); i < 50; i++ {
			h.send(t, 1, i)
		}
		for i := int32(0); i < 50; i++ {
			if m, err := take(context.Background(), qa); err != nil || m.Seq != i {
				t.Fatalf("query 1 take %d = %+v, %v", i, m, err)
			}
		}
		select {
		case m := <-got:
			t.Fatalf("query 2's taker returned %+v with nothing sent to it", m)
		case <-time.After(20 * time.Millisecond):
		}
		h.send(t, 2, 99)
		if m := <-got; m.Query != 2 || m.Seq != 99 {
			t.Errorf("query 2's taker got %+v", m)
		}
	}},
}

// runInboundCase runs one row of the table on a fresh three-node fabric.
func runInboundCase(t *testing.T, name string) {
	for _, c := range inboundCases {
		if c.name != name {
			continue
		}
		leakcheck.Check(t)
		f, err := rpc.NewInprocFabricOpts(3, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		peer, _ := f.Endpoint(0)
		ep, _ := f.Endpoint(1)
		h := &inbound{fabric: f, peer: peer, d: NewDispatcher(ep)}
		defer h.d.Close()
		c.run(t, h)
		return
	}
	t.Fatalf("no inbound case %q", name)
}

// Each row runs under a top-level name: the rows that predate the table keep
// the ones they are tracked by, and `make test-failure` selects them all.
func TestDispatcherRoutesByQuery(t *testing.T)        { runInboundCase(t, "routes by query") }
func TestDispatcherSendStampsQuery(t *testing.T)      { runInboundCase(t, "send stamps query") }
func TestDispatcherBuffersEarlyArrivals(t *testing.T) { runInboundCase(t, "buffers early arrivals") }
func TestDispatcherReleaseUnblocks(t *testing.T)      { runInboundCase(t, "release unblocks takers") }
func TestDispatcherCloseUnblocksAll(t *testing.T)     { runInboundCase(t, "close unblocks all") }
func TestDispatcherRecvContext(t *testing.T)          { runInboundCase(t, "context deadline") }
func TestDispatcherDropsLateMessages(t *testing.T)    { runInboundCase(t, "late drop") }
func TestDispatcherEndpointReopensReleasedQuery(t *testing.T) {
	runInboundCase(t, "reopen")
}
func TestDispatcherDrainsEndpoint(t *testing.T) { runInboundCase(t, "drains the endpoint") }
func TestDispatcherReplaysPeerDown(t *testing.T) {
	runInboundCase(t, "peer-down replayed into a later box")
}
func TestDispatcherBornFailed(t *testing.T) {
	runInboundCase(t, "born failed after the endpoint failed")
}
func TestDispatcherKeepsQueriesApart(t *testing.T) {
	runInboundCase(t, "one query's messages never reach another's taker")
}

// TestDispatcherStateBounded: tombstones and unclaimed boxes have a lifetime,
// so neither a daemon's stream of finished queries nor early arrivals for a
// query whose request never reaches this node grow the Dispatcher forever.
func TestDispatcherStateBounded(t *testing.T) {
	leakcheck.Check(t)
	f, err := rpc.NewInprocFabricOpts(2, rpc.InprocOptions{Flow: rpc.Flow{WindowBytes: 100}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	peer, _ := f.Endpoint(0)
	ep, _ := f.Endpoint(1)
	d := NewDispatcher(ep)
	defer d.Close()
	var clockMu sync.Mutex
	clock := time.Unix(0, 0)
	advance := func(by time.Duration) {
		clockMu.Lock()
		clock = clock.Add(by)
		clockMu.Unlock()
	}
	d.mu.Lock()
	d.now = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	d.mu.Unlock()

	// One query a second: the tombstone set stops growing at 1.5 lifetimes.
	bound := int(3*inboundLifetime/(2*time.Second)) + 1
	for q := int32(0); q < 10000; q++ {
		advance(time.Second)
		d.Endpoint(q)
		d.Release(q)
		d.mu.Lock()
		marks := len(d.marks)
		d.mu.Unlock()
		if marks > bound {
			t.Fatalf("after %d queries the Dispatcher remembers %d ids, bound %d", q+1, marks, bound)
		}
	}

	// Early arrivals for a query nobody registers here: held for a lifetime
	// (filling the sender's window), then retired as late.
	payload := make([]byte, 30)
	send := func() error {
		return peer.Send(rpc.Message{Src: 0, Dst: 1, Query: -7, Type: msgInputChunk, Payload: payload})
	}
	for i := 0; i < 3; i++ {
		if err := send(); err != nil {
			t.Fatal(err)
		}
	}
	held := func() int {
		d.mu.Lock()
		defer d.mu.Unlock()
		return len(d.boxes)
	}
	eventually(t, "early arrivals boxed", func() bool {
		d.mu.Lock()
		b := d.boxes[-7]
		d.mu.Unlock()
		if b == nil {
			return false
		}
		b.mu.Lock()
		defer b.mu.Unlock()
		return len(b.pending[mboxKey{typ: msgInputChunk}]) == 3
	})
	before := lateMsgs.Value()
	advance(inboundLifetime / 2)
	d.Release(-1)
	if held() != 1 {
		t.Fatal("unclaimed box retired before its lifetime was over")
	}
	advance(inboundLifetime)
	d.Release(-1)
	if held() != 0 {
		t.Error("unclaimed box outlived its lifetime")
	}
	if got := lateMsgs.Value() - before; got != 3 {
		t.Errorf("%d of the box's 3 messages counted late", got)
	}
	sent := make(chan error, 1)
	go func() { sent <- send() }()
	select {
	case err := <-sent:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the retired box still holds the sender's flow-control credit")
	}
}

// exchangeNode is a node with just enough wiring to exchange messages: a
// view of query 1 on a Dispatcher of its own, closed when the test ends.
func exchangeNode(t *testing.T, ep rpc.Endpoint) *node {
	d := NewDispatcher(ep)
	t.Cleanup(func() { d.Close() })
	view := d.Endpoint(1)
	return &node{self: ep.Self(), ep: view, met: &metrics.Node{}}
}

// TestExchange pins the phase primitive: the send half never keeps the
// receive half from consuming (§12 invariant 1), and the half that fails
// first is the failure reported.
func TestExchange(t *testing.T) {
	pair := func(t *testing.T) (a, b *node) {
		leakcheck.Check(t)
		f, err := rpc.NewInprocFabricOpts(2, rpc.InprocOptions{Flow: rpc.Flow{WindowBytes: 64}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		ep0, _ := f.Endpoint(0)
		ep1, _ := f.Endpoint(1)
		return exchangeNode(t, ep0), exchangeNode(t, ep1)
	}
	sendTo := func(n *node, dst rpc.NodeID, count int) func() error {
		return func() error {
			for i := 0; i < count; i++ {
				if err := n.send(metrics.LocalReduction, rpc.Message{
					Src: n.self, Dst: dst, Type: msgInputChunk, Seq: int32(i), Payload: make([]byte, 48),
				}); err != nil {
					return err
				}
			}
			return nil
		}
	}
	release := func(m rpc.Message) error { m.Release(); return nil }

	// Each node sends the other 20 messages of which the window admits one at
	// a time: a node that finished sending before it received would deadlock.
	t.Run("send blocked on credit does not stop receive", func(t *testing.T) {
		a, b := pair(t)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		errs := make(chan error, 2)
		for _, n := range []*node{a, b} {
			go func(n *node) {
				l := newLatch(ctx)
				defer l.cancel()
				n.exchange(l, metrics.LocalReduction, 0, msgInputChunk, 20, sendTo(n, 1-n.self, 20), release)
				errs <- l.err
			}(n)
		}
		for range 2 {
			if err := <-errs; err != nil {
				t.Errorf("exchange = %v", err)
			}
		}
		if a.met.CreditStalls.Load() == 0 && b.met.CreditStalls.Load() == 0 {
			t.Log("no send ever stalled on credit; the window did not bind on this run")
		}
	})

	t.Run("send fails first", func(t *testing.T) {
		a, _ := pair(t)
		l := newLatch(context.Background())
		defer l.cancel()
		boom := errors.New("send half failed")
		// Nothing will ever arrive: only the send half's failure ends the wait.
		a.exchange(l, metrics.LocalReduction, 0, msgInputChunk, 1, func() error { return boom }, release)
		if l.err != boom {
			t.Errorf("exchange reported %v, want the send half's %v", l.err, boom)
		}
	})

	t.Run("receive fails first", func(t *testing.T) {
		a, b := pair(t)
		if err := sendTo(b, 0, 1)(); err != nil {
			t.Fatal(err)
		}
		l := newLatch(context.Background())
		defer l.cancel()
		boom := errors.New("receive half failed")
		a.exchange(l, metrics.LocalReduction, 0, msgInputChunk, 1, func() error {
			<-l.ctx.Done() // still sending when the receive half fails
			return l.ctx.Err()
		}, func(m rpc.Message) error {
			m.Release()
			return boom
		})
		if l.err != boom {
			t.Errorf("exchange reported %v, want the receive half's %v", l.err, boom)
		}
	})
}
