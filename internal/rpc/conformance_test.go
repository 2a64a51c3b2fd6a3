package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"adr/internal/bufpool"
	"adr/internal/leakcheck"
)

// The transport conformance table: every row states one behaviour of the
// shared flow-and-failure core and runs verbatim over {inproc, TCP loopback}
// × {window off, tiny window} × {fail-stop, degraded}. A row holds on every
// combination or the transports have drifted. There is one failure model — a
// peer's death is one MsgPeerDown and the endpoint stays up — and the last
// axis is the fabric it meets: "fail-stop" rows run on a fabric whose nodes
// are all up, "degraded" rows on one that has already lost a spare node
// (every survivor took its death notice first), which is what a daemon mesh
// is after its first death. Around each row the harness asserts the
// resource invariants every path must keep (leakcheck.Check): once the
// fabric is closed, bufpool's outstanding balance and every in-flight byte
// gauge are back where they started, and no goroutine is left behind.

const (
	conformWindow = 4 << 10 // the tiny window
	conformFrame  = 1 << 10 // fits the window four times
	conformBig    = 6 << 10 // larger than the whole window: the "+ one frame"
	conformWait   = 10 * time.Second
)

// conformCase is one cell of the matrix; open builds its fabric.
type conformCase struct {
	transport string
	window    int64
	// degraded runs the row on a fabric that has lost a spare node.
	degraded bool
}

// open builds a fabric whose first nodes endpoints the row uses. A degraded
// case adds a spare node, kills it, and consumes its death notice on every
// survivor before handing the fabric over.
func (c conformCase) open(t *testing.T, nodes int) Fabric {
	t.Helper()
	var (
		f   Fabric
		err error
	)
	size := nodes
	if c.degraded {
		size++
	}
	flow := Flow{WindowBytes: c.window}
	if c.transport == "inproc" {
		f, err = NewInprocFabricOpts(size, InprocOptions{Flow: flow})
	} else {
		f, err = NewLoopbackMesh(size, TCPOptions{Flow: flow})
	}
	if err != nil {
		t.Fatal(err)
	}
	if c.degraded {
		eps := endpoints(t, f, size)
		spare := NodeID(nodes)
		eps[spare].Close()
		for _, ep := range eps[:nodes] {
			awaitDeath(t, ep, spare)
		}
	}
	return f
}

// coreOf reaches the core both endpoint types embed.
func coreOf(t *testing.T, ep Endpoint) *core {
	t.Helper()
	switch e := ep.(type) {
	case *inprocEndpoint:
		return e.core
	case *TCPNode:
		return e.core
	}
	t.Fatalf("endpoint %T embeds no core", ep)
	return nil
}

func endpoints(t *testing.T, f Fabric, nodes int) []Endpoint {
	t.Helper()
	eps := make([]Endpoint, nodes)
	for i := range eps {
		ep, err := f.Endpoint(NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	return eps
}

// eventually polls cond until it holds; the asynchronous halves of the TCP
// transport (credit frames, death detection, teardown drains) need it.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(conformWait)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// awaitDeath receives on ep until it delivers peer's death notice (a
// MsgPeerDown), releasing data messages that arrive first.
func awaitDeath(t *testing.T, ep Endpoint, peer NodeID) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), conformWait)
	defer cancel()
	for {
		m, err := ep.Recv(ctx)
		switch {
		case err == nil && m.Type == MsgPeerDown && m.Src == peer:
			return
		case err == nil && m.Type != MsgPeerDown:
			m.Release()
		default:
			t.Fatalf("node %d waiting for peer %d's death: got %+v, %v", ep.Self(), peer, m, err)
		}
	}
}

// sendUntilError pushes payload-sized messages from ep to dst until Send
// fails, and returns that failure.
func sendUntilError(ep Endpoint, dst NodeID, payload []byte) error {
	for seq := int32(0); ; seq++ {
		if err := ep.Send(Message{Src: ep.Self(), Dst: dst, Seq: seq, Payload: payload}); err != nil {
			return err
		}
	}
}

var conformRows = []struct {
	name string
	run  func(t *testing.T, c conformCase)
}{
	{"per-pair ordering", func(t *testing.T, c conformCase) {
		f := c.open(t, 2)
		defer f.Close()
		eps := endpoints(t, f, 2)
		const n = 300
		sendErr := make(chan error, 1)
		go func() {
			for i := 0; i < n; i++ {
				m := Message{Src: 0, Dst: 1, Seq: int32(i), Payload: bufpool.Get(conformFrame), Pooled: true}
				if err := eps[0].Send(m); err != nil {
					sendErr <- err
					return
				}
			}
			sendErr <- nil
		}()
		ctx, cancel := context.WithTimeout(context.Background(), conformWait)
		defer cancel()
		for i := 0; i < n; i++ {
			m, err := eps[1].Recv(ctx)
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if m.Seq != int32(i) || len(m.Payload) != conformFrame {
				t.Fatalf("message %d arrived with seq %d, %d bytes: ordering violated", i, m.Seq, len(m.Payload))
			}
			m.Release()
		}
		if err := <-sendErr; err != nil {
			t.Fatalf("send: %v", err)
		}
	}},

	{"in-flight never above window plus one frame", func(t *testing.T, c conformCase) {
		f := c.open(t, 2)
		defer f.Close()
		eps := endpoints(t, f, 2)
		sender := coreOf(t, eps[0])
		gauge, stalls := sender.met.peerInflight[1], sender.met.creditStalls
		gaugeBase, stallsBase := gauge.Value(), stalls.Value()

		// A pass of frames that fit the window, then a pass of frames larger
		// than all of it; each time the receiver holds off so the sender runs
		// into the gate.
		const frames = 8
		var stalled atomic.Int64
		gate := sender.peers[1].gate
		for _, size := range []int{conformFrame, conformBig} {
			sendErr := make(chan error, 1)
			go func() {
				for i := 0; i < frames; i++ {
					m := Message{
						Src: 0, Dst: 1, Seq: int32(i), Payload: bufpool.Get(size), Pooled: true,
						OnStall: func(d time.Duration) { stalled.Add(d.Nanoseconds()) },
					}
					if err := eps[0].Send(m); err != nil {
						sendErr <- err
						return
					}
				}
				sendErr <- nil
			}()
			time.Sleep(50 * time.Millisecond)
			ctx, cancel := context.WithTimeout(context.Background(), conformWait)
			for i := 0; i < frames; i++ {
				m, err := eps[1].Recv(ctx)
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				m.Release()
			}
			cancel()
			if err := <-sendErr; err != nil {
				t.Fatalf("send: %v", err)
			}
			// Fitting frames never overshoot; an oversized one is admitted
			// alone, which is the one frame of slack.
			bound := c.window
			if int64(size) > c.window {
				bound += int64(size)
			}
			if hw := gate.highWater(); c.window > 0 && (hw == 0 || hw > bound) {
				t.Errorf("%d-byte frames: in-flight high water %d, want within (0, %d]", size, hw, bound)
			}
		}

		if c.window == 0 {
			if gate != nil || stalled.Load() != 0 || stalls.Value() != stallsBase {
				t.Errorf("unflowed fabric metered flow control: gate %v, stalled %d ns", gate, stalled.Load())
			}
		} else {
			if stalled.Load() == 0 || stalls.Value() == stallsBase {
				t.Errorf("sender outran a held receiver without a credit stall (OnStall %d ns, counter %d -> %d)",
					stalled.Load(), stallsBase, stalls.Value())
			}
			if peak, hw := sender.met.inflightPeak.Value(), gate.highWater(); peak < hw {
				t.Errorf("adr_rpc_inflight_peak_bytes = %d, below this gate's high water %d", peak, hw)
			}
		}
		// Every payload was released: the balance and the gauge drain to zero.
		eventually(t, "released credit to return", func() bool {
			return inflightOf(gate) == 0 && gauge.Value() == gaugeBase
		})
	}},

	{"urgent bypasses an exhausted window", func(t *testing.T, c conformCase) {
		f := c.open(t, 2)
		defer f.Close()
		eps := endpoints(t, f, 2)
		// Fill the window; nobody consumes.
		if err := eps[0].Send(Message{Src: 0, Dst: 1, Payload: make([]byte, conformWindow)}); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			done <- eps[0].Send(Message{Src: 0, Dst: 1, Urgent: true, Payload: make([]byte, conformFrame)})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("urgent send: %v", err)
			}
		case <-time.After(conformWait):
			t.Fatal("urgent send blocked on an exhausted data window")
		}
		if got := coreOf(t, eps[0]).peers[1].gate.highWater(); got > c.window {
			t.Errorf("urgent payload was charged: high water %d above the %d already in flight", got, c.window)
		}
	}},

	{"blocked sender wakes with PeerError when the peer dies", func(t *testing.T, c conformCase) {
		f := c.open(t, 3)
		defer f.Close()
		eps := endpoints(t, f, 3)
		// Node 1 never consumes: the sender ends up blocked on credit, or
		// unflowed on node 1's full inbox and socket.
		done := make(chan error, 1)
		go func() { done <- sendUntilError(eps[0], 1, make([]byte, conformFrame)) }()
		select {
		case err := <-done:
			t.Fatalf("send to a live peer failed: %v", err)
		case <-time.After(100 * time.Millisecond):
		}
		eps[1].Close()
		select {
		case err := <-done:
			var pe *PeerError
			if !errors.As(err, &pe) || pe.Peer != 1 {
				t.Fatalf("sender woke with %v, want *PeerError naming peer 1", err)
			}
		case <-time.After(conformWait):
			t.Fatal("sender still blocked after the peer died")
		}
		// The pair's balance was reclaimed with the gate.
		if got := inflightOf(coreOf(t, eps[0]).peers[1].gate); got != 0 {
			t.Errorf("%d bytes still charged toward the dead peer", got)
		}
	}},

	{"release after peer death is a no-op", func(t *testing.T, c conformCase) {
		f := c.open(t, 2)
		defer f.Close()
		eps := endpoints(t, f, 2)
		sender := coreOf(t, eps[0])
		gauge := sender.met.peerInflight[1]
		gaugeBase := gauge.Value()

		// Node 1 takes two payloads and dies holding them.
		ctx, cancel := context.WithTimeout(context.Background(), conformWait)
		defer cancel()
		var held []Message
		for i := 0; i < 2; i++ {
			m := Message{Src: 0, Dst: 1, Seq: int32(i), Payload: bufpool.Get(conformFrame), Pooled: true}
			if err := eps[0].Send(m); err != nil {
				t.Fatal(err)
			}
			got, err := eps[1].Recv(ctx)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, got)
		}
		if c.window > 0 && gauge.Value() != gaugeBase+2*conformFrame {
			t.Errorf("adr_rpc_inflight_bytes moved %d with two frames in flight, want %d", gauge.Value()-gaugeBase, 2*conformFrame)
		}
		eps[1].Close()
		awaitDeath(t, eps[0], 1)
		gate := sender.peers[1].gate
		if got := inflightOf(gate); got != 0 || gauge.Value() != gaugeBase {
			t.Errorf("after the death: %d bytes charged, gauge off by %d; want both reclaimed", got, gauge.Value()-gaugeBase)
		}
		// The late releases must not credit the reclaimed balance again.
		for i := range held {
			held[i].Release()
			held[i].Release()
		}
		if got := inflightOf(gate); got != 0 || gauge.Value() != gaugeBase {
			t.Errorf("after late releases: %d bytes charged, gauge off by %d; want no change", got, gauge.Value()-gaugeBase)
		}
	}},

	{"peer death reported exactly once per dead peer", func(t *testing.T, c conformCase) {
		f := c.open(t, 3)
		defer f.Close()
		eps := endpoints(t, f, 3)
		met := coreOf(t, eps[0]).met
		failuresBase := met.peerFailures.Value()

		// A message buffered before the death is delivered ahead of it.
		if err := eps[1].Send(Message{Src: 1, Dst: 0, Seq: 7}); err != nil {
			t.Fatal(err)
		}
		if c.transport == "tcp" {
			eventually(t, "the frame to reach node 0's inbox", func() bool { return len(coreOf(t, eps[0]).inbox) == 1 })
		}
		eps[2].Close()
		ctx, cancel := context.WithTimeout(context.Background(), conformWait)
		defer cancel()
		if m, err := eps[0].Recv(ctx); err != nil || m.Seq != 7 {
			t.Fatalf("buffered message lost to the peer's death: %+v, %v", m, err)
		}
		awaitDeath(t, eps[0], 2)
		awaitDeath(t, eps[1], 2)
		if up := met.peerUp[2].Value(); up != 0 {
			t.Errorf("adr_rpc_peer_up{peer=2} = %d after its death, want 0", up)
		}
		if met.peerFailures.Value() == failuresBase {
			t.Error("adr_rpc_peer_failures_total not incremented")
		}
		var pe *PeerError
		if err := eps[0].Send(Message{Src: 0, Dst: 2}); !errors.As(err, &pe) || pe.Peer != 2 {
			t.Errorf("send to the dead peer = %v, want *PeerError naming peer 2", err)
		}

		// One notice only, and the survivors keep talking.
		short, cancelShort := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancelShort()
		if m, err := eps[0].Recv(short); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("second notice for one death: %+v, %v", m, err)
		}
		if err := eps[0].Send(Message{Src: 0, Dst: 1, Seq: 9}); err != nil {
			t.Fatalf("send between survivors: %v", err)
		}
		if m, err := eps[1].Recv(ctx); err != nil || m.Seq != 9 {
			t.Fatalf("recv between survivors: %+v, %v", m, err)
		}
		// A second death gets its own single notice.
		eps[1].Close()
		awaitDeath(t, eps[0], 1)
		short2, cancelShort2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancelShort2()
		if m, err := eps[0].Recv(short2); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("extra notice after the second death: %+v, %v", m, err)
		}
	}},

	{"own Close reports ErrClosed, not a peer failure", func(t *testing.T, c conformCase) {
		f := c.open(t, 2)
		defer f.Close()
		eps := endpoints(t, f, 2)
		// Node 0 has seen a peer die by the time it closes itself. It is
		// still up, so a Recv can block; its own Close must wake it.
		eps[1].Close()
		awaitDeath(t, eps[0], 1)
		blocked := make(chan error, 1)
		go func() {
			_, err := eps[0].Recv(context.Background())
			blocked <- err
		}()
		time.Sleep(20 * time.Millisecond)
		eps[0].Close()
		select {
		case err := <-blocked:
			if err != ErrClosed {
				t.Errorf("recv blocked across own Close = %v, want ErrClosed", err)
			}
		case <-time.After(conformWait):
			t.Fatal("own Close did not wake a blocked Recv")
		}
		if _, err := eps[0].Recv(context.Background()); err != ErrClosed {
			t.Errorf("recv after own Close = %v, want ErrClosed", err)
		}
		if err := eps[0].Send(Message{Src: 0, Dst: 1, Payload: make([]byte, conformFrame)}); err != ErrClosed {
			t.Errorf("send after own Close = %v, want ErrClosed", err)
		}
		if err := eps[0].Send(Message{Src: 0, Dst: 0}); err != ErrClosed {
			t.Errorf("self-send after own Close = %v, want ErrClosed", err)
		}
	}},

	{"Close twice is harmless", func(t *testing.T, c conformCase) {
		f := c.open(t, 2)
		eps := endpoints(t, f, 2)
		for i := 0; i < 2; i++ {
			if err := eps[1].Close(); err != nil {
				t.Errorf("endpoint Close #%d: %v", i+1, err)
			}
		}
		for i := 0; i < 2; i++ {
			if err := f.Close(); err != nil {
				t.Errorf("fabric Close #%d: %v", i+1, err)
			}
		}
	}},

	{"teardown retires what nobody received", func(t *testing.T, c conformCase) {
		f := c.open(t, 3)
		eps := endpoints(t, f, 3)
		// Pooled payloads stranded at every stage: in a live peer's inbox,
		// looped back to the sender itself, and toward a peer that dies with
		// them unread. (Sized so the tiny window admits them all.)
		for _, dst := range []NodeID{0, 1, 2} {
			for i := 0; i < 2; i++ {
				m := Message{Src: 0, Dst: dst, Seq: int32(i), Payload: bufpool.Get(conformFrame), Pooled: true}
				if err := eps[0].Send(m); err != nil {
					t.Fatal(err)
				}
			}
		}
		eps[2].Close()
		f.Close() // the harness checks the balance
	}},
}

func TestConformance(t *testing.T) {
	for _, transport := range []string{"inproc", "tcp"} {
		for _, window := range []int64{0, conformWindow} {
			for _, degraded := range []bool{false, true} {
				c := conformCase{transport: transport, window: window, degraded: degraded}
				model := "fail-stop"
				if degraded {
					model = "degraded"
				}
				t.Run(fmt.Sprintf("%s/window=%d/%s", transport, window, model), func(t *testing.T) {
					for _, row := range conformRows {
						t.Run(row.name, func(t *testing.T) {
							// Rows close their fabric on the way out; TCP loops
							// drain asynchronously behind that, inside the
							// check's bound.
							leakcheck.Check(t)
							row.run(t, c)
						})
					}
				})
			}
		}
	}
}
