package rpc

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"adr/internal/bufpool"
)

// TestFlowWindowGate: the flowWindow primitive admits up to its limit,
// blocks the next acquire until credit returns, admits an oversized charge
// when empty (the ± one frame slack), wakes blocked acquirers with ok=false
// on close, reclaims its balance exactly once and clamps grants.
func TestFlowWindowGate(t *testing.T) {
	w := newFlowWindow(100)
	if _, ok := w.acquire(60); !ok {
		t.Fatal("first acquire refused")
	}
	acquired := make(chan time.Duration, 1)
	go func() {
		stall, ok := w.acquire(60)
		if !ok {
			t.Error("second acquire refused")
		}
		acquired <- stall
	}()
	select {
	case <-acquired:
		t.Fatal("60+60 fit a 100-byte window without blocking")
	case <-time.After(50 * time.Millisecond):
	}
	w.release(60)
	select {
	case stall := <-acquired:
		if stall <= 0 {
			t.Error("blocked acquire reported zero stall")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("acquire still blocked after release")
	}
	if hw := w.highWater(); hw != 60 {
		t.Errorf("high water = %d, want 60", hw)
	}

	// Oversized charge: admitted once the window is empty.
	over := newFlowWindow(10)
	if _, ok := over.acquire(50); !ok {
		t.Fatal("oversized charge refused on empty window")
	}
	done := make(chan bool, 1)
	go func() {
		_, ok := over.acquire(1)
		done <- ok
	}()
	select {
	case <-done:
		t.Fatal("acquire admitted while window over limit")
	case <-time.After(50 * time.Millisecond):
	}
	// close is the reclaim: it returns the balance it held, exactly once, and
	// turns every later release into a no-op.
	if held := over.close(); held != 50 {
		t.Errorf("close returned %d held bytes, want 50", held)
	}
	select {
	case ok := <-done:
		if ok {
			t.Error("acquire on closed window reported ok")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not wake blocked acquirer")
	}
	if got := over.release(50); got != 0 {
		t.Errorf("release after close took %d bytes off the balance, want 0", got)
	}
	if held := over.close(); held != 0 {
		t.Errorf("second close returned %d held bytes, want 0", held)
	}

	// A grant is clamped to what is charged: an overstated count (it may come
	// off the wire) cannot drive the balance negative.
	clamp := newFlowWindow(100)
	clamp.acquire(30)
	if got := clamp.release(1 << 40); got != 30 {
		t.Errorf("overstated release took %d bytes, want the 30 charged", got)
	}
	if got := clamp.release(1); got != 0 {
		t.Errorf("release on an empty window took %d bytes, want 0", got)
	}
}

// TestFlowValidatedAtConstruction: a window no transport can honour fails
// both fabric constructors. It used to be checked per query by the engine
// only, so a mesh came up fine and then failed every query — and a negative
// value silently disabled the gate it was meant to configure.
func TestFlowValidatedAtConstruction(t *testing.T) {
	f := Flow{WindowBytes: -5}
	if fab, err := NewInprocFabricOpts(2, InprocOptions{Flow: f}); err == nil {
		fab.Close()
		t.Errorf("inproc fabric accepted %+v", f)
	}
	if mesh, err := NewLoopbackMesh(2, TCPOptions{Flow: f}); err == nil {
		mesh.Close()
		t.Errorf("TCP mesh accepted %+v", f)
	}
}

// inflightOf reads a gate's charged balance.
func inflightOf(w *flowWindow) int64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.inflight
}

// TestTCPCreditRoundTrip: the TCP transport's credit frames close the loop —
// a sender bounded by a small window finishes a transfer many times the
// window's size once the receiver releases payloads, the per-connection
// in-flight balance returns to zero, and stalls are counted.
func TestTCPCreditRoundTrip(t *testing.T) {
	const (
		window = 8192
		frame  = 4096
		frames = 16
	)
	base := bufpool.Outstanding()
	mesh, err := NewLoopbackMesh(2, TCPOptions{Flow: Flow{WindowBytes: window}})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	n0, n1 := mesh.nodes[0], mesh.nodes[1]

	var stalled atomic.Int64
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			m := Message{
				Src: 0, Dst: 1, Seq: int32(i),
				Payload: bufpool.Get(frame),
				Pooled:  true,
				OnStall: func(d time.Duration) { stalled.Add(d.Nanoseconds()) },
			}
			if err := n0.Send(m); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()

	// Hold consumption until the sender is pinned on the window (two frames
	// in flight fill it), then drain with releases so credit frames flow
	// back.
	time.Sleep(200 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < frames; i++ {
		m, err := n1.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if len(m.Payload) != frame {
			t.Fatalf("recv %d: %d-byte payload, want %d", i, len(m.Payload), frame)
		}
		m.Release()
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("send: %v", err)
	}
	if stalled.Load() == 0 {
		t.Error("no send reported a credit stall via OnStall")
	}

	gate := n0.peers[1].gate
	if hw := gate.highWater(); hw > window {
		t.Errorf("in-flight high water %d exceeds window %d", hw, window)
	}
	// Credit frames return asynchronously; the charged balance must drain to
	// zero once every payload is released.
	eventually(t, "the charged balance to drain", func() bool { return inflightOf(gate) == 0 })
	if got := bufpool.Outstanding(); got != base {
		t.Errorf("outstanding buffers after transfer: %d, want %d", got, base)
	}
}

// TestTCPTeardownRecyclesOutbox pins satellite bug 1: when a peer stops
// draining and the connection is torn down, every pooled payload parked in
// the outbox (and any the peer's inbox absorbed) must return to the pool —
// the pre-fix transport leaked all of them.
func TestTCPTeardownRecyclesOutbox(t *testing.T) {
	base := bufpool.Outstanding()
	mesh, err := NewLoopbackMesh(2, TCPOptions{
		InboxDepth:  1,
		SendTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Node 1 never receives; pooled 1 MiB payloads fill its inbox, the
	// sockets and then node 0's outbox until the send times out and the
	// connection dies with buffers stranded at every stage.
	n0 := mesh.nodes[0]
	var sendErr error
	for i := 0; i < 200; i++ {
		m := Message{Src: 0, Dst: 1, Seq: int32(i), Payload: bufpool.Get(1 << 20), Pooled: true}
		if sendErr = n0.Send(m); sendErr != nil {
			break
		}
	}
	var pe *PeerError
	if !errors.As(sendErr, &pe) {
		t.Fatalf("blocked send returned %v, want *PeerError", sendErr)
	}
	mesh.Close()

	// Teardown is asynchronous (writeLoop drains the outbox on its way out).
	deadline := time.Now().Add(10 * time.Second)
	for bufpool.Outstanding() != base {
		if time.Now().After(deadline) {
			t.Fatalf("outstanding buffers after teardown: %d, want %d",
				bufpool.Outstanding(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSendAfterDeathRecyclesPayload pins satellite bug 2 on both transports:
// a Send that fails because the destination already died must recycle the
// pooled payload it took ownership of, and fail with a *PeerError.
func TestSendAfterDeathRecyclesPayload(t *testing.T) {
	t.Run("inproc", func(t *testing.T) {
		base := bufpool.Outstanding()
		f, err := NewInprocFabric(2, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		a, _ := f.Endpoint(0)
		b, _ := f.Endpoint(1)
		b.Close()
		var pe *PeerError
		err = a.Send(Message{Src: 0, Dst: 1, Payload: bufpool.Get(4096), Pooled: true})
		if !errors.As(err, &pe) || !errors.Is(err, ErrClosed) {
			t.Fatalf("send to dead peer = %v, want *PeerError wrapping ErrClosed", err)
		}
		if got := bufpool.Outstanding(); got != base {
			t.Errorf("outstanding buffers after failed send: %d, want %d", got, base)
		}
	})
	t.Run("tcp", func(t *testing.T) {
		base := bufpool.Outstanding()
		mesh, err := NewLoopbackMesh(2, TCPOptions{SendTimeout: 500 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer mesh.Close()
		n0 := mesh.nodes[0]
		mesh.nodes[1].Close()

		// Death detection is asynchronous; keep sending pooled payloads until
		// the transport reports the peer dead. Payloads accepted before the
		// detection transfer ownership to the transport, which must recycle
		// them during connection teardown.
		var pe *PeerError
		deadline := time.Now().Add(10 * time.Second)
		for {
			err := n0.Send(Message{Src: 0, Dst: 1, Payload: bufpool.Get(4096), Pooled: true})
			if errors.As(err, &pe) {
				break
			}
			if err != nil {
				t.Fatalf("send failed with %v, want *PeerError", err)
			}
			if time.Now().After(deadline) {
				t.Fatal("peer death never surfaced on sends")
			}
			time.Sleep(5 * time.Millisecond)
		}
		for bufpool.Outstanding() != base {
			if time.Now().After(deadline) {
				t.Fatalf("outstanding buffers after failed sends: %d, want %d",
					bufpool.Outstanding(), base)
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}
