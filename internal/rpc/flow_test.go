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
// when empty (the ± one frame slack), and wakes blocked acquirers with
// ok=false on close.
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
	over.close()
	select {
	case ok := <-done:
		if ok {
			t.Error("acquire on closed window reported ok")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not wake blocked acquirer")
	}
}

// TestFlowValidatedAtConstruction: a window/budget pair no transport can
// honour fails both fabric constructors. It used to be checked per query by
// the engine only, so a mesh came up fine and then failed every query — and
// a negative value silently disabled the gate it was meant to configure.
func TestFlowValidatedAtConstruction(t *testing.T) {
	for _, f := range []Flow{{WindowBytes: 1 << 20, BudgetBytes: 1024}, {WindowBytes: -5}, {BudgetBytes: -1}} {
		if fab, err := NewInprocFabricOpts(2, InprocOptions{Flow: f}); err == nil {
			fab.Close()
			t.Errorf("inproc fabric accepted %+v", f)
		}
		if mesh, err := NewLoopbackMesh(2, TCPOptions{Flow: f}); err == nil {
			mesh.Close()
			t.Errorf("TCP mesh accepted %+v", f)
		}
	}
	if fab, err := NewInprocFabricOpts(2, InprocOptions{Flow: Flow{WindowBytes: 1024, BudgetBytes: 1024}}); err != nil {
		t.Errorf("budget equal to one window rejected: %v", err)
	} else {
		fab.Close()
	}
}

// TestInprocFlowBackpressure: with a per-peer window configured, a fast
// sender's in-flight bytes never exceed the window, sends stall until the
// receiver releases payloads, and every pooled buffer recycles.
func TestInprocFlowBackpressure(t *testing.T) {
	const (
		window = 4096
		frame  = 2048
		frames = 8
	)
	base := bufpool.Outstanding()
	stallsBefore := metersStallCount()
	f, err := NewInprocFabricOpts(2, InprocOptions{Flow: Flow{WindowBytes: window}})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := f.Endpoint(0)
	b, _ := f.Endpoint(1)

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
			if err := a.Send(m); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()

	// Let the sender run into the window before consuming anything, so the
	// stall path is exercised deterministically: two 2048-byte frames fill
	// the 4096-byte window and the third send must block.
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < frames; i++ {
		m, err := b.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		m.Release()
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("send: %v", err)
	}
	if hw := f.FlowHighWater(); hw > window {
		t.Errorf("in-flight high water %d exceeds window %d", hw, window)
	}
	if stalled.Load() == 0 {
		t.Error("no send reported a credit stall via OnStall")
	}
	if after := metersStallCount(); after <= stallsBefore {
		t.Errorf("adr_rpc_credit_stalls_total did not increase (%d -> %d)", stallsBefore, after)
	}
	f.Close()
	if got := bufpool.Outstanding(); got != base {
		t.Errorf("outstanding buffers after close: %d, want %d", got, base)
	}
}

// metersStallCount reads the process-wide inproc credit-stall counter; tests
// assert on deltas because the registry is shared across the package's
// fabrics.
func metersStallCount() int64 {
	f, _ := NewInprocFabricOpts(1, InprocOptions{})
	defer f.Close()
	return f.met.creditStalls.Value()
}

// TestInprocUrgentBypassesWindow: control traffic marked Urgent (abort
// propagation) must never queue behind an exhausted data window.
func TestInprocUrgentBypassesWindow(t *testing.T) {
	f, err := NewInprocFabricOpts(2, InprocOptions{Flow: Flow{WindowBytes: 16}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, _ := f.Endpoint(0)

	// Fill the window; nobody consumes.
	if err := a.Send(Message{Src: 0, Dst: 1, Payload: make([]byte, 16)}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- a.Send(Message{Src: 0, Dst: 1, Urgent: true, Payload: make([]byte, 1024)})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("urgent send: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("urgent send blocked on an exhausted data window")
	}
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

	n0.mu.Lock()
	conn := n0.conns[1]
	n0.mu.Unlock()
	if hw := conn.win.highWater(); hw > window {
		t.Errorf("in-flight high water %d exceeds window %d", hw, window)
	}
	// Credit frames return asynchronously; the charged balance must drain to
	// zero once every payload is released.
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn.flowMu.Lock()
		charged := conn.charged
		conn.flowMu.Unlock()
		if charged == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes still charged after all payloads released", charged)
		}
		time.Sleep(5 * time.Millisecond)
	}
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
		if !errors.As(err, &pe) {
			t.Fatalf("send to dead peer = %v, want *PeerError", err)
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
