package faultep

import (
	"context"
	"errors"
	"testing"
	"time"

	"adr/internal/rpc"
)

// all matches every message.
func all(rpc.Message) bool { return true }

// matchType matches messages of one engine message type.
func matchType(t uint8) Predicate {
	return func(m rpc.Message) bool { return uint8(m.Type) == t }
}

// matchDst matches messages addressed to one node.
func matchDst(id rpc.NodeID) Predicate {
	return func(m rpc.Message) bool { return m.Dst == id }
}

func pair(t *testing.T) (a, b rpc.Endpoint, cleanup func()) {
	t.Helper()
	f, err := rpc.NewInprocFabric(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, _ = f.Endpoint(0)
	b, _ = f.Endpoint(1)
	return a, b, func() { f.Close() }
}

func TestTransparentWithoutRules(t *testing.T) {
	a, b, cleanup := pair(t)
	defer cleanup()
	w := wrap(a)
	if w.Self() != 0 || w.Nodes() != 2 {
		t.Errorf("identity not forwarded: self %d nodes %d", w.Self(), w.Nodes())
	}
	if err := w.Send(rpc.Message{Src: 0, Dst: 1, Seq: 4}); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(context.Background())
	if err != nil || got.Seq != 4 {
		t.Fatalf("recv = %+v, %v", got, err)
	}
}

func TestSendDrop(t *testing.T) {
	a, b, cleanup := pair(t)
	defer cleanup()
	w := wrap(a)
	w.OnSend(matchType(3), Action{Drop: true})
	// The dropped send reports success; the other type passes.
	if err := w.Send(rpc.Message{Src: 0, Dst: 1, Type: 3, Seq: 1}); err != nil {
		t.Fatalf("dropped send errored: %v", err)
	}
	if err := w.Send(rpc.Message{Src: 0, Dst: 1, Type: 2, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(context.Background())
	if err != nil || got.Seq != 2 {
		t.Fatalf("survivor = %+v, %v (dropped message delivered?)", got, err)
	}
}

func TestSendErr(t *testing.T) {
	a, _, cleanup := pair(t)
	defer cleanup()
	w := wrap(a)
	boom := errors.New("injected link failure")
	w.OnSend(matchDst(1), Action{Err: boom})
	if err := w.Send(rpc.Message{Src: 0, Dst: 1}); !errors.Is(err, boom) {
		t.Errorf("send = %v, want injected error", err)
	}
	// Self-sends don't match Dst 1 and still work.
	if err := w.Send(rpc.Message{Src: 0, Dst: 0}); err != nil {
		t.Errorf("unmatched send failed: %v", err)
	}
}

func TestRecvDropSkips(t *testing.T) {
	a, b, cleanup := pair(t)
	defer cleanup()
	w := wrap(b)
	w.OnRecv(func(m rpc.Message) bool { return m.Seq == 1 }, Action{Drop: true})
	for seq := int32(1); seq <= 2; seq++ {
		if err := a.Send(rpc.Message{Src: 0, Dst: 1, Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := w.Recv(context.Background())
	if err != nil || got.Seq != 2 {
		t.Fatalf("recv = %+v, %v, want the undropped seq 2", got, err)
	}
}

func TestRecvDelayHonoursContext(t *testing.T) {
	a, b, cleanup := pair(t)
	defer cleanup()
	w := wrap(b)
	w.OnRecv(all, Action{Delay: 10 * time.Second})
	if err := a.Send(rpc.Message{Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := w.Recv(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("delayed recv = %v, want deadline exceeded", err)
	}
}

func TestFirstMatchWinsAndReset(t *testing.T) {
	a, _, cleanup := pair(t)
	defer cleanup()
	w := wrap(a)
	first := errors.New("first rule")
	w.OnSend(all, Action{Err: first})
	w.OnSend(all, Action{Drop: true})
	if err := w.Send(rpc.Message{Src: 0, Dst: 1}); !errors.Is(err, first) {
		t.Errorf("send = %v, want first rule's error", err)
	}
	// The rules belong to the wrapper: a fresh one over the same endpoint
	// starts with none.
	if err := wrap(a).Send(rpc.Message{Src: 0, Dst: 1}); err != nil {
		t.Errorf("send through a fresh wrapper = %v, want transparent delivery", err)
	}
}

func TestFabricMemoizesWrappers(t *testing.T) {
	inner, err := rpc.NewInprocFabric(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := WrapFabric(inner)
	defer f.Close()
	n0, err := f.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("programmed fault")
	n0.OnSend(all, Action{Err: boom})
	// The generic Endpoint accessor must hand back the same wrapper, rules
	// included — that is what lets tests program faults and then give the
	// fabric to the engine.
	ep, err := f.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(rpc.Message{Src: 0, Dst: 1}); !errors.Is(err, boom) {
		t.Errorf("memoization lost the rule: send = %v", err)
	}
	if _, err := f.Endpoint(5); err == nil {
		t.Error("out-of-range endpoint should fail")
	}
}
