package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"adr/internal/bufpool"
)

// fabricCase runs a subtest against both transports.
func fabricCase(t *testing.T, nodes int, fn func(t *testing.T, f Fabric)) {
	t.Helper()
	t.Run("inproc", func(t *testing.T) {
		f, err := NewInprocFabric(nodes, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		fn(t, f)
	})
	t.Run("tcp", func(t *testing.T) {
		f, err := NewLoopbackMesh(nodes, TCPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		fn(t, f)
	})
}

func TestPointToPoint(t *testing.T) {
	fabricCase(t, 2, func(t *testing.T, f Fabric) {
		a, _ := f.Endpoint(0)
		b, _ := f.Endpoint(1)
		want := Message{Src: 0, Dst: 1, Type: 3, Tile: 7, Seq: 42, Payload: []byte("ghost chunk")}
		if err := a.Send(want); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got.Src != 0 || got.Dst != 1 || got.Type != 3 || got.Tile != 7 || got.Seq != 42 ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("got %+v", got)
		}
	})
}

func TestSelfSend(t *testing.T) {
	fabricCase(t, 1, func(t *testing.T, f Fabric) {
		a, _ := f.Endpoint(0)
		if err := a.Send(Message{Src: 0, Dst: 0, Seq: 9}); err != nil {
			t.Fatal(err)
		}
		got, err := a.Recv(context.Background())
		if err != nil || got.Seq != 9 {
			t.Fatalf("self recv = %+v, %v", got, err)
		}
	})
}

func TestPerPairOrdering(t *testing.T) {
	fabricCase(t, 2, func(t *testing.T, f Fabric) {
		a, _ := f.Endpoint(0)
		b, _ := f.Endpoint(1)
		const n = 500
		go func() {
			for i := 0; i < n; i++ {
				if err := a.Send(Message{Src: 0, Dst: 1, Seq: int32(i)}); err != nil {
					return
				}
			}
		}()
		for i := 0; i < n; i++ {
			m, err := b.Recv(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if m.Seq != int32(i) {
				t.Fatalf("message %d arrived with seq %d: ordering violated", i, m.Seq)
			}
		}
	})
}

func TestAllToAll(t *testing.T) {
	const nodes = 5
	const per = 40
	fabricCase(t, nodes, func(t *testing.T, f Fabric) {
		var wg sync.WaitGroup
		errCh := make(chan error, nodes*2)
		for id := 0; id < nodes; id++ {
			ep, err := f.Endpoint(NodeID(id))
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(2)
			// Sender: per messages to every other node.
			go func(ep Endpoint) {
				defer wg.Done()
				for k := 0; k < per; k++ {
					for dst := 0; dst < nodes; dst++ {
						if dst == int(ep.Self()) {
							continue
						}
						m := Message{
							Src: ep.Self(), Dst: NodeID(dst), Seq: int32(k),
							Payload: []byte(fmt.Sprintf("%d->%d #%d", ep.Self(), dst, k)),
						}
						if err := ep.Send(m); err != nil {
							errCh <- err
							return
						}
					}
				}
			}(ep)
			// Receiver: expects per*(nodes-1) messages.
			go func(ep Endpoint) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				defer cancel()
				counts := make(map[NodeID]int32)
				for i := 0; i < per*(nodes-1); i++ {
					m, err := ep.Recv(ctx)
					if err != nil {
						errCh <- fmt.Errorf("node %d recv: %w", ep.Self(), err)
						return
					}
					if m.Dst != ep.Self() {
						errCh <- fmt.Errorf("node %d got message for %d", ep.Self(), m.Dst)
						return
					}
					if m.Seq != counts[m.Src] {
						errCh <- fmt.Errorf("node %d: from %d seq %d, want %d",
							ep.Self(), m.Src, m.Seq, counts[m.Src])
						return
					}
					counts[m.Src]++
				}
			}(ep)
		}
		wg.Wait()
		select {
		case err := <-errCh:
			t.Fatal(err)
		default:
		}
	})
}

func TestLargePayload(t *testing.T) {
	fabricCase(t, 2, func(t *testing.T, f Fabric) {
		a, _ := f.Endpoint(0)
		b, _ := f.Endpoint(1)
		payload := make([]byte, 4<<20) // 4 MiB chunk
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		go func() {
			a.Send(Message{Src: 0, Dst: 1, Payload: payload})
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		got, err := b.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Payload, payload) {
			t.Error("large payload corrupted in transit")
		}
	})
}

func TestSendValidation(t *testing.T) {
	fabricCase(t, 2, func(t *testing.T, f Fabric) {
		a, _ := f.Endpoint(0)
		if err := a.Send(Message{Src: 0, Dst: 5}); err == nil {
			t.Error("out-of-range dst should fail")
		}
		if err := a.Send(Message{Src: 1, Dst: 0}); err == nil {
			t.Error("spoofed src should fail")
		}
	})
}

func TestRecvContextCancel(t *testing.T) {
	fabricCase(t, 1, func(t *testing.T, f Fabric) {
		a, _ := f.Endpoint(0)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if _, err := a.Recv(ctx); err == nil {
			t.Error("Recv should fail on context timeout")
		}
	})
}

func TestCloseUnblocksRecv(t *testing.T) {
	fabricCase(t, 2, func(t *testing.T, f Fabric) {
		b, _ := f.Endpoint(1)
		done := make(chan error, 1)
		go func() {
			_, err := b.Recv(context.Background())
			done <- err
		}()
		time.Sleep(20 * time.Millisecond)
		f.Close()
		select {
		case err := <-done:
			if err == nil {
				t.Error("Recv after close should error")
			}
		case <-time.After(5 * time.Second):
			t.Error("Recv did not unblock on close")
		}
	})
}

func TestEndpointLookupErrors(t *testing.T) {
	fabricCase(t, 2, func(t *testing.T, f Fabric) {
		if _, err := f.Endpoint(-1); err == nil {
			t.Error("negative id should fail")
		}
		if _, err := f.Endpoint(2); err == nil {
			t.Error("out-of-range id should fail")
		}
	})
}

func TestInprocValidation(t *testing.T) {
	if _, err := NewInprocFabric(0, 0); err == nil {
		t.Error("0-node fabric should fail")
	}
}

func TestMeshValidation(t *testing.T) {
	if _, err := NewLoopbackMesh(0, TCPOptions{}); err == nil {
		t.Error("0-node mesh should fail")
	}
}

func TestCloseRetiresUnreadMessages(t *testing.T) {
	// Closing the fabric retires messages nobody consumed: pooled payloads
	// recycle (the bufpool balance returns to its baseline) and Recv reports
	// the shutdown instead of handing out retired messages. Consumers are
	// expected to drain before closing — the engine's mailbox runs until its
	// endpoint reports closed.
	base := bufpool.Outstanding()
	f, err := NewInprocFabric(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := f.Endpoint(0)
	b, _ := f.Endpoint(1)
	payload := bufpool.Get(4096)
	if err := a.Send(Message{Src: 0, Dst: 1, Seq: 5, Payload: payload, Pooled: true}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := b.Recv(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("recv after close: %v, want ErrClosed", err)
	}
	if got := bufpool.Outstanding(); got != base {
		t.Errorf("outstanding buffers after close: %d, want %d", got, base)
	}
}

func BenchmarkInprocRoundTrip(b *testing.B) {
	f, _ := NewInprocFabric(2, 0)
	defer f.Close()
	a, _ := f.Endpoint(0)
	bb, _ := f.Endpoint(1)
	payload := make([]byte, 1024)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send(Message{Src: 0, Dst: 1, Payload: payload})
		m, _ := bb.Recv(ctx)
		bb.Send(Message{Src: 1, Dst: 0, Payload: m.Payload})
		a.Recv(ctx)
	}
}

func BenchmarkTCPRoundTrip(b *testing.B) {
	f, err := NewLoopbackMesh(2, TCPOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	a, _ := f.Endpoint(0)
	bb, _ := f.Endpoint(1)
	payload := make([]byte, 1024)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send(Message{Src: 0, Dst: 1, Payload: payload})
		m, _ := bb.Recv(ctx)
		bb.Send(Message{Src: 1, Dst: 0, Payload: m.Payload})
		a.Recv(ctx)
	}
}

// TestTCPGarbageConnection: random bytes thrown at an established mesh
// node's port must not disturb message delivery between the real peers.
func TestTCPGarbageConnection(t *testing.T) {
	mesh, err := NewLoopbackMesh(2, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	a, _ := mesh.Endpoint(0)
	b, _ := mesh.Endpoint(1)

	// Attack both nodes' mesh ports with garbage.
	for id := 0; id < 2; id++ {
		n := mesh.nodes[id]
		conn, err := net.Dial("tcp", n.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write([]byte("\xff\xff\xff\xffgarbage frames and nonsense"))
		conn.Close()
	}
	time.Sleep(50 * time.Millisecond)

	// The mesh still works.
	if err := a.Send(Message{Src: 0, Dst: 1, Seq: 123, Payload: []byte("still alive")}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, err := b.Recv(ctx)
	if err != nil || got.Seq != 123 {
		t.Fatalf("mesh broken after garbage connection: %+v, %v", got, err)
	}
}

// TestTCPFrameLimitIsPayload: MaxFrameBytes bounds the payload, not header
// plus payload, on both ends. A payload 10 bytes under the limit arrives
// intact; one byte over it is refused by the sender with both sizes named,
// and the peer stays up for the next send.
func TestTCPFrameLimitIsPayload(t *testing.T) {
	mesh, err := NewLoopbackMesh(2, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	a, _ := mesh.Endpoint(0)
	b, _ := mesh.Endpoint(1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	near := make([]byte, MaxFrameBytes-10)
	near[0], near[len(near)-1] = 0xad, 0xdc
	if err := a.Send(Message{Src: 0, Dst: 1, Seq: 1, Payload: near}); err != nil {
		t.Fatalf("send %d bytes: %v", len(near), err)
	}
	got, err := b.Recv(ctx)
	if err != nil || got.Seq != 1 || len(got.Payload) != len(near) ||
		got.Payload[0] != 0xad || got.Payload[len(near)-1] != 0xdc {
		t.Fatalf("recv = type %v seq %d, %d bytes, %v; want seq 1 with %d bytes", got.Type, got.Seq, len(got.Payload), err, len(near))
	}
	got.Release()

	err = a.Send(Message{Src: 0, Dst: 1, Seq: 2, Payload: make([]byte, MaxFrameBytes+1)})
	var pe *PeerError
	if err == nil || errors.As(err, &pe) ||
		!strings.Contains(err.Error(), strconv.Itoa(MaxFrameBytes+1)) || !strings.Contains(err.Error(), strconv.Itoa(MaxFrameBytes)) {
		t.Fatalf("oversized send = %v; want a local error naming %d and %d", err, MaxFrameBytes+1, MaxFrameBytes)
	}
	if err := a.Send(Message{Src: 0, Dst: 1, Seq: 3, Payload: []byte("after")}); err != nil {
		t.Fatalf("send after a refused payload: %v", err)
	}
	if got, err := b.Recv(ctx); err != nil || got.Seq != 3 {
		t.Fatalf("recv after a refused payload = %+v, %v; want seq 3 (peer must stay up)", got, err)
	}
}

// TestTCPOversizedFrameDropsPeer: a peer announcing an absurd frame length
// has its connection dropped rather than allocating gigabytes.
func TestTCPOversizedFrameDropsPeer(t *testing.T) {
	mesh, err := NewLoopbackMesh(2, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	// Reach into node 0's connection to node 1 and write a poisoned header.
	n0 := mesh.nodes[0]
	n0.mu.Lock()
	conn := n0.conns[1]
	n0.mu.Unlock()
	var hdr [4 + tcpHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(tcpHeaderLen+MaxFrameBytes+1))
	if _, err := conn.c.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	// Node 1's read loop must exit: node 0 is dead to it, and the poisoned
	// frame is never delivered — the death notice is all that arrives.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	b, _ := mesh.Endpoint(1)
	if m, err := b.Recv(ctx); err != nil || m.Type != MsgPeerDown || m.Src != 0 {
		t.Fatalf("recv after a poisoned frame = %+v, %v; want node 0's MsgPeerDown", m, err)
	}
	short, cancelShort := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancelShort()
	if m, err := b.Recv(short); err == nil {
		t.Fatalf("poisoned frame delivered: %+v", m)
	}
}
