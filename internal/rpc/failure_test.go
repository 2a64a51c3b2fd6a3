package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// TestTCPMeshStartFailsWhenPeerNeverDials: mesh establishment is bounded by
// DialRetry on the accepting side too. Node 1 of 2 waits for node 0 to dial
// in; node 0 never starts, so joining fails with an error naming it instead
// of waiting forever.
func TestTCPMeshStartFailsWhenPeerNeverDials(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		n, err := NewTCPNodeWithListener(1, []string{"127.0.0.1:1", ln.Addr().String()}, ln, TCPOptions{DialRetry: 200 * time.Millisecond})
		if n != nil {
			n.Close()
		}
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "nodes [0] never connected") {
			t.Errorf("join error = %v, want one naming node 0", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("mesh start still waiting for node 0 after 3s")
	}
}

// TestTCPPeerDeathFailsSurvivors: killing one node of an established mesh
// must surface on every survivor — as a MsgPeerDown from the dead node to a
// blocked receive and a *PeerError naming it to a subsequent send — never a
// silent hang.
func TestTCPPeerDeathFailsSurvivors(t *testing.T) {
	mesh, err := NewLoopbackMesh(3, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()

	// Survivors block in Recv before the victim dies.
	type outcome struct {
		node NodeID
		m    Message
		err  error
	}
	results := make(chan outcome, 2)
	for id := 1; id < 3; id++ {
		ep, _ := mesh.Endpoint(NodeID(id))
		go func(ep Endpoint) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			m, err := ep.Recv(ctx)
			results <- outcome{ep.Self(), m, err}
		}(ep)
	}
	time.Sleep(50 * time.Millisecond)
	mesh.nodes[0].Close() // node 0 dies

	for i := 0; i < 2; i++ {
		select {
		case res := <-results:
			if res.err != nil || res.m.Type != MsgPeerDown || res.m.Src != 0 {
				t.Fatalf("node %d: recv = %+v, %v; want node 0's MsgPeerDown", res.node, res.m, res.err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("survivor hung after peer death")
		}
	}

	// Sends to the dead peer fail fast once the failure is detected.
	n1 := mesh.nodes[1]
	var pe *PeerError
	if err := n1.Send(Message{Src: 1, Dst: 0}); !errors.As(err, &pe) {
		t.Errorf("send to dead peer = %v, want *PeerError", err)
	}

	// Liveness is visible in the metrics registry.
	if v := n1.met.peerUp[0].Value(); v != 0 {
		t.Errorf("adr_rpc_peer_up{peer=0} = %v after death, want 0", v)
	}
	if n1.met.peerFailures.Value() == 0 {
		t.Error("adr_rpc_peer_failures_total not incremented")
	}
}

// TestTCPSendTimeoutMarksPeerDead: a peer that stops draining its connection
// must not block the sender forever — the send times out with a *PeerError
// and the peer is dead for every later send.
func TestTCPSendTimeoutMarksPeerDead(t *testing.T) {
	mesh, err := NewLoopbackMesh(2, TCPOptions{
		InboxDepth:  1,
		SendTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()

	// Node 1 never receives. Large payloads fill its inbox, the socket
	// buffers and then node 0's outbox; the blocked send must time out
	// rather than wedge.
	n0 := mesh.nodes[0]
	payload := make([]byte, 1<<20)
	var sendErr error
	for i := 0; i < 200; i++ {
		if sendErr = n0.Send(Message{Src: 0, Dst: 1, Seq: int32(i), Payload: payload}); sendErr != nil {
			break
		}
	}
	var pe *PeerError
	if !errors.As(sendErr, &pe) {
		t.Fatalf("blocked send returned %v, want *PeerError", sendErr)
	}
	if pe.Peer != 1 {
		t.Errorf("timeout names peer %d, want 1", pe.Peer)
	}
	// The peer is now dead: the next send fails immediately.
	start := time.Now()
	if err := n0.Send(Message{Src: 0, Dst: 1, Payload: payload}); !errors.As(err, &pe) {
		t.Errorf("send after timeout = %v, want *PeerError", err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Errorf("send after peer death took %v, want fail-fast", d)
	}
}

// TestTCPMalformedFrameClosesConnection: a frame whose length field is
// impossible must kill the whole connection on the receiving side — reads
// AND writes — with the decoded reason recorded, not just end the read half.
func TestTCPMalformedFrameClosesConnection(t *testing.T) {
	mesh, err := NewLoopbackMesh(2, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()

	// Write a header announcing a frame shorter than the header itself
	// directly into node 0's socket to node 1.
	n0 := mesh.nodes[0]
	n0.mu.Lock()
	conn := n0.conns[1]
	n0.mu.Unlock()
	var hdr [4 + tcpHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], 5) // < tcpHeaderLen
	if _, err := conn.c.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}

	// Node 1 detects the malformed frame: node 0 is dead to it, and the
	// recorded cause names the frame decode. The write half died with the
	// read half: sends to node 0 fail with that cause.
	n1 := mesh.nodes[1]
	awaitDeath(t, n1, 0)
	var pe *PeerError
	if err := n1.Send(Message{Src: 1, Dst: 0}); !errors.As(err, &pe) {
		t.Fatalf("send on poisoned connection = %v, want *PeerError", err)
	}
	if pe.Op != "frame" || pe.Peer != 0 {
		t.Errorf("failure = peer %d op %q, want peer 0 op \"frame\"", pe.Peer, pe.Op)
	}
}

// TestTCPForgedSourceFrame: a well-formed header whose src or dst does not
// name the connection it arrives on is a malformed frame — the connection
// dies with op "frame". Unchecked, src=9999 indexed the per-peer meters out
// of range and took the whole node process down.
func TestTCPForgedSourceFrame(t *testing.T) {
	for _, forged := range []struct {
		name     string
		src, dst NodeID
	}{{"src", 9999, 1}, {"dst", 0, 0}} {
		t.Run(forged.name, func(t *testing.T) {
			mesh, err := NewLoopbackMesh(2, TCPOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer mesh.Close()
			n0 := mesh.nodes[0]
			n0.mu.Lock()
			conn := n0.conns[1]
			n0.mu.Unlock()
			if err := writeFrame(conn.c, &Message{Src: forged.src, Dst: forged.dst, Type: 1}, false); err != nil {
				t.Fatal(err)
			}

			awaitDeath(t, mesh.nodes[1], 0)
			var pe *PeerError
			if err := mesh.nodes[1].Send(Message{Src: 1, Dst: 0}); !errors.As(err, &pe) {
				t.Fatalf("send after forged frame = %v; want *PeerError", err)
			}
			if pe.Op != "frame" || pe.Peer != 0 {
				t.Errorf("failure = peer %d op %q, want peer 0 op \"frame\"", pe.Peer, pe.Op)
			}
		})
	}
}
