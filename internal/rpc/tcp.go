package rpc

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adr/internal/bufpool"
)

// TCP transport: each node is a process with a listener; the fabric is a
// full mesh of TCP connections. Node i dials every node j > i and accepts
// connections from every node j < i, so each unordered pair shares exactly
// one connection. A 4-byte handshake identifies the dialling node.
//
// Frame layout (little endian):
//
//	length  uint32  (bytes after this field)
//	src     int32
//	dst     int32
//	type    uint8
//	flags   uint8
//	query   int32
//	tile    int32
//	seq     int32
//	payload [length-22]byte
//
// flags bit 0 (frameFlow) marks a payload charged against the sender's
// credit window: the receiver owes a credit grant for its bytes once the
// engine releases the payload. flags bit 1 (frameCredit) marks a credit
// grant itself — a transport-internal frame whose 8-byte payload is the
// byte count being returned; it is never delivered to Recv and is itself
// exempt from flow control (a grant that needed credit to send could never
// unblock anyone). The other six bits are unused: writers leave them zero
// and readers ignore them.
//
// A frame's src and dst must name the connection it arrives on (src the
// peer, dst this node); anything else is a malformed header.
//
// Failure model: the mesh is static, so a failed peer connection is
// permanent. When a read, write, frame decode or send timeout fails, the
// whole connection is closed (never just one half) and the peer goes through
// the shared core's peerDown: it is marked dead with the reason recorded,
// every pending and future Send to it fails fast with a *PeerError, its
// blocked senders wake (the credit window closes, reclaiming what it held),
// and Recv delivers one MsgPeerDown after the messages buffered ahead of it,
// which is how nodes that are purely waiting on the dead peer learn of the
// failure. The endpoint stays up for the survivors. A dead connection's
// queued frames are drained and their pooled payloads recycled. Liveness is
// exported through the metrics registry as
// adr_rpc_peer_up{transport="tcp",peer="N"} and adr_rpc_peer_failures_total.
const tcpHeaderLen = 22

// Frame flag bits (see the frame layout above).
const (
	frameFlow   = 1 << 0 // payload charged against the sender's credit window
	frameCredit = 1 << 1 // transport-internal credit grant, never delivered
)

// MaxFrameBytes bounds a single message payload (64 MiB), the frame header
// not counted: far above any chunk in the paper's applications, low enough
// to reject garbage lengths from a confused peer. TCPNode.Send refuses a
// larger payload before anything is written, and readFrame refuses a length
// past tcpHeaderLen + MaxFrameBytes.
const MaxFrameBytes = 64 << 20

// defaultSendTimeout bounds how long a Send may wait for a peer to drain
// its connection before the peer is declared dead. Generous: a healthy peer
// drains a frame in microseconds; only a wedged or partitioned one takes
// 30 s.
const defaultSendTimeout = 30 * time.Second

// dialTimeout bounds each connection attempt while the mesh comes up.
const dialTimeout = 5 * time.Second

// TCPNode is a single node's endpoint over the TCP mesh: the shared core
// (gates, inbox, Recv, peer death) plus the connections that frame messages
// to and from it.
type TCPNode struct {
	*core
	ln          net.Listener
	sendTimeout time.Duration

	mu    sync.Mutex
	conns map[NodeID]*tcpConn
	wg    sync.WaitGroup
}

// tcpConn is the one connection to a peer. Whether the peer is dead, and
// why, is the core's peers[peer] state.
type tcpConn struct {
	peer   NodeID
	c      net.Conn
	outbox chan Message
	// pendingCredit accumulates consumed-payload bytes owed to the peer;
	// writeLoop flushes it as a credit frame ahead of data traffic. kick
	// wakes an idle writeLoop when credit accrues.
	pendingCredit atomic.Int64
	kick          chan struct{}
}

// grantCredit records consumed-payload bytes owed back to the peer and
// nudges the writeLoop to flush them. Called from Message.Release on
// whatever goroutine consumed the payload; after connection death the
// credit simply never ships, which is fine — the peer's teardown reclaimed
// its whole balance already.
func (c *tcpConn) grantCredit(n int64) {
	c.pendingCredit.Add(n)
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// TCPOptions tunes fabric establishment, failure detection and flow
// control.
type TCPOptions struct {
	// DialRetry bounds mesh establishment (default 30s): how long to keep
	// retrying dials, and how long to wait for lower-numbered peers to dial
	// in. Peers start in arbitrary order; dial attempts back off
	// exponentially from 50ms to 1s between retries.
	DialRetry time.Duration
	// InboxDepth bounds buffered inbound messages (default 1024).
	InboxDepth int
	// SendTimeout bounds how long a Send may block on a peer that is not
	// draining its connection, and how long a single frame write may take on
	// the wire. On expiry the peer is marked dead and the Send fails with a
	// *PeerError. 0 selects 30 s; negative disables the
	// timeout entirely (sends may block indefinitely, the pre-fault-model
	// behaviour).
	SendTimeout time.Duration
	// Flow bounds this node's in-flight payload bytes (see Flow).
	Flow Flow
}

func (o *TCPOptions) defaults() {
	if o.DialRetry <= 0 {
		o.DialRetry = 30 * time.Second
	}
	if o.SendTimeout == 0 {
		o.SendTimeout = defaultSendTimeout
	}
}

// NewTCPNode joins the mesh as node self. addrs lists every node's listen
// address, indexed by node id; addrs[self] is this node's own listen
// address (it may use port 0 only in single-node meshes, since peers must
// know the port). The call blocks until the full mesh is established.
func NewTCPNode(self NodeID, addrs []string, opts TCPOptions) (*TCPNode, error) {
	if self < 0 || int(self) >= len(addrs) {
		return nil, fmt.Errorf("rpc: node %d not in address list of %d", self, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[self])
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %s: %w", addrs[self], err)
	}
	return NewTCPNodeWithListener(self, addrs, ln, opts)
}

// NewTCPNodeWithListener is NewTCPNode with a pre-bound listener, so callers
// (and tests) can reserve every node's port before any node starts dialling.
func NewTCPNodeWithListener(self NodeID, addrs []string, ln net.Listener, opts TCPOptions) (*TCPNode, error) {
	opts.defaults()
	if self < 0 || int(self) >= len(addrs) {
		ln.Close()
		return nil, fmt.Errorf("rpc: node %d not in address list of %d", self, len(addrs))
	}
	if err := opts.Flow.Validate(); err != nil {
		ln.Close()
		return nil, err
	}
	met := newMeters("tcp", len(addrs))
	n := &TCPNode{
		core:        newCore(self, len(addrs), opts.InboxDepth, opts.Flow, met),
		ln:          ln,
		conns:       make(map[NodeID]*tcpConn),
		sendTimeout: opts.SendTimeout,
	}
	// A node is trivially up to itself; without this the self slot of
	// adr_rpc_peer_up reads as dead on every node's own export.
	met.up(self)

	var wg sync.WaitGroup
	errs := make(chan error, len(addrs))

	// Accept connections from lower-numbered peers, bounded by DialRetry like
	// the dials: a peer that never dials in is a startup error naming it,
	// not a hang.
	deadline := time.Now().Add(opts.DialRetry)
	if dl, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		dl.SetDeadline(deadline)
		defer dl.SetDeadline(time.Time{})
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < int(self); i++ {
			c, err := ln.Accept()
			if err != nil {
				var missing []NodeID
				n.mu.Lock()
				for p := NodeID(0); p < self; p++ {
					if n.conns[p] == nil {
						missing = append(missing, p)
					}
				}
				n.mu.Unlock()
				errs <- fmt.Errorf("rpc: node %d: nodes %v never connected within %v: %w", self, missing, opts.DialRetry, err)
				return
			}
			c.SetReadDeadline(deadline)
			var hdr [4]byte
			if _, err := io.ReadFull(c, hdr[:]); err != nil {
				errs <- fmt.Errorf("rpc: handshake read: %w", err)
				c.Close()
				return
			}
			c.SetReadDeadline(time.Time{})
			peer := NodeID(int32(binary.LittleEndian.Uint32(hdr[:])))
			if peer < 0 || int(peer) >= len(addrs) || peer >= self {
				errs <- fmt.Errorf("rpc: unexpected handshake from node %d", peer)
				c.Close()
				return
			}
			n.addConn(peer, c)
		}
	}()

	// Dial higher-numbered peers, backing off between attempts while the
	// mesh comes up.
	for peer := int(self) + 1; peer < len(addrs); peer++ {
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			deadline := time.Now().Add(opts.DialRetry)
			backoff := 50 * time.Millisecond
			for {
				c, err := net.DialTimeout("tcp", addrs[peer], dialTimeout)
				if err == nil {
					var hdr [4]byte
					binary.LittleEndian.PutUint32(hdr[:], uint32(self))
					if _, err := c.Write(hdr[:]); err != nil {
						errs <- peerErr(NodeID(peer), "dial", fmt.Errorf("handshake write: %w", err))
						c.Close()
						return
					}
					n.addConn(NodeID(peer), c)
					return
				}
				if time.Now().After(deadline) {
					errs <- peerErr(NodeID(peer), "dial",
						fmt.Errorf("node %d at %s unreachable after %v: %w", peer, addrs[peer], opts.DialRetry, err))
					return
				}
				time.Sleep(backoff)
				if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
			}
		}(peer)
	}

	wg.Wait()
	select {
	case err := <-errs:
		n.Close()
		return nil, err
	default:
	}
	return n, nil
}

func (n *TCPNode) addConn(peer NodeID, c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn := &tcpConn{
		peer: peer,
		c:    c,
		// 64 frames of slack between Send and the socket: enough that a
		// sender rarely waits on the writer, small next to the inbox.
		outbox: make(chan Message, 64),
		kick:   make(chan struct{}, 1),
	}
	n.mu.Lock()
	n.conns[peer] = conn
	n.mu.Unlock()
	n.met.up(peer)

	n.wg.Add(2)
	go n.writeLoop(conn)
	go n.readLoop(conn)
}

// failConn records a connection failure: the peer goes down through the
// core (which knows a failure from this node's own shutdown), the socket
// closes — both halves, so a failure detected on one side of the duplex
// never leaves the other half silently accepting traffic — and every frame
// abandoned in the outbox is recycled.
func (n *TCPNode) failConn(conn *tcpConn, err error) {
	n.peerDown(conn.peer, err)
	conn.c.Close()
	n.drainOutbox(conn)
}

// drainOutbox empties a dead connection's outbox, recycling pooled
// payloads. Safe to call from several goroutines at once — each queued
// frame is consumed by exactly one drainer — and invoked on every writeLoop
// exit path plus Send's post-enqueue death check, so no payload is ever
// abandoned in the queue.
func (n *TCPNode) drainOutbox(conn *tcpConn) {
	for {
		select {
		case m := <-conn.outbox:
			releasePooled(m)
		default:
			return
		}
	}
}

// writeFrame writes m as one data frame; flow stamps frameFlow, telling the
// receiver a credit is owed for the payload.
func writeFrame(w io.Writer, m *Message, flow bool) error {
	var hdr [4 + tcpHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(tcpHeaderLen+len(m.Payload)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(m.Src))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(m.Dst))
	hdr[12] = byte(m.Type)
	if flow {
		hdr[13] = frameFlow
	}
	binary.LittleEndian.PutUint32(hdr[14:], uint32(m.Query))
	binary.LittleEndian.PutUint32(hdr[18:], uint32(m.Tile))
	binary.LittleEndian.PutUint32(hdr[22:], uint32(m.Seq))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(m.Payload) > 0 {
		if _, err := w.Write(m.Payload); err != nil {
			return err
		}
	}
	return nil
}

// writeCredit writes a credit frame granting count bytes from src back to
// dst.
func writeCredit(w io.Writer, src, dst NodeID, count int64) error {
	var buf [4 + tcpHeaderLen + 8]byte
	binary.LittleEndian.PutUint32(buf[0:], uint32(tcpHeaderLen+8))
	binary.LittleEndian.PutUint32(buf[4:], uint32(src))
	binary.LittleEndian.PutUint32(buf[8:], uint32(dst))
	buf[13] = frameCredit
	binary.LittleEndian.PutUint64(buf[4+tcpHeaderLen:], uint64(count))
	_, err := w.Write(buf[:])
	return err
}

// readFrame reads the next frame peer sent to self. Exactly one of three
// things comes back: a data frame's message (owed is the payload bytes the
// sender charged against its window, 0 if it did not), a credit frame's
// grant (credit > 0; never delivered to Recv), or an error — a *PeerError
// with Op "frame" for a header no well-behaved peer writes: a length outside
// [tcpHeaderLen, tcpHeaderLen+MaxFrameBytes], a src or dst that does not
// name this connection, a credit frame that is not an 8-byte positive count.
// The header is checked before any body byte is read or allocated.
func readFrame(r io.Reader, peer, self NodeID) (m Message, owed, credit int64, err error) {
	malformed := func(format string, args ...any) (Message, int64, int64, error) {
		return Message{}, 0, 0, peerErr(peer, "frame", fmt.Errorf(format, args...))
	}
	var hdr [4 + tcpHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, 0, 0, peerErr(peer, "read", err)
	}
	length := binary.LittleEndian.Uint32(hdr[0:])
	if length < tcpHeaderLen || length > tcpHeaderLen+MaxFrameBytes {
		return malformed("malformed frame length %d (valid: %d..%d)", length, tcpHeaderLen, tcpHeaderLen+MaxFrameBytes)
	}
	flags := hdr[13]
	m = Message{
		Src:   NodeID(int32(binary.LittleEndian.Uint32(hdr[4:]))),
		Dst:   NodeID(int32(binary.LittleEndian.Uint32(hdr[8:]))),
		Type:  MsgType(hdr[12]),
		Query: int32(binary.LittleEndian.Uint32(hdr[14:])),
		Tile:  int32(binary.LittleEndian.Uint32(hdr[18:])),
		Seq:   int32(binary.LittleEndian.Uint32(hdr[22:])),
	}
	if m.Src != peer || m.Dst != self {
		return malformed("frame routed %d->%d on the connection %d->%d", m.Src, m.Dst, peer, self)
	}
	payloadLen := int(length) - tcpHeaderLen
	if flags&frameCredit != 0 {
		if payloadLen != 8 {
			return malformed("malformed credit frame payload %d bytes (want 8)", payloadLen)
		}
		var cbuf [8]byte
		if _, err := io.ReadFull(r, cbuf[:]); err != nil {
			return Message{}, 0, 0, peerErr(peer, "read", err)
		}
		if credit = int64(binary.LittleEndian.Uint64(cbuf[:])); credit <= 0 {
			return malformed("credit frame grants %d bytes", credit)
		}
		return Message{}, 0, credit, nil
	}
	if payloadLen > 0 {
		// Each frame body is a fresh pooled buffer owned exclusively by the
		// receiver, which retires it with Message.Release once the payload
		// has been decoded and consumed.
		m.Payload = bufpool.Get(payloadLen)
		m.Pooled = true
		if _, err := io.ReadFull(r, m.Payload); err != nil {
			bufpool.Put(m.Payload)
			return Message{}, 0, 0, peerErr(peer, "read", err)
		}
		if flags&frameFlow != 0 {
			owed = int64(payloadLen)
		}
	}
	return m, owed, 0, nil
}

func (n *TCPNode) writeLoop(conn *tcpConn) {
	defer n.wg.Done()
	// A frame that cannot reach the peer within the send timeout means the
	// peer stopped draining; treat it as dead rather than blocking the whole
	// outbox behind it.
	deadline := func() {
		if n.sendTimeout > 0 {
			conn.c.SetWriteDeadline(time.Now().Add(n.sendTimeout))
		}
	}
	for {
		// Credits first: returning consumed-payload credit must never wait
		// behind queued data frames, or the peer observes stalls far longer
		// than the engine actually held its buffers. One frame carries the
		// connection's whole accrued balance.
		if count := conn.pendingCredit.Swap(0); count > 0 {
			deadline()
			if err := writeCredit(conn.c, n.self, conn.peer, count); err != nil {
				n.failConn(conn, peerErr(conn.peer, "write", err))
				return
			}
		}
		select {
		case m := <-conn.outbox:
			deadline()
			err := writeFrame(conn.c, &m, n.flowCharged(conn.peer, &m))
			// A pooled payload is owned by the transport once Send took it;
			// on the wire or not, it is recycled here so the forward path
			// reuses buffers.
			releasePooled(m)
			if err != nil {
				n.failConn(conn, peerErr(conn.peer, "write", err))
				return
			}
		case <-conn.kick:
			// Credit accrued while idle; loop back to flush it.
		case <-n.peers[conn.peer].dead:
			n.drainOutbox(conn)
			return
		}
	}
}

func (n *TCPNode) readLoop(conn *tcpConn) {
	defer n.wg.Done()
	for {
		m, owed, credit, err := readFrame(conn.c, conn.peer, n.self)
		switch {
		case err != nil:
			n.failConn(conn, err)
			return
		case credit > 0:
			// Transport-internal credit grant: apply and move on.
			n.credited(conn.peer, credit)
			continue
		case owed > 0:
			// The sender charged these bytes against its window; owe the
			// grant until the engine releases the payload.
			m.release = func() { conn.grantCredit(owed) }
		}
		if !n.deliver(m, nil) {
			// Shutdown raced the delivery: retire the frame here so neither
			// the buffer nor (on the dead peer's side, harmlessly) the
			// credit is lost.
			m.Release()
			return
		}
	}
}

// Send routes m; self-sends loop back through the inbox. Sends to a dead
// peer fail fast with a *PeerError; sends to a peer that stops draining
// fail after the configured send timeout (and mark the peer dead). With
// flow control configured, a non-Urgent payload first charges the per-peer
// window, blocking until credit returns from the receiver's releases. A
// payload over MaxFrameBytes is refused here, with no peer marked dead. A
// Pooled payload is owned by the transport on every path out of Send.
func (n *TCPNode) Send(m Message) error {
	if err := n.admit(m); err != nil {
		return err
	}
	if len(m.Payload) > MaxFrameBytes {
		releasePooled(m)
		return fmt.Errorf("rpc: %d-byte payload to node %d is over the %d-byte frame limit", len(m.Payload), m.Dst, MaxFrameBytes)
	}
	if m.Dst == n.self {
		// Loopback traffic never transits readLoop; deliver counts it
		// received, here it is counted sent. Its gate is nil — the engine
		// consumes its own inbox — so no charge is taken.
		if !n.deliver(m, nil) {
			releasePooled(m)
			return ErrClosed
		}
		n.met.sent(m.Dst, len(m.Payload))
		return nil
	}
	n.mu.Lock()
	conn, ok := n.conns[m.Dst]
	n.mu.Unlock()
	if !ok {
		releasePooled(m)
		return &PeerError{Peer: m.Dst, Op: "send", Err: fmt.Errorf("no connection")}
	}
	// Fast path: a dead peer fails immediately, before any credit charge.
	dead := n.peers[m.Dst].dead
	select {
	case <-dead:
		releasePooled(m)
		return n.sendErr(m.Dst)
	default:
	}
	if _, err := n.charge(m.Dst, &m); err != nil {
		releasePooled(m)
		return err
	}
	// Room in the outbox succeeds without a timer allocation.
	select {
	case conn.outbox <- m:
		return n.finishSend(conn, m)
	default:
	}
	var timeout <-chan time.Time // nil (never fires) when the timeout is off
	if n.sendTimeout > 0 {
		timer := time.NewTimer(n.sendTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case conn.outbox <- m:
		return n.finishSend(conn, m)
	case <-dead:
		releasePooled(m)
		return n.sendErr(m.Dst)
	case <-timeout:
		err := &PeerError{Peer: m.Dst, Op: "send",
			Err: fmt.Errorf("timed out after %v: peer not draining", n.sendTimeout)}
		n.failConn(conn, err)
		releasePooled(m)
		return err
	}
}

// finishSend completes a Send whose message reached the outbox: it re-checks
// the connection so an enqueue that raced a concurrent failure (writeLoop
// already gone, frame never to be written) is reported as the *PeerError it
// is, with the payload recycled by the teardown drain rather than leaked in
// the abandoned queue.
func (n *TCPNode) finishSend(conn *tcpConn, m Message) error {
	select {
	case <-n.peers[conn.peer].dead:
		n.drainOutbox(conn)
		return n.sendErr(conn.peer)
	default:
		n.met.sent(m.Dst, len(m.Payload))
		return nil
	}
}

// Close tears the node down: listener, connections, loops, and whatever
// pooled payloads were still queued in either direction. It is safe to call
// again, and after TCPMesh.Close has shut the node.
func (n *TCPNode) Close() error {
	n.shut()
	n.ln.Close()
	n.mu.Lock()
	conns := make([]*tcpConn, 0, len(n.conns))
	for _, c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	// shut made every peer dead to this node, which wakes senders blocked on
	// credit or a full outbox and stops the write loops; closing the sockets
	// stops the read loops. The outbox drain runs here too, in case a loop
	// exited before a racing Send enqueued.
	for _, c := range conns {
		c.c.Close()
		n.drainOutbox(c)
	}
	n.wg.Wait()
	// Loops are gone; retire anything the receiver never consumed so no
	// pooled buffer is abandoned in the inbox.
	n.drain()
	return nil
}
