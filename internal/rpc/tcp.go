package rpc

import (
	"context"
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
// unblock anyone). flags bits 2-3 carry the payload's compression codec
// (Message.Codec).
//
// Failure model: the mesh is static, so a failed peer connection is
// permanent. When a read, write, frame decode or send timeout fails, the
// whole connection is closed (never just one half), the peer is marked dead
// with the reason recorded, and every pending and future Send to it fails
// fast with a *PeerError. Because every query spans every node, the first
// peer failure also fails the endpoint's Recv once buffered inbound
// messages are drained — that is how nodes that are purely waiting on the
// dead peer learn of the failure. A dead connection's queued frames are
// drained and their pooled payloads recycled, its blocked senders wake (the
// credit window closes), and the bytes it held against the node's
// forwarding budget return. Liveness is exported through the metrics
// registry as adr_rpc_peer_up{transport="tcp",peer="N"} and
// adr_rpc_peer_failures_total.
const tcpHeaderLen = 22

// Frame flag bits (see the frame layout above).
const (
	frameFlow   = 1 << 0 // payload charged against the sender's credit window
	frameCredit = 1 << 1 // transport-internal credit grant, never delivered
	// Bits 2-3 carry the payload's compression codec (Message.Codec, a
	// chunk.Codec value): 0 raw, 1 flate, 2 columnar. Compressed payloads
	// are self-describing, so the bits are advisory frame metadata.
	frameCodecShift = 2
	frameCodecMask  = 0x3
)

// MaxFrameBytes bounds a single message payload (64 MiB): far above any
// chunk in the paper's applications, low enough to reject garbage lengths
// from a confused peer.
const MaxFrameBytes = 64 << 20

// DefaultSendTimeout bounds how long a Send may wait for a peer to drain
// its connection before the peer is declared dead. Generous: a healthy peer
// drains a frame in microseconds; only a wedged or partitioned one takes
// 30 s.
const DefaultSendTimeout = 30 * time.Second

// TCPNode is a single node's endpoint over the TCP mesh.
type TCPNode struct {
	self  NodeID
	addrs []string
	ln    net.Listener

	inbox       chan Message
	done        chan struct{}
	once        sync.Once
	met         *meters
	sendTimeout time.Duration
	degraded    bool

	// Flow control (nil gates when unconfigured): windowBytes is the
	// per-peer in-flight byte window each connection enforces, budget the
	// node-wide forwarding cap shared by every connection.
	windowBytes int64
	budget      *flowWindow

	// First peer failure fails the whole endpoint (see package comment):
	// failCh is closed with failErr holding the PeerError.
	failCh   chan struct{}
	failOnce sync.Once
	failMu   sync.Mutex
	failErr  error

	mu    sync.Mutex
	conns map[NodeID]*tcpConn
	wg    sync.WaitGroup
}

type tcpConn struct {
	peer   NodeID
	c      net.Conn
	outbox chan Message

	// win is the sender-side credit window toward this peer (nil when
	// per-peer flow control is off): Send charges it, inbound credit frames
	// release it, teardown closes it so blocked senders wake.
	win *flowWindow
	// pendingCredit accumulates consumed-payload bytes owed to the peer;
	// writeLoop flushes it as a credit frame ahead of data traffic. kick
	// wakes an idle writeLoop when credit accrues.
	pendingCredit atomic.Int64
	kick          chan struct{}
	// charged is the byte total this connection currently holds against the
	// sender's gates (window and node budget); guarded by flowMu. On
	// teardown the balance is reclaimed exactly once and reclaimed flips, so
	// late credit frames and racing sends cannot double-release.
	flowMu    sync.Mutex
	charged   int64
	reclaimed bool

	// dead is closed on the first failure; reason records why.
	dead   chan struct{}
	once   sync.Once
	mu     sync.Mutex
	reason error
}

// fail marks the connection dead with a reason and closes the underlying
// socket — both halves, so a failure detected on one side of the duplex
// never leaves the other half silently accepting traffic. Reports whether
// this call was the first to fail the connection.
func (c *tcpConn) fail(err error) bool {
	first := false
	c.once.Do(func() {
		first = true
		c.mu.Lock()
		c.reason = err
		c.mu.Unlock()
		close(c.dead)
		c.c.Close()
	})
	return first
}

// failure returns why the connection died.
func (c *tcpConn) failure() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reason != nil {
		return c.reason
	}
	return ErrClosed
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
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// DialRetry is how long to keep retrying dials while the mesh comes up
	// (default 30s). Peers start in arbitrary order; attempts back off
	// exponentially from 50ms to 1s between retries.
	DialRetry time.Duration
	// InboxDepth bounds buffered inbound messages (default
	// DefaultInboxDepth).
	InboxDepth int
	// SendTimeout bounds how long a Send may block on a peer that is not
	// draining its connection, and how long a single frame write may take on
	// the wire. On expiry the peer is marked dead and the Send fails with a
	// *PeerError. 0 selects DefaultSendTimeout; negative disables the
	// timeout entirely (sends may block indefinitely, the pre-fault-model
	// behaviour).
	SendTimeout time.Duration
	// Flow bounds this node's in-flight payload bytes (see Flow).
	Flow Flow
	// Degraded selects the degraded failure model: a peer's death no longer
	// fails the whole endpoint. Instead the endpoint keeps receiving from
	// surviving peers and a synthetic Message{Src: deadPeer, Type:
	// MsgPeerDown} is delivered through Recv, once per dead peer, so the
	// engine can re-plan around the loss. Sends to a dead peer still fail
	// fast with a *PeerError. Mesh establishment remains strict — a node
	// that never joins is a startup error, not a degraded peer.
	Degraded bool
}

func (o *TCPOptions) defaults() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.DialRetry <= 0 {
		o.DialRetry = 30 * time.Second
	}
	if o.InboxDepth <= 0 {
		o.InboxDepth = DefaultInboxDepth
	}
	if o.SendTimeout == 0 {
		o.SendTimeout = DefaultSendTimeout
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
	n := &TCPNode{
		self:        self,
		addrs:       addrs,
		ln:          ln,
		inbox:       make(chan Message, opts.InboxDepth),
		done:        make(chan struct{}),
		failCh:      make(chan struct{}),
		conns:       make(map[NodeID]*tcpConn),
		met:         newMeters("tcp", len(addrs)),
		sendTimeout: opts.SendTimeout,
		degraded:    opts.Degraded,
		windowBytes: opts.Flow.WindowBytes,
		budget:      newFlowWindow(opts.Flow.BudgetBytes),
	}
	// A node is trivially up to itself; without this the self slot of
	// adr_rpc_peer_up reads as dead on every node's own export.
	n.met.up(self)

	var wg sync.WaitGroup
	errs := make(chan error, len(addrs))

	// Accept connections from lower-numbered peers.
	expectAccepts := int(self)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < expectAccepts; i++ {
			c, err := ln.Accept()
			if err != nil {
				errs <- fmt.Errorf("rpc: accept: %w", err)
				return
			}
			var hdr [4]byte
			if _, err := io.ReadFull(c, hdr[:]); err != nil {
				errs <- fmt.Errorf("rpc: handshake read: %w", err)
				c.Close()
				return
			}
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
				c, err := net.DialTimeout("tcp", addrs[peer], opts.DialTimeout)
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

// Addr returns the node's bound listen address.
func (n *TCPNode) Addr() string { return n.ln.Addr().String() }

func (n *TCPNode) addConn(peer NodeID, c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn := &tcpConn{
		peer:   peer,
		c:      c,
		outbox: make(chan Message, 64),
		dead:   make(chan struct{}),
		win:    newFlowWindow(n.windowBytes),
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

// flowCharged reports whether a frame's payload is subject to flow-control
// accounting on this connection. Send uses it to charge the gates,
// writeLoop to stamp frameFlow so the receiver knows a credit is owed; both
// must agree, which is why the predicate is shared.
func (n *TCPNode) flowCharged(conn *tcpConn, m *Message) bool {
	return !m.Urgent && len(m.Payload) > 0 && (conn.win != nil || n.budget != nil)
}

// failConn records a connection failure: the peer is marked dead (with
// metrics), its flow-control state is torn down, and the endpoint enters
// the failed state so blocked receivers learn of it — or, on a degraded
// fabric, stays up and delivers a synthetic MsgPeerDown instead. During
// Close the error is the shutdown, not a peer failure, and is not counted.
func (n *TCPNode) failConn(conn *tcpConn, err error) {
	select {
	case <-n.done:
		if conn.fail(ErrClosed) {
			n.teardownConn(conn)
		}
		return
	default:
	}
	if conn.fail(err) {
		n.met.down(conn.peer)
		n.teardownConn(conn)
		if n.degraded {
			n.notifyDown(conn.peer)
		}
	}
	if n.degraded {
		return
	}
	n.failOnce.Do(func() {
		n.failMu.Lock()
		n.failErr = err
		n.failMu.Unlock()
		close(n.failCh)
	})
}

// notifyDown delivers the degraded-mode synthetic peer-down message for a
// dead peer into this endpoint's own inbox, exactly once per peer (guarded
// by the caller's conn.fail). Delivery runs on its own goroutine so failure
// handling never blocks behind a full inbox; shutdown abandons it.
func (n *TCPNode) notifyDown(peer NodeID) {
	go func() {
		select {
		case n.inbox <- Message{Src: peer, Dst: n.self, Type: MsgPeerDown}:
		case <-n.done:
		}
	}()
}

// teardownConn releases a dead connection's resources: the credit window
// closes so blocked senders wake with the failure, the bytes the connection
// held against the node budget return exactly once (reclaimed guards the
// balance against late credit frames), and every frame abandoned in the
// outbox is drained with its pooled payload recycled.
func (n *TCPNode) teardownConn(conn *tcpConn) {
	conn.win.close()
	conn.flowMu.Lock()
	charged := conn.charged
	conn.charged = 0
	conn.reclaimed = true
	conn.flowMu.Unlock()
	if charged > 0 {
		n.budget.release(charged)
		n.met.inflight(conn.peer, -charged)
	}
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

// releasePooled recycles an outbound pooled payload that will never reach
// the wire. The transport owns a Pooled payload from the moment Send is
// invoked, so every failure path must come through here (or drainOutbox).
func releasePooled(m Message) {
	if m.Pooled {
		bufpool.Put(m.Payload)
	}
}

// returnCredits applies a credit grant from the peer: the granted bytes
// leave the connection's charged balance and re-open the per-peer window
// and the node budget. Grants racing with (or arriving after) teardown are
// ignored — the balance was already reclaimed wholesale — and grants are
// clamped to what was actually charged, so a confused peer cannot overdraw
// the budget.
func (n *TCPNode) returnCredits(conn *tcpConn, count int64) {
	if count <= 0 {
		return
	}
	conn.flowMu.Lock()
	if conn.reclaimed {
		conn.flowMu.Unlock()
		return
	}
	if count > conn.charged {
		count = conn.charged
	}
	conn.charged -= count
	conn.flowMu.Unlock()
	if count > 0 {
		conn.win.release(count)
		n.budget.release(count)
		n.met.inflight(conn.peer, -count)
	}
}

// failure returns the first peer failure observed, or nil.
func (n *TCPNode) failure() error {
	n.failMu.Lock()
	defer n.failMu.Unlock()
	return n.failErr
}

// flushCredits ships the connection's accrued credit balance as one credit
// frame. Called only from writeLoop, ahead of data frames, so grants never
// queue behind bulk traffic.
func (n *TCPNode) flushCredits(conn *tcpConn) error {
	count := conn.pendingCredit.Swap(0)
	if count <= 0 {
		return nil
	}
	var buf [4 + tcpHeaderLen + 8]byte
	binary.LittleEndian.PutUint32(buf[0:], uint32(tcpHeaderLen+8))
	binary.LittleEndian.PutUint32(buf[4:], uint32(n.self))
	binary.LittleEndian.PutUint32(buf[8:], uint32(conn.peer))
	buf[13] = frameCredit
	binary.LittleEndian.PutUint64(buf[4+tcpHeaderLen:], uint64(count))
	if n.sendTimeout > 0 {
		conn.c.SetWriteDeadline(time.Now().Add(n.sendTimeout))
	}
	if _, err := conn.c.Write(buf[:]); err != nil {
		return peerErr(conn.peer, "write", err)
	}
	return nil
}

func (n *TCPNode) writeLoop(conn *tcpConn) {
	defer n.wg.Done()
	var hdr [4 + tcpHeaderLen]byte
	for {
		// Credits first: returning consumed-payload credit must never wait
		// behind queued data frames, or the peer observes stalls far longer
		// than the engine actually held its buffers.
		if err := n.flushCredits(conn); err != nil {
			n.failConn(conn, err)
			return
		}
		select {
		case m := <-conn.outbox:
			binary.LittleEndian.PutUint32(hdr[0:], uint32(tcpHeaderLen+len(m.Payload)))
			binary.LittleEndian.PutUint32(hdr[4:], uint32(m.Src))
			binary.LittleEndian.PutUint32(hdr[8:], uint32(m.Dst))
			hdr[12] = byte(m.Type)
			hdr[13] = (m.Codec & frameCodecMask) << frameCodecShift
			if n.flowCharged(conn, &m) {
				hdr[13] |= frameFlow
			}
			binary.LittleEndian.PutUint32(hdr[14:], uint32(m.Query))
			binary.LittleEndian.PutUint32(hdr[18:], uint32(m.Tile))
			binary.LittleEndian.PutUint32(hdr[22:], uint32(m.Seq))
			if n.sendTimeout > 0 {
				// A frame that cannot reach the peer within the send timeout
				// means the peer stopped draining; treat it as dead rather
				// than blocking the whole outbox behind it.
				conn.c.SetWriteDeadline(time.Now().Add(n.sendTimeout))
			}
			if _, err := conn.c.Write(hdr[:]); err != nil {
				releasePooled(m)
				n.failConn(conn, peerErr(conn.peer, "write", err))
				return
			}
			if len(m.Payload) > 0 {
				if _, err := conn.c.Write(m.Payload); err != nil {
					releasePooled(m)
					n.failConn(conn, peerErr(conn.peer, "write", err))
					return
				}
			}
			// A pooled payload is owned by the transport once the frame is
			// on the wire; recycle it so the forward path reuses buffers.
			releasePooled(m)
		case <-conn.kick:
			// Credit accrued while idle; loop back to flush it.
		case <-conn.dead:
			n.drainOutbox(conn)
			return
		case <-n.done:
			n.drainOutbox(conn)
			return
		}
	}
}

func (n *TCPNode) readLoop(conn *tcpConn) {
	defer n.wg.Done()
	var hdr [4 + tcpHeaderLen]byte
	for {
		if _, err := io.ReadFull(conn.c, hdr[:]); err != nil {
			n.failConn(conn, peerErr(conn.peer, "read", err))
			return
		}
		length := binary.LittleEndian.Uint32(hdr[0:])
		if length < tcpHeaderLen || length > MaxFrameBytes {
			n.failConn(conn, peerErr(conn.peer, "frame",
				fmt.Errorf("malformed frame length %d (valid: %d..%d)", length, tcpHeaderLen, MaxFrameBytes)))
			return
		}
		flags := hdr[13]
		payloadLen := int(length) - tcpHeaderLen
		if flags&frameCredit != 0 {
			// Transport-internal credit grant: apply and move on, never
			// delivered to Recv.
			if payloadLen != 8 {
				n.failConn(conn, peerErr(conn.peer, "frame",
					fmt.Errorf("malformed credit frame payload %d bytes (want 8)", payloadLen)))
				return
			}
			var cbuf [8]byte
			if _, err := io.ReadFull(conn.c, cbuf[:]); err != nil {
				n.failConn(conn, peerErr(conn.peer, "read", err))
				return
			}
			n.returnCredits(conn, int64(binary.LittleEndian.Uint64(cbuf[:])))
			continue
		}
		m := Message{
			Src:   NodeID(int32(binary.LittleEndian.Uint32(hdr[4:]))),
			Dst:   NodeID(int32(binary.LittleEndian.Uint32(hdr[8:]))),
			Type:  MsgType(hdr[12]),
			Query: int32(binary.LittleEndian.Uint32(hdr[14:])),
			Tile:  int32(binary.LittleEndian.Uint32(hdr[18:])),
			Seq:   int32(binary.LittleEndian.Uint32(hdr[22:])),
			Codec: (flags >> frameCodecShift) & frameCodecMask,
		}
		if payloadLen > 0 {
			// Each frame body is a fresh pooled buffer owned exclusively by
			// the receiver, which retires it with Message.Release once the
			// payload has been decoded and consumed.
			m.Payload = bufpool.Get(payloadLen)
			m.Pooled = true
			if _, err := io.ReadFull(conn.c, m.Payload); err != nil {
				bufpool.Put(m.Payload)
				n.failConn(conn, peerErr(conn.peer, "read", err))
				return
			}
			if flags&frameFlow != 0 {
				// The sender charged these bytes against its window; owe the
				// grant until the engine releases the payload.
				owed := int64(payloadLen)
				m.release = func() { conn.grantCredit(owed) }
			}
		}
		select {
		case n.inbox <- m:
			n.met.recv(m.Src, len(m.Payload))
		case <-n.done:
			// Shutdown raced the delivery: retire the frame here so neither
			// the buffer nor (on the dead peer's side, harmlessly) the
			// credit is lost.
			m.Release()
			return
		}
	}
}

// Self returns this node's id.
func (n *TCPNode) Self() NodeID { return n.self }

// Nodes returns the mesh size.
func (n *TCPNode) Nodes() int { return len(n.addrs) }

// Send routes m; self-sends loop back through the inbox. Sends to a dead
// peer fail fast with a *PeerError; sends to a peer that stops draining
// fail after the configured send timeout (and mark the peer dead). With
// flow control configured, a non-Urgent payload first charges the per-peer
// window and the node budget, blocking until credit returns from the
// receiver's releases; m.OnStall observes the wait. A Pooled payload is
// owned by the transport on every path out of Send.
func (n *TCPNode) Send(m Message) error {
	if err := Validate(m, n.Nodes()); err != nil {
		releasePooled(m)
		return err
	}
	if m.Src != n.self {
		releasePooled(m)
		return fmt.Errorf("rpc: node %d sending with src %d", n.self, m.Src)
	}
	if m.Dst == n.self {
		select {
		case n.inbox <- m:
			// Loopback traffic never transits readLoop; account both
			// directions here. Flow control is moot in-process — the engine
			// consumes its own inbox — so no charge is taken.
			n.met.sent(m.Dst, len(m.Payload))
			n.met.recv(m.Src, len(m.Payload))
			return nil
		case <-n.done:
			releasePooled(m)
			return ErrClosed
		}
	}
	n.mu.Lock()
	conn, ok := n.conns[m.Dst]
	n.mu.Unlock()
	if !ok {
		releasePooled(m)
		return &PeerError{Peer: m.Dst, Op: "send", Err: fmt.Errorf("no connection")}
	}
	// Fast path: a dead peer fails immediately, before any credit charge.
	select {
	case <-conn.dead:
		releasePooled(m)
		return peerErr(m.Dst, "send", conn.failure())
	default:
	}
	if n.flowCharged(conn, &m) {
		if err := n.chargeFlow(conn, &m); err != nil {
			releasePooled(m)
			return err
		}
	}
	// Room in the outbox succeeds without a timer allocation.
	select {
	case conn.outbox <- m:
		return n.finishSend(conn, m)
	default:
	}
	if n.sendTimeout <= 0 {
		select {
		case conn.outbox <- m:
			return n.finishSend(conn, m)
		case <-conn.dead:
			releasePooled(m)
			return peerErr(m.Dst, "send", conn.failure())
		case <-n.done:
			releasePooled(m)
			return ErrClosed
		}
	}
	timer := time.NewTimer(n.sendTimeout)
	defer timer.Stop()
	select {
	case conn.outbox <- m:
		return n.finishSend(conn, m)
	case <-conn.dead:
		releasePooled(m)
		return peerErr(m.Dst, "send", conn.failure())
	case <-n.done:
		releasePooled(m)
		return ErrClosed
	case <-timer.C:
		err := &PeerError{Peer: m.Dst, Op: "send",
			Err: fmt.Errorf("timed out after %v: peer not draining", n.sendTimeout)}
		n.failConn(conn, err)
		releasePooled(m)
		return err
	}
}

// chargeFlow blocks until m's payload fits the per-peer window and the node
// budget, then records the charge on the connection. The windows close on
// peer death and endpoint shutdown, so a blocked sender always wakes with
// the failure instead of waiting on credit that cannot come.
func (n *TCPNode) chargeFlow(conn *tcpConn, m *Message) error {
	charge := int64(len(m.Payload))
	stallW, ok := conn.win.acquire(charge)
	if !ok {
		return peerErr(m.Dst, "send", conn.failure())
	}
	stallB, ok := n.budget.acquire(charge)
	if !ok {
		conn.win.release(charge)
		return ErrClosed
	}
	if stall := stallW + stallB; stall > 0 {
		n.met.stall()
		if m.OnStall != nil {
			m.OnStall(stall)
		}
	}
	conn.flowMu.Lock()
	if conn.reclaimed {
		// The connection died between the window check and the charge; its
		// balance was already reclaimed, so hand the credit straight back.
		conn.flowMu.Unlock()
		n.budget.release(charge)
		return peerErr(m.Dst, "send", conn.failure())
	}
	conn.charged += charge
	conn.flowMu.Unlock()
	n.met.inflight(m.Dst, charge)
	n.met.peakInflight(conn.win.highWater())
	return nil
}

// finishSend completes a Send whose message reached the outbox: it re-checks
// the connection so an enqueue that raced a concurrent failure (writeLoop
// already gone, frame never to be written) is reported as the *PeerError it
// is, with the payload recycled by the teardown drain rather than leaked in
// the abandoned queue.
func (n *TCPNode) finishSend(conn *tcpConn, m Message) error {
	select {
	case <-conn.dead:
		n.drainOutbox(conn)
		return peerErr(conn.peer, "send", conn.failure())
	default:
		n.met.sent(m.Dst, len(m.Payload))
		return nil
	}
}

// Recv blocks for the next inbound message. Messages already buffered are
// always drained first; after that, a failed endpoint (any dead peer)
// reports the first peer failure as a *PeerError.
func (n *TCPNode) Recv(ctx context.Context) (Message, error) {
	select {
	case m := <-n.inbox:
		return m, nil
	default:
	}
	select {
	case m := <-n.inbox:
		return m, nil
	case <-n.done:
		select {
		case m := <-n.inbox:
			return m, nil
		default:
		}
		return Message{}, ErrClosed
	case <-n.failCh:
		// Drain what arrived before the failure so no message is lost.
		select {
		case m := <-n.inbox:
			return m, nil
		default:
		}
		return Message{}, n.failure()
	case <-ctx.Done():
		return Message{}, ctx.Err()
	}
}

// Close tears the node down: listener, connections, loops, and whatever
// pooled payloads were still queued in either direction.
func (n *TCPNode) Close() error {
	n.once.Do(func() {
		close(n.done)
		n.budget.close()
		n.ln.Close()
		n.mu.Lock()
		conns := make([]*tcpConn, 0, len(n.conns))
		for _, c := range n.conns {
			conns = append(conns, c)
		}
		n.mu.Unlock()
		for _, c := range conns {
			// Fail each connection directly (not just its socket): senders
			// blocked on credit must wake, and the outbox drain must run
			// even if both loops exit on n.done without calling failConn.
			if c.fail(ErrClosed) {
				n.teardownConn(c)
			}
		}
	})
	n.wg.Wait()
	// Loops are gone; retire anything the receiver never consumed so no
	// pooled buffer is abandoned in the inbox.
	for {
		select {
		case m := <-n.inbox:
			m.Release()
		default:
			return nil
		}
	}
}
