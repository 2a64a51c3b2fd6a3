package frontend

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"adr/internal/bufpool"
	"adr/internal/metrics"
)

// Client-resilience defaults. Dials and per-frame stream reads are bounded
// by default — an unresponsive or dead node must surface as a typed error
// within the timeout, not hang the caller forever — and retryable failures
// (ErrorInfo.Retryable: admission "busy", a back-end node's death) are
// retried a bounded number of times with jittered exponential backoff.
// Everywhere a timeout or retry count is configurable, 0 selects the default
// and a negative value disables the mechanism.
const (
	// defaultDialTimeout bounds connection establishment to a node or
	// front-end.
	defaultDialTimeout = 10 * time.Second
	// defaultStreamTimeout bounds each frame read on a result stream. It
	// must comfortably exceed the back-end's query execution time: the first
	// frame only arrives once the node starts producing output.
	defaultStreamTimeout = 2 * time.Minute
	// defaultBusyRetries is how many times a query is resubmitted after a
	// retryable failure before the error is returned.
	defaultBusyRetries = 3
	// busyRetryBase seeds the exponential backoff between retries.
	busyRetryBase = 50 * time.Millisecond
)

// timeoutOrDefault resolves the 0-default / negative-disable convention.
func timeoutOrDefault(d, def time.Duration) time.Duration {
	if d == 0 {
		return def
	}
	if d < 0 {
		return 0
	}
	return d
}

// busyBackoff returns the jittered delay before retry attempt (0-based):
// exponential growth capped at one second, with the lower half randomized so
// clients rejected together do not retry together. The shift is clamped
// BEFORE it is applied: 50ms << 37 already overflows int64 into a negative
// duration (and shifts >= 64 wrap to zero), so a high -busy-retries count
// used to panic in rand.Int63n once the attempt number grew past the cap.
func busyBackoff(attempt int) time.Duration {
	// 50ms << 5 = 1.6s, past the 1s cap; larger shifts can only saturate.
	if attempt > 5 {
		attempt = 5
	}
	d := busyRetryBase << uint(attempt)
	if d > time.Second {
		d = time.Second
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// retryBusy runs once, and again after each retryable failure — at most
// retries more times (0 selects defaultBusyRetries, negative disables), with
// jittered backoff in between — and returns the last attempt's error.
func retryBusy(retries int, once func() error) error {
	if retries == 0 {
		retries = defaultBusyRetries
	}
	for attempt := 0; ; attempt++ {
		err := once()
		if err == nil || attempt >= retries || !retryableErr(err) {
			return err
		}
		time.Sleep(busyBackoff(attempt))
	}
}

// queryErrs returns the QueryError at each leaf of err's joined tree, nil
// for a leaf that carries none.
func queryErrs(err error) []*QueryError {
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		var out []*QueryError
		for _, e := range j.Unwrap() {
			out = append(out, queryErrs(e)...)
		}
		return out
	}
	var qe *QueryError
	errors.As(err, &qe)
	return []*QueryError{qe}
}

// retryableErr reports whether every error in err's tree is a retryable
// QueryError — the condition under which resubmitting the query stands a
// chance (a single fatal cause makes retrying pointless).
func retryableErr(err error) bool {
	if err == nil {
		return false
	}
	for _, qe := range queryErrs(err) {
		if qe == nil || !qe.Retryable {
			return false
		}
	}
	return true
}

// deadIn returns every node a QueryError in err's tree names dead,
// ascending.
func deadIn(err error) []int {
	var dead []int
	for _, qe := range queryErrs(err) {
		if qe != nil {
			dead = append(dead, qe.Dead...)
		}
	}
	slices.Sort(dead)
	return slices.Compact(dead)
}

// deadSet is a resolver's record of the back-end nodes the mesh has declared
// dead, learned from survivors' error frames (ErrorInfo.Dead). It only
// grows: the TCP mesh never re-admits a dead peer. The resolver asks no dead
// node anything and plans every query without them (NodeRequest.Exclude).
type deadSet struct {
	mu    sync.Mutex
	nodes []int // ascending
}

// list returns the dead nodes, ascending.
func (d *deadSet) list() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.nodes)
}

// learn adds the nodes of a mesh of n that err reports dead.
func (d *deadSet) learn(err error, n int) {
	dead := deadIn(err)
	if len(dead) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, node := range dead {
		if i, ok := slices.BinarySearch(d.nodes, node); !ok && node >= 0 && node < n {
			d.nodes = slices.Insert(d.nodes, i, node)
		}
	}
}

// Server is the ADR front-end process: it accepts client connections on a
// socket, relays each query to every back-end node's control port, merges
// the per-node output streams, and returns the combined stream to the
// client together with aggregate statistics and the per-node, per-phase
// query trace. Queries from concurrent clients run concurrently: each gets
// a unique query id that the back-end nodes use to multiplex the mesh. The
// front-end is the resolver: it picks AUTO's strategy and keeps the dead set
// every query is planned without.
type Server struct {
	// NodeAddrs lists the back-end nodes' control addresses.
	NodeAddrs []string

	dead    deadSet
	ln      net.Listener
	mu      sync.Mutex
	closed  bool
	queryID atomic.Int32
	queries *metrics.QueryLog
}

// Options tunes the front-end's observability behaviour.
type Options struct {
	// SlowQueryThreshold, when > 0, logs every query slower than it.
	SlowQueryThreshold time.Duration
}

// Start listens for clients on addr.
func Start(addr string, nodeAddrs []string) (*Server, error) {
	return StartOptions(addr, nodeAddrs, Options{})
}

// StartOptions is Start with observability options.
func StartOptions(addr string, nodeAddrs []string, opts Options) (*Server, error) {
	if len(nodeAddrs) == 0 {
		return nil, fmt.Errorf("frontend: no back-end nodes configured")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("frontend: listen: %w", err)
	}
	ql := metrics.NewQueryLog(metrics.Default, "adr_frontend")
	ql.SlowThreshold = opts.SlowQueryThreshold
	s := &Server{NodeAddrs: nodeAddrs, ln: ln, queries: ql}
	go s.acceptLoop()
	return s, nil
}

// Queries returns the front-end's query log, for the /debug/queries
// surface and the slow-query log.
func (s *Server) Queries() *metrics.QueryLog { return s.queries }

// Addr returns the bound client address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting clients.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.ln.Close()
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.handleClient(conn)
	}
}

// handleClient serves one client connection: one query per frame until the
// client disconnects.
func (s *Server) handleClient(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		var spec QuerySpec
		if err := ReadJSON(r, &spec); err != nil {
			return
		}
		if err := s.runQuery(&spec, w); err != nil {
			WriteJSON(w, &Message{Type: "error", Error: err.Error(), ErrInfo: errInfoFrom(err)})
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// runQuery fans the query out to every live back-end node and merges the
// result streams into w, recording the query in the front-end's query log.
// AUTO queries are resolved first — one live node's calibrated cost model
// picks the strategy — so the spec every node receives names a fixed strategy
// and the query-log detail names the choice (e.g.
// "sensor->composite/AUTO=DA"). The nodes a failure reports dead join the
// dead set, so the client's resubmission runs without them.
func (s *Server) runQuery(spec *QuerySpec, w *bufio.Writer) error {
	detail := spec.Input + "->" + spec.Output + "/" + spec.Strategy
	exclude := s.dead.list()
	spec, sel, err := resolveSpec(s.NodeAddrs, exclude, spec, 0, 0)
	if err != nil {
		return err
	}
	if sel != nil {
		detail = spec.Input + "->" + spec.Output + "/AUTO=" + spec.Strategy
	}
	id := s.queryID.Add(1)
	rec := s.queries.Begin(id, detail)
	total, err := s.relayQuery(&NodeRequest{QueryID: id, Spec: *spec, Exclude: exclude}, sel, w)
	if err != nil {
		s.dead.learn(err, len(s.NodeAddrs))
	}
	var end metrics.EndStats
	if total != nil {
		end = metrics.EndStats{
			BytesRead: total.BytesRead,
			BytesSent: total.BytesSent,
			BytesRecv: total.BytesRecv,
			Chunks:    int64(total.Chunks),
		}
	}
	s.queries.End(rec, err, end)
	return err
}

// relayQuery is the transport half of runQuery: fan out, forward every chunk
// frame to the client as it arrives, settle, and close the stream with the
// merged done frame. A failed query's frames are already with the client,
// which drops them with the error frame that follows. sel, non-nil on
// resolved AUTO queries, is finished with the measured execution time and
// attached to it.
func (s *Server) relayQuery(req *NodeRequest, sel *metrics.Selection, w *bufio.Writer) (*DoneStats, error) {
	var wmu sync.Mutex
	streams := fanOut(s.NodeAddrs, req, 0, 0, true, func(_ *NodeStream, frame []byte) error {
		// The relay never looks inside a chunk frame: the bytes the node
		// encoded are the bytes the client decodes.
		wmu.Lock()
		_, err := w.Write(frame)
		wmu.Unlock()
		bufpool.Put(frame)
		return err
	})
	total, err := settle(streams)
	if err != nil {
		return nil, err
	}
	finishAuto(sel, total)
	return total, WriteJSON(w, &Message{Type: "done", Stats: total})
}

// Client is a minimal front-end client, used by cmd/adr-query and tests.
type Client struct {
	conn net.Conn
	r    *bufio.Reader

	// ReadTimeout bounds each frame read on the result stream (0 selects
	// 2 min, negative disables).
	ReadTimeout time.Duration
	// BusyRetries is how many times Query resubmits after a retryable error
	// frame — admission "busy", a back-end node's death — with jittered
	// backoff between attempts (0 selects 3, negative disables).
	BusyRetries int
}

// Dial connects to a front-end, bounding the connect by 10 s.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, defaultDialTimeout)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Query submits a query and collects the full result stream, resubmitting
// retryable failures up to BusyRetries times. Retries only follow a clean
// error frame — the stream stays in sync, so the same connection is reused.
func (c *Client) Query(spec *QuerySpec) (chunks []*ChunkJSON, stats *DoneStats, err error) {
	err = retryBusy(c.BusyRetries, func() error {
		chunks, stats, err = c.queryOnce(spec)
		return err
	})
	return chunks, stats, err
}

// queryOnce submits spec and consumes the front-end's merged stream, decoding
// every chunk frame once. Chunks received before a failure are returned with
// the error.
func (c *Client) queryOnce(spec *QuerySpec) ([]*ChunkJSON, *DoneStats, error) {
	if err := WriteJSON(c.conn, spec); err != nil {
		return nil, nil, err
	}
	var chunks []*ChunkJSON
	stats, err := readFrames(c.conn, c.r, timeoutOrDefault(c.ReadTimeout, defaultStreamTimeout), false, -1, func(frame []byte) error {
		cj, err := decodeFrame(frame)
		if err == nil {
			chunks = append(chunks, cj)
		}
		return err
	})
	return chunks, stats, err
}

// queryErrFrom converts an error frame into a typed QueryError, preserving
// the structured failure location when the sender gave one; node, the stream
// the frame arrived on, stands in for a reporting node it left out.
func queryErrFrom(node int, msg *Message) error {
	if info := msg.ErrInfo; info != nil {
		if info.Node >= 0 {
			node = info.Node
		}
		return &QueryError{Node: node, Origin: info.Origin, Message: info.Message, Retryable: info.Retryable, Dead: info.Dead}
	}
	return &QueryError{Node: node, Origin: -1, Message: msg.Error}
}

// errInfoFrom recovers the structured frame for an outbound error: typed
// QueryErrors keep their location, everything else is the front-end's own.
func errInfoFrom(err error) *ErrorInfo {
	var qe *QueryError
	if errors.As(err, &qe) {
		info := &ErrorInfo{Node: qe.Node, Origin: qe.Origin, Message: qe.Message, Retryable: qe.Retryable, Dead: qe.Dead}
		// A joined multi-node failure keeps the first branch's location but
		// the full combined message and every branch's dead nodes, and is
		// retryable only when every branch is — one fatal node makes
		// resubmission pointless.
		if j, ok := err.(interface{ Unwrap() []error }); ok && len(j.Unwrap()) > 1 {
			info.Message = err.Error()
			info.Retryable = retryableErr(err)
			info.Dead = deadIn(err)
		}
		return info
	}
	return &ErrorInfo{Node: -1, Origin: -1, Message: err.Error(), Retryable: retryableErr(err)}
}
