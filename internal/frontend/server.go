package frontend

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adr/internal/bufpool"
	"adr/internal/chunk"
	"adr/internal/costmodel"
	"adr/internal/metrics"
)

// Client-resilience defaults. Dials and per-frame stream reads are bounded
// by default — an unresponsive or dead node must surface as a typed error
// within the timeout, not hang the caller forever — and retryable failures
// (ErrorInfo.Retryable: admission "busy", exhausted degraded retries) are
// retried a bounded number of times with jittered exponential backoff.
// Everywhere a timeout or retry count is configurable, 0 selects the default
// and a negative value disables the mechanism.
const (
	// DefaultDialTimeout bounds connection establishment to a node or
	// front-end.
	DefaultDialTimeout = 10 * time.Second
	// DefaultStreamTimeout bounds each frame read on a result stream. It
	// must comfortably exceed the back-end's query execution time: the first
	// frame only arrives once the node starts producing output.
	DefaultStreamTimeout = 2 * time.Minute
	// DefaultBusyRetries is how many times a query is resubmitted after a
	// retryable failure before the error is returned.
	DefaultBusyRetries = 3
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

// retryableErr reports whether every error in err's tree is a retryable
// QueryError — the condition under which resubmitting the query stands a
// chance (a single fatal cause makes retrying pointless).
func retryableErr(err error) bool {
	if err == nil {
		return false
	}
	type joined interface{ Unwrap() []error }
	if j, ok := err.(joined); ok {
		for _, e := range j.Unwrap() {
			if !retryableErr(e) {
				return false
			}
		}
		return true
	}
	var qe *QueryError
	return errors.As(err, &qe) && qe.Retryable
}

// excludedTolerated reports whether failed node i's missing stream is
// tolerable: at least one node succeeded, and every successful node's done
// stats list i as excluded — the mesh agreed node i died and completed the
// query degraded without it, so i's output was re-homed to survivors.
func excludedTolerated(i int, stats []*DoneStats) bool {
	any := false
	for j, st := range stats {
		if j == i || st == nil {
			continue
		}
		found := false
		for _, e := range st.Excluded {
			if e == i {
				found = true
				break
			}
		}
		if !found {
			return false
		}
		any = true
	}
	return any
}

// Server is the ADR front-end process: it accepts client connections on a
// socket, relays each query to every back-end node's control port, merges
// the per-node output streams, and returns the combined stream to the
// client together with aggregate statistics and the per-node, per-phase
// query trace. Queries from concurrent clients run concurrently: each gets
// a unique query id that the back-end nodes use to multiplex the mesh.
type Server struct {
	// NodeAddrs lists the back-end nodes' control addresses.
	NodeAddrs []string

	ln      net.Listener
	mu      sync.Mutex
	closed  bool
	queryID atomic.Int32
	queries *metrics.QueryLog
	codec   string
}

// Options tunes the front-end's observability behaviour.
type Options struct {
	// SlowQueryThreshold, when > 0, logs every query slower than it.
	SlowQueryThreshold time.Duration
	// Codec, when non-empty, is stamped onto relayed queries that do not
	// name their own codec (adr-front -compress): every query through this
	// front-end then compresses its engine payloads with the named codec.
	// Specs that set Codec themselves win.
	Codec string
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
	if opts.Codec != "" {
		if _, err := chunk.ParseCodec(opts.Codec); err != nil {
			ln.Close()
			return nil, fmt.Errorf("frontend: %w", err)
		}
	}
	ql := metrics.NewQueryLog(metrics.Default, "adr_frontend")
	ql.SlowThreshold = opts.SlowQueryThreshold
	s := &Server{NodeAddrs: nodeAddrs, ln: ln, queries: ql, codec: opts.Codec}
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

// runQuery fans the query out to every back-end node and merges the result
// streams into w, recording the query in the front-end's query log. AUTO
// queries are resolved first — one node's calibrated cost model picks the
// strategy — so the spec every node receives names a fixed strategy and the
// query-log detail names the choice (e.g. "sensor->composite/AUTO=DA").
func (s *Server) runQuery(spec *QuerySpec, w *bufio.Writer) error {
	if s.codec != "" && spec.Codec == "" {
		spec.Codec = s.codec
	}
	detail := spec.Input + "->" + spec.Output + "/" + spec.Strategy
	var sel *metrics.Selection
	if spec.IsAuto() {
		var err error
		sel, err = ResolveAuto(s.NodeAddrs, spec, 0, 0)
		if err != nil {
			return err
		}
		spec = resolvedSpec(spec, sel)
		detail = spec.Input + "->" + spec.Output + "/AUTO=" + spec.Strategy
	}
	id := s.queryID.Add(1)
	rec := s.queries.Begin(id, detail)
	total, err := s.relayQuery(id, spec, sel, w)
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

// relayQuery is the transport half of runQuery: fan out, merge, return the
// aggregated stats (which may be partially filled when err != nil). sel,
// non-nil on resolved AUTO queries, is finalized with the measured
// execution time and attached to the merged done frame.
func (s *Server) relayQuery(id int32, spec *QuerySpec, sel *metrics.Selection, w *bufio.Writer) (*DoneStats, error) {
	// Merge streams: forward chunk frames as they arrive, collect stats.
	type nodeOutcome struct {
		stats *DoneStats
		err   error
		// forwarded counts chunk frames already relayed to the client from
		// this node — a failed stream that forwarded anything cannot be
		// tolerated as excluded, because survivors re-deliver the node's whole
		// re-homed output and the merged stream would double-count.
		forwarded int
	}
	outcomes := make([]nodeOutcome, len(s.NodeAddrs))

	// Dial and submit per node. A node that cannot be reached is a failed
	// stream, not a failed query: on a degraded mesh the survivors re-home
	// its chunks and the tolerance check below accepts the merged result.
	conns := make([]net.Conn, len(s.NodeAddrs))
	req := &NodeRequest{QueryID: id, Spec: *spec}
	for i, addr := range s.NodeAddrs {
		c, err := net.DialTimeout("tcp", addr, DefaultDialTimeout)
		if err != nil {
			outcomes[i].err = fmt.Errorf("frontend: dial node %d at %s: %w", i, addr, err)
			continue
		}
		if err := WriteJSON(c, req); err != nil {
			outcomes[i].err = fmt.Errorf("frontend: submit to node %d: %w", i, err)
			c.Close()
			continue
		}
		conns[i] = c
	}
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()

	var wmu sync.Mutex
	var wg sync.WaitGroup
	for i, c := range conns {
		if c == nil {
			continue
		}
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			br := bufio.NewReader(c)
			for {
				// Per-frame read deadline: a node that dies mid-stream (or
				// never answers) surfaces as a timeout error here instead of
				// hanging the relay — and possibly the client — forever.
				c.SetReadDeadline(time.Now().Add(DefaultStreamTimeout))
				frame, msg, err := ReadFrame(br, true)
				if err != nil {
					outcomes[i].err = fmt.Errorf("frontend: node %d stream: %w", i, err)
					return
				}
				if frame != nil {
					// The relay never looks inside a chunk frame: the bytes the
					// node encoded are the bytes the client decodes.
					wmu.Lock()
					_, err := w.Write(frame)
					wmu.Unlock()
					bufpool.Put(frame)
					if err != nil {
						outcomes[i].err = err
						return
					}
					outcomes[i].forwarded++
					continue
				}
				switch msg.Type {
				case "done":
					outcomes[i].stats = msg.Stats
					return
				case "error":
					outcomes[i].err = queryErrFrom(i, msg)
					return
				default:
					outcomes[i].err = fmt.Errorf("node %d: unknown frame %q", i, msg.Type)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()

	// Collect every node's failure, not just the first: a query that fails on
	// three nodes at once should tell the operator about all three. A failed
	// stream is tolerated when the surviving nodes completed degraded and
	// unanimously list that node as excluded — its chunks were re-homed onto
	// replica holders, so the merged output is still complete.
	allStats := make([]*DoneStats, len(outcomes))
	for i := range outcomes {
		allStats[i] = outcomes[i].stats
	}
	var errs []error
	for i := range outcomes {
		if outcomes[i].err != nil && !(outcomes[i].forwarded == 0 && excludedTolerated(i, allStats)) {
			errs = append(errs, outcomes[i].err)
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}

	total := DoneStats{Node: -1, TotalNodes: len(conns)}
	for i := range outcomes {
		st := outcomes[i].stats
		if st == nil {
			// Tolerated excluded node: no stats to merge.
			continue
		}
		total.Chunks += st.Chunks
		total.BytesRead += st.BytesRead
		total.BytesSent += st.BytesSent
		total.BytesRecv += st.BytesRecv
		total.AggOps += st.AggOps
		if st.ElapsedMS > total.ElapsedMS {
			total.ElapsedMS = st.ElapsedMS
		}
		// Assemble the per-node traces into the query's full trace.
		if st.Trace != nil {
			total.Traces = append(total.Traces, *st.Trace)
		}
		if st.Degraded {
			total.Degraded = true
			if len(st.Excluded) > len(total.Excluded) {
				total.Excluded = st.Excluded
			}
		}
		if st.Attempts > total.Attempts {
			total.Attempts = st.Attempts
		}
	}
	if sel != nil {
		// Close the loop on the prediction: record how the chosen strategy
		// actually ran (slowest node's wall time, the live makespan) and
		// return the full selection with the merged stats.
		costmodel.RecordOutcome(sel, autoActualSec(&total))
		total.Selection = sel
	}
	wmu.Lock()
	defer wmu.Unlock()
	return &total, WriteJSON(w, &Message{Type: "done", Stats: &total})
}

// Client is a minimal front-end client, used by cmd/adr-query and tests.
type Client struct {
	conn net.Conn
	r    *bufio.Reader

	// ReadTimeout bounds each frame read on the result stream (0 selects
	// DefaultStreamTimeout, negative disables).
	ReadTimeout time.Duration
	// BusyRetries is how many times Query resubmits after a retryable error
	// frame — admission "busy", exhausted degraded retries — with jittered
	// backoff between attempts (0 selects DefaultBusyRetries, negative
	// disables).
	BusyRetries int
}

// Dial connects to a front-end with the default connect timeout.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 0)
}

// DialTimeout is Dial with an explicit connect timeout (0 selects
// DefaultDialTimeout, negative disables).
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeoutOrDefault(timeout, DefaultDialTimeout))
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
func (c *Client) Query(spec *QuerySpec) ([]*ChunkJSON, *DoneStats, error) {
	retries := c.BusyRetries
	if retries == 0 {
		retries = DefaultBusyRetries
	}
	for attempt := 0; ; attempt++ {
		chunks, stats, err := c.queryOnce(spec)
		if err == nil || attempt >= retries || !retryableErr(err) {
			return chunks, stats, err
		}
		time.Sleep(busyBackoff(attempt))
	}
}

func (c *Client) queryOnce(spec *QuerySpec) ([]*ChunkJSON, *DoneStats, error) {
	if err := WriteJSON(c.conn, spec); err != nil {
		return nil, nil, err
	}
	return readStream(c.conn, c.r, timeoutOrDefault(c.ReadTimeout, DefaultStreamTimeout), -1)
}

// readStream consumes one result stream — the front-end's merged stream or a
// single node's — up to its closing control line, decoding every chunk frame
// once. timeout, when positive, bounds each frame read; node labels an error
// frame that does not locate itself. Chunks received before a failure are
// returned with the error.
func readStream(conn net.Conn, r *bufio.Reader, timeout time.Duration, node int) ([]*ChunkJSON, *DoneStats, error) {
	var chunks []*ChunkJSON
	for {
		if timeout > 0 {
			conn.SetReadDeadline(time.Now().Add(timeout))
		}
		frame, msg, err := ReadFrame(r, false)
		if err != nil {
			return chunks, nil, err
		}
		if frame != nil {
			cj, err := DecodeFrame(frame)
			if err != nil {
				return chunks, nil, err
			}
			chunks = append(chunks, cj)
			continue
		}
		switch msg.Type {
		case "done":
			return chunks, msg.Stats, nil
		case "error":
			return chunks, nil, queryErrFrom(node, msg)
		default:
			return chunks, nil, fmt.Errorf("frontend: unknown frame %q", msg.Type)
		}
	}
}

// queryErrFrom converts a node's error frame into a typed QueryError,
// preserving the structured failure location when the node sent one.
func queryErrFrom(node int, msg *Message) error {
	if msg.ErrInfo != nil {
		return &QueryError{Node: msg.ErrInfo.Node, Origin: msg.ErrInfo.Origin, Message: msg.ErrInfo.Message, Retryable: msg.ErrInfo.Retryable}
	}
	return &QueryError{Node: node, Origin: -1, Message: msg.Error}
}

// errInfoFrom recovers the structured frame for an outbound error: typed
// QueryErrors keep their location, everything else is the front-end's own.
func errInfoFrom(err error) *ErrorInfo {
	var qe *QueryError
	if errors.As(err, &qe) {
		info := &ErrorInfo{Node: qe.Node, Origin: qe.Origin, Message: qe.Message, Retryable: qe.Retryable}
		// A joined multi-node failure keeps the first branch's location but
		// the full combined message, and is retryable only when every branch
		// is — one fatal node makes resubmission pointless.
		if j, ok := err.(interface{ Unwrap() []error }); ok && len(j.Unwrap()) > 1 {
			info.Message = err.Error()
			info.Retryable = retryableErr(err)
		}
		return info
	}
	return &ErrorInfo{Node: -1, Origin: -1, Message: err.Error(), Retryable: retryableErr(err)}
}
