// Package backend implements one ADR back-end node daemon: it joins the TCP
// mesh of the parallel back-end, loads the shared dataset catalog, and
// serves query requests from the front-end over a control socket. Every
// node builds the identical plan deterministically from the shared catalog,
// so the front-end ships only the query spec — never the plan — exactly as
// ADR's front-end "relays the range queries to the back-end" (§2.1).
package backend

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"adr/internal/bufpool"
	"adr/internal/chunk"
	"adr/internal/core"
	"adr/internal/costmodel"
	"adr/internal/engine"
	"adr/internal/frontend"
	"adr/internal/layout"
	"adr/internal/metrics"
	"adr/internal/plan"
	"adr/internal/rpc"
	"adr/internal/space"
)

// Config describes one node daemon.
type Config struct {
	// Node is this daemon's id in the mesh.
	Node rpc.NodeID
	// MeshAddrs lists every node's mesh listen address, indexed by id.
	MeshAddrs []string
	// MeshListener, when set, is this node's mesh listener, already bound to
	// MeshAddrs[Node] by a caller that reserved every node's port before
	// starting any. Start owns it from the call on (and closes it if it
	// fails); nil makes Start bind the address itself.
	MeshListener net.Listener
	// ControlAddr is the address this node's control socket listens on
	// (the front-end connects here).
	ControlAddr string
	// DataDir is the farm directory (per-disk stores + manifest).
	DataDir string
	// AccMemBytes is the planner's per-node accumulator memory (default
	// core.DefaultAccMemBytes). Must be identical on every node.
	AccMemBytes int64
	// SendTimeout bounds each mesh send to a peer that stops draining; on
	// expiry the peer is marked dead and the query aborts. 0 selects
	// rpc's 30 s default, negative disables the timeout.
	SendTimeout time.Duration
	// DialRetry bounds mesh establishment: retrying unreachable peers and
	// waiting for peers to dial in (default 30s).
	DialRetry time.Duration
	// QueryTimeout, when > 0, bounds each query's execution on this node;
	// on expiry the node aborts the query mesh-wide and reports a deadline
	// error to the front-end.
	QueryTimeout time.Duration
	// CacheBytes, when > 0, puts a memory-bounded chunk cache between the
	// engine and this node's disks (layout.ChunkCache): repeated range
	// queries over a hot region read each chunk from disk once. 0 disables.
	CacheBytes int64
	// MaxQueries, when > 0, bounds the queries executing concurrently on
	// this node; excess requests queue (visible as the
	// adr_node_admission_waiting gauge) instead of spawning unbounded query
	// goroutines. 0 disables admission control. Enabling admission also
	// enforces an execution deadline (QueryTimeout, or 30 s when unset) so
	// that admission skew across overloaded nodes — each node running a
	// query its peers never admitted — cannot pin admission slots forever.
	MaxQueries int
	// RequestTimeout bounds how long a control session waits for its next
	// request, and then for that request's header to arrive whole, so an
	// idle session or a stalled client cannot pin a handler goroutine: an
	// idle session is closed when it expires, and the front-end redials. 0
	// selects 30 s; negative disables the deadline.
	RequestTimeout time.Duration
	// Flow bounds this node's in-flight forwarded bytes on the mesh (see
	// rpc.Flow). Must be identical on every node, like AccMemBytes.
	Flow rpc.Flow
	// CalibrationFile, when non-empty, persists the node's cost-model
	// calibration (learned disk/link bandwidth and per-op compute rates,
	// costmodel.Calibration) as JSON: loaded at startup, saved after every
	// executed query, so restarts keep the learned rates. Empty keeps the
	// calibration in memory only.
	CalibrationFile string
}

// defaultRequestTimeout is how long a control session may sit idle, waiting
// for its next NodeRequest, before the node closes it.
const defaultRequestTimeout = 30 * time.Second

// Admission-control instrumentation: how many queries are executing, how
// many are queued behind the -max-queries bound, and how many were admitted
// in total.
var (
	admActive   = metrics.Default.Gauge("adr_node_admission_active")
	admWaiting  = metrics.Default.Gauge("adr_node_admission_waiting")
	admAdmitted = metrics.Default.Counter("adr_node_admission_admitted_total")
)

// Degraded-query instrumentation: queries this node completed planned
// without dead processors (NodeRequest.Exclude), and chunk reads served from
// non-primary replica holders.
var (
	degradedQueries      = metrics.Default.Counter("adr_node_degraded_queries_total")
	replicaFallbackReads = metrics.Default.Counter("adr_node_replica_fallback_reads_total")
)

// calibSaveErrs counts failures to persist the calibration.
var calibSaveErrs = metrics.Default.Counter("adr_node_calibration_save_errors_total")

// Server is a running node daemon. Concurrent queries share the mesh
// through an engine.Dispatcher, which demultiplexes traffic by the
// front-end-assigned query id.
type Server struct {
	cfg      Config
	mesh     *rpc.TCPNode
	dispatch *engine.Dispatcher
	farm     *layout.Farm
	cache    *layout.ChunkCache
	datasets map[string]*layout.Dataset
	// exec is the query path this node shares with the embedded repository.
	exec    core.Exec
	ctrl    net.Listener
	queries *metrics.QueryLog
	// admit is the admission semaphore (nil when MaxQueries <= 0): a slot
	// must be acquired before a query runs. done unblocks queued handlers
	// on shutdown.
	admit chan struct{}
	done  chan struct{}

	// sessions holds every open control session, for Close to end.
	sessions map[net.Conn]struct{}
	closed   bool
	closeMu  sync.Mutex
}

// Start opens the farm, loads the catalog, joins the mesh and begins
// serving control connections.
func Start(cfg Config) (_ *Server, err error) {
	if ln := cfg.MeshListener; ln != nil {
		defer func() {
			if err != nil {
				ln.Close()
			}
		}()
	}
	if cfg.AccMemBytes <= 0 {
		cfg.AccMemBytes = core.DefaultAccMemBytes
	}
	m, datasets, err := layout.LoadManifest(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	if m.Nodes != len(cfg.MeshAddrs) {
		return nil, fmt.Errorf("backend: manifest has %d nodes, mesh has %d", m.Nodes, len(cfg.MeshAddrs))
	}
	farm, err := layout.OpenFarm(cfg.DataDir, m.Nodes, m.DisksPerNode)
	if err != nil {
		return nil, err
	}
	ctrl, err := net.Listen("tcp", cfg.ControlAddr)
	if err != nil {
		farm.Close()
		return nil, fmt.Errorf("backend: control listen: %w", err)
	}
	meshOpts := rpc.TCPOptions{
		SendTimeout: cfg.SendTimeout,
		DialRetry:   cfg.DialRetry,
		Flow:        cfg.Flow,
	}
	var mesh *rpc.TCPNode
	if cfg.MeshListener != nil {
		mesh, err = rpc.NewTCPNodeWithListener(cfg.Node, cfg.MeshAddrs, cfg.MeshListener, meshOpts)
	} else {
		mesh, err = rpc.NewTCPNode(cfg.Node, cfg.MeshAddrs, meshOpts)
	}
	if err != nil {
		ctrl.Close()
		farm.Close()
		return nil, err
	}
	var cache *layout.ChunkCache
	if cfg.CacheBytes > 0 {
		cache = layout.NewChunkCache(cfg.CacheBytes)
		farm.WithCache(cache)
	}
	calib := &costmodel.Calibration{}
	if cfg.CalibrationFile != "" {
		calib, err = costmodel.LoadCalibration(cfg.CalibrationFile)
		if err != nil {
			mesh.Close()
			ctrl.Close()
			farm.Close()
			return nil, err
		}
	}
	s := &Server{
		cfg:      cfg,
		mesh:     mesh,
		dispatch: engine.NewDispatcher(mesh),
		farm:     farm,
		cache:    cache,
		exec: core.Exec{
			Machine:      plan.Machine{Procs: m.Nodes, AccMemBytes: cfg.AccMemBytes},
			DisksPerNode: farm.DisksPerNode,
			Node:         cfg.Node,
			Calib:        calib,
		},
		ctrl:     ctrl,
		queries:  metrics.NewQueryLog(metrics.Default, "adr_node"),
		done:     make(chan struct{}),
		sessions: make(map[net.Conn]struct{}),
	}
	s.exec.Resolve = s.resolve
	if cfg.MaxQueries > 0 {
		s.admit = make(chan struct{}, cfg.MaxQueries)
	}
	s.datasets = make(map[string]*layout.Dataset, len(datasets))
	for _, ds := range datasets {
		s.datasets[ds.Name] = ds
	}
	go s.acceptLoop()
	return s, nil
}

// ControlAddr returns the bound control address.
func (s *Server) ControlAddr() string { return s.ctrl.Addr().String() }

// Queries returns this node's query log, for the /debug/queries surface.
func (s *Server) Queries() *metrics.QueryLog { return s.queries }

// Cache returns the node's chunk cache (nil when CacheBytes was 0).
func (s *Server) Cache() *layout.ChunkCache { return s.cache }

// Close shuts the daemon down. It closes every open control session, so no
// session handler waits past it for a next request.
func (s *Server) Close() error {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.sessions {
		conn.Close()
	}
	s.closeMu.Unlock()
	close(s.done)
	s.ctrl.Close()
	s.dispatch.Close()
	return s.farm.Close()
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ctrl.Accept()
		if err != nil {
			return // listener closed
		}
		go s.handle(conn)
	}
}

// handle serves one control session: request after request, each answered
// in full — an estimate line, or this node's output chunks closed by a done
// line — before the next is read. The rule the front-end's redial rests on:
// once a request has parsed, the node writes its done or error line before
// it ends the session, so a session closed without an answer carried no
// request the node read, and resending it on a fresh connection cannot run a
// query twice. An error line or a bad request ends the session, and so does
// RequestTimeout spent waiting for the next request, silently: no request is
// pending. Sessions run concurrently, their queries up to the admission
// bound; the dispatcher keeps the queries' mesh traffic apart.
func (s *Server) handle(conn net.Conn) {
	if !s.hold(conn) {
		conn.Close()
		return
	}
	defer s.drop(conn)
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)

	// An idle session, or a client that never delivers its request, must not
	// pin this goroutine forever. The admission slot is taken per request,
	// so an idle session holds none.
	reqTimeout := s.cfg.RequestTimeout
	if reqTimeout == 0 {
		reqTimeout = defaultRequestTimeout
	}
	for {
		if reqTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(reqTimeout))
		}
		if _, err := r.Peek(1); err != nil {
			return // hung up, or idle past the bound
		}
		if reqTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(reqTimeout))
		}
		var req frontend.NodeRequest
		if err := frontend.ReadJSON(r, &req); err != nil {
			// Tell the client what was wrong with its request. Writing
			// may fail if the peer is already gone — that is fine.
			frontend.WriteJSON(w, &frontend.Message{
				Type:  "error",
				Error: fmt.Sprintf("backend: bad request: %v", err),
				ErrInfo: &frontend.ErrorInfo{
					Node: int(s.cfg.Node), Origin: -1,
					Message: fmt.Sprintf("bad request: %v", err), Retryable: false,
				},
			})
			w.Flush()
			return
		}
		conn.SetReadDeadline(time.Time{})
		if !s.serve(&req, w) {
			return
		}
	}
}

// hold adds conn to the open control sessions, or reports false once the
// server is closed.
func (s *Server) hold(conn net.Conn) bool {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return false
	}
	s.sessions[conn] = struct{}{}
	return true
}

// drop closes conn and removes it from the open control sessions.
func (s *Server) drop(conn net.Conn) {
	s.closeMu.Lock()
	delete(s.sessions, conn)
	s.closeMu.Unlock()
	conn.Close()
}

// sendErr writes err as an error line. It locates the failure for the
// client: this node reports it, and when the error chain identifies the node
// that caused it (a dead mesh peer, a peer-broadcast abort), names that node
// too. Retryable marks failures a fresh submission stands a chance against
// (admission busy, a peer's death) so clients know to back off and resubmit
// rather than give up; Dead names the dead peer, for the resolver to plan the
// resubmission without.
func (s *Server) sendErr(w *bufio.Writer, err error, retryable bool) {
	info := &frontend.ErrorInfo{Node: int(s.cfg.Node), Origin: -1, Message: err.Error(), Retryable: retryable}
	var abort *engine.AbortError
	var peer *rpc.PeerError
	if errors.As(err, &abort) {
		info.Origin = int(abort.Node)
	} else if errors.As(err, &peer) {
		info.Origin = int(peer.Peer)
	}
	if dead, ok := engine.DeadPeer(err); ok {
		info.Dead = []int{int(dead)}
	}
	frontend.WriteJSON(w, &frontend.Message{Type: "error", Error: err.Error(), ErrInfo: info})
	w.Flush()
}

// serve answers one parsed request on w and reports whether the session may
// carry another: only when a done or estimate line reached the socket. Every
// per-query resource — the mailbox claim, the admission slot, the query
// deadline — is taken and released inside.
func (s *Server) serve(req *frontend.NodeRequest, w *bufio.Writer) bool {
	// Estimate requests: an AUTO prepare whose plan is not run. Cost the spec
	// under every fixed strategy with this node's calibrated model and reply
	// with the selection — no mesh participation, no execution. The resolver
	// stamps the winner into the spec it relays, so the whole mesh executes
	// the one strategy this node chose. Served ahead of admission control:
	// planning four candidate plans is cheap relative to a query, and an
	// AUTO resolver blocked behind a saturated admission queue could never
	// resolve the query that would eventually occupy a slot.
	if req.Estimate {
		var sel *metrics.Selection
		q, exclude, err := parseRequest(req, s.exec.Machine.Procs)
		if err == nil {
			q.Strategy = plan.Auto
			_, sel, err = s.exec.Prepare(q, exclude)
		}
		if err != nil {
			s.sendErr(w, err, false)
			return false
		}
		frontend.WriteJSON(w, &frontend.Message{Type: "estimate", Selection: sel})
		return w.Flush() == nil
	}

	// From here the request names a query this node is part of: claim its
	// mailbox — early arrivals wait in it through the admission queue — and
	// release it on every way out, so what peers sent a query this node
	// refused is retired, and their stragglers dropped, instead of queueing
	// for nobody.
	ep := s.dispatch.Endpoint(req.QueryID)
	defer s.dispatch.Release(req.QueryID)

	// Admission control: bounded concurrent queries; excess requests queue
	// (the adr_node_admission_waiting gauge is the queue depth). The wait is
	// bounded: a query spans every mesh node, so if overloaded nodes
	// admitted queries in different orders they could wait on each other's
	// participation forever — a timed-out admission turns that into a typed
	// "busy" error the client can retry instead.
	if s.admit != nil {
		wait := s.cfg.QueryTimeout
		if wait <= 0 {
			wait = defaultRequestTimeout
		}
		timer := time.NewTimer(wait)
		admWaiting.Inc()
		select {
		case s.admit <- struct{}{}:
			admWaiting.Dec()
			timer.Stop()
		case <-timer.C:
			admWaiting.Dec()
			s.sendErr(w, fmt.Errorf("backend: node %d busy: %d queries running, admission queue timed out after %v", s.cfg.Node, s.cfg.MaxQueries, wait), true)
			return false
		case <-s.done:
			admWaiting.Dec()
			timer.Stop()
			s.sendErr(w, fmt.Errorf("backend: node %d shutting down", s.cfg.Node), false)
			return false
		}
		admAdmitted.Inc()
		admActive.Inc()
		defer func() {
			admActive.Dec()
			<-s.admit
		}()
	}

	start := time.Now()
	rec := s.queries.Begin(req.QueryID, req.Spec.Input+"->"+req.Spec.Output+"/"+req.Spec.Strategy)
	trace, chunks, err := s.runQuery(req, ep, w)
	s.queries.End(rec, err, metrics.EndStats{
		BytesRead: trace.Totals.BytesRead,
		BytesSent: trace.Totals.BytesSent,
		BytesRecv: trace.Totals.BytesRecv,
		Chunks:    int64(chunks),
	})
	if err != nil {
		s.sendErr(w, err, engine.IsRetryable(err))
		return false
	}
	frontend.WriteJSON(w, &frontend.Message{Type: "done", Stats: &frontend.DoneStats{
		Node:       int(s.cfg.Node),
		Chunks:     chunks,
		BytesRead:  trace.Totals.BytesRead,
		BytesSent:  trace.Totals.BytesSent,
		BytesRecv:  trace.Totals.BytesRecv,
		AggOps:     trace.Totals.AggOps,
		ElapsedMS:  time.Since(start).Milliseconds(),
		TotalNodes: s.exec.Machine.Procs,
		Trace:      &trace,
		Degraded:   trace.Degraded,
		Excluded:   trace.Excluded,
	}})
	flushed := w.Flush() == nil
	// Persist the calibration only now, with the client already holding its
	// done line: the file write is off every query's path. A failed save must
	// not fail anything — it is counted instead.
	if s.cfg.CalibrationFile != "" {
		if err := s.exec.Calib.Save(s.cfg.CalibrationFile); err != nil {
			calibSaveErrs.Inc()
		}
	}
	return flushed
}

// resolve is the catalog half of the shared prepare step for this node: the
// manifest's datasets, mapped by identity.
func (s *Server) resolve(q *core.Query) (in, out *layout.Dataset, mapper space.RectMapper, err error) {
	in, ok := s.datasets[q.Input]
	if !ok {
		return nil, nil, nil, fmt.Errorf("backend: input dataset %q not in catalog", q.Input)
	}
	out, ok = s.datasets[q.Output]
	if !ok {
		return nil, nil, nil, fmt.Errorf("backend: output dataset %q not in catalog", q.Output)
	}
	return in, out, space.IdentityMapper{}, nil
}

// parseRequest turns a control request into what the node plans: the typed
// query (datasets, boxes, strategy, result dataset, App) and the exclusion
// set, each node id checked against the procs-node mesh. Estimates and
// executions both parse through it, so the two refuse the same requests.
func parseRequest(req *frontend.NodeRequest, procs int) (*core.Query, []rpc.NodeID, error) {
	spec := &req.Spec
	inBox, err := frontend.ParseBox(spec.InputBox)
	if err != nil {
		return nil, nil, err
	}
	outBox, err := frontend.ParseBox(spec.OutputBox)
	if err != nil {
		return nil, nil, err
	}
	q := &core.Query{Input: spec.Input, Output: spec.Output, InputBox: inBox, OutputBox: outBox, ResultDataset: spec.ResultDataset}
	if q.Strategy, err = spec.ParseStrategy(); err != nil {
		return nil, nil, err
	}
	if q.App, err = spec.App.Build(); err != nil {
		return nil, nil, err
	}
	// The codec is ignored (QuerySpec.Codec), but a name no codec has is
	// still refused.
	if _, err := chunk.ParseCodec(spec.Codec); err != nil {
		return nil, nil, err
	}
	exclude := make([]rpc.NodeID, len(req.Exclude))
	for i, id := range req.Exclude {
		if id < 0 || id >= procs {
			return nil, nil, fmt.Errorf("backend: excluded node %d outside the %d-node mesh", id, procs)
		}
		exclude[i] = rpc.NodeID(id)
	}
	return q, exclude, nil
}

// runQuery plans and executes the query on this node, streaming owned
// output chunks to w: the shared prepare step, engine.RunNodeTraced on ep,
// the query's dispatcher endpoint, and the shared observe step (see
// core.Exec).
func (s *Server) runQuery(req *frontend.NodeRequest, ep *engine.QueryEndpoint, w *bufio.Writer) (trace metrics.NodeTrace, chunks int, err error) {
	q, exclude, err := parseRequest(req, s.exec.Machine.Procs)
	if err != nil {
		return trace, 0, err
	}
	if q.Strategy == plan.Auto {
		// Executing AUTO directly would let each node's own calibration pick
		// a — possibly different — winner and diverge the mesh. The resolver
		// (front-end or parallel client) must request estimates and relay
		// the resolved strategy.
		return trace, 0, fmt.Errorf("backend: strategy AUTO must be resolved by the client before execution (send an estimate request, then submit the chosen strategy)")
	}
	cfg, _, err := s.exec.Prepare(q, exclude)
	if err != nil {
		return trace, 0, err
	}

	var streamMu sync.Mutex
	cfg.OnResult = func(node rpc.NodeID, c *chunk.Chunk) error {
		// Encode outside the lock, into a pooled buffer: concurrent
		// emitters serialize only on the socket write.
		frame, err := frontend.AppendFrame(bufpool.Get(frontend.FrameSize(c))[:0], c)
		if err == nil {
			streamMu.Lock()
			chunks++
			_, err = w.Write(frame)
			streamMu.Unlock()
		}
		bufpool.Put(frame)
		return err
	}
	ctx := context.Background()
	timeout := s.cfg.QueryTimeout
	if timeout <= 0 && s.admit != nil {
		// Admission control requires bounded execution: an admitted query
		// holds a slot while its engine waits on every mesh peer's
		// participation, and a peer that admitted a *different* query first
		// may never get to this one (admission skew). Without a deadline the
		// two nodes pin their slots forever; with one, both queries abort,
		// the slots free, and the clients retry against a live mesh.
		timeout = defaultRequestTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	trace, err = engine.RunNodeTraced(ctx, cfg, ep, engine.FarmStorage{Farm: s.farm})
	replicaFallbackReads.Add(trace.Totals.ReplicaFallbackReads)
	if err != nil {
		return trace, chunks, err
	}
	if trace.Degraded {
		degradedQueries.Inc()
	}
	// Observe before the done line goes out: a client that gets done and at
	// once asks for an estimate must find this query folded in.
	s.exec.Observe(&cfg, nil, trace)
	streamMu.Lock()
	w.Flush()
	streamMu.Unlock()
	return trace, chunks, nil
}
