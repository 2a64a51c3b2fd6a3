package backend_test

import (
	"bufio"
	"errors"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adr/internal/apps"
	"adr/internal/backend"
	"adr/internal/chunk"
	"adr/internal/frontend"
	"adr/internal/layout"
	"adr/internal/leakcheck"
	"adr/internal/metrics"
	"adr/internal/plan"
	"adr/internal/space"
)

// buildReplicatedFarmDir is buildFarmDir with r-way chained replication, so
// a dead node's chunks have surviving holders to be planned onto.
func buildReplicatedFarmDir(t *testing.T, dir string, nodes, replicas int) {
	t.Helper()
	farm, err := layout.OpenFarm(dir, nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()

	rng := rand.New(rand.NewSource(31))
	inSpace := space.AttrSpace{Name: "sensor", Bounds: space.R(0, 40, 0, 40)}
	var items []chunk.Item
	for i := 0; i < 1500; i++ {
		items = append(items, chunk.Item{
			Coord: space.Pt(rng.Float64()*40, rng.Float64()*40),
			Value: apps.EncodeValue(int64(rng.Intn(500))),
		})
	}
	grid, _ := space.NewGrid(inSpace.Bounds, 8, 8)
	chunks, err := layout.PartitionGrid(items, grid)
	if err != nil {
		t.Fatal(err)
	}
	loader := &layout.Loader{Farm: farm, Replicas: replicas}
	inDS, err := loader.Load("sensor", inSpace, chunks)
	if err != nil {
		t.Fatal(err)
	}
	outSpace := space.AttrSpace{Name: "raster", Bounds: space.R(0, 40, 0, 40)}
	og, _ := space.NewGrid(outSpace.Bounds, 4, 4)
	var outChunks []*chunk.Chunk
	for c := 0; c < og.NumCells(); c++ {
		outChunks = append(outChunks, &chunk.Chunk{Meta: chunk.Meta{MBR: og.CellRect(c)}})
	}
	outDS, err := loader.Load("raster", outSpace, outChunks)
	if err != nil {
		t.Fatal(err)
	}
	if err := layout.SaveManifest(dir, nodes, 1, []*layout.Dataset{inDS, outDS}); err != nil {
		t.Fatal(err)
	}
}

// nodeProxy stands in front of one node daemon's control port for the
// failover tests. It relays each request and the node's reply stream frame by
// frame, request after request on one session, counts what it is asked, can
// hold requests or replies back, and kills the daemon on demand; a killed node's proxy still accepts (and
// counts) connections, and hangs each up at once, as a dead host would.
type nodeProxy struct {
	srv  *backend.Server
	ln   net.Listener
	addr string
	// conns counts connections accepted; reqs the query (not estimate)
	// requests relayed to the daemon.
	conns, reqs atomic.Int64
	// holdRequests keeps requests from the daemon: it never joins the query,
	// so its peers block on its share. holdReplies keeps the daemon's reply
	// streams from the caller. Both hold until the kill.
	holdRequests, holdReplies atomic.Bool
	// relayed, when non-nil, is called for every control line relayed.
	relayed func(*frontend.Message)

	killed   chan struct{}
	killOnce sync.Once
}

func startProxy(t *testing.T, srv *backend.Server) *nodeProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &nodeProxy{srv: srv, ln: ln, addr: ln.Addr().String(), killed: make(chan struct{})}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.conns.Add(1)
			go p.relay(conn)
		}
	}()
	return p
}

// kill closes the daemon — its mesh peers see it die — and hangs up every
// caller of the proxy.
func (p *nodeProxy) kill() {
	p.killOnce.Do(func() {
		p.srv.Close()
		close(p.killed)
	})
}

func (p *nodeProxy) dead() bool {
	select {
	case <-p.killed:
		return true
	default:
		return false
	}
}

// wait blocks while hold is set, and reports whether the node is still
// alive afterwards.
func (p *nodeProxy) wait(hold *atomic.Bool) bool {
	if hold.Load() {
		<-p.killed
	}
	return !p.dead()
}

func (p *nodeProxy) relay(conn net.Conn) {
	defer conn.Close()
	if p.dead() {
		return
	}
	// The kill hangs up the caller and the daemon's side alike.
	var node net.Conn
	var mu sync.Mutex
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-p.killed:
			mu.Lock()
			conn.Close()
			if node != nil {
				node.Close()
			}
			mu.Unlock()
		case <-done:
		}
	}()
	// One session, as a daemon serves it: request after request, each
	// relayed to the daemon on one connection and answered up to the control
	// line that ends it.
	in := bufio.NewReader(conn)
	var r *bufio.Reader
	for {
		var req frontend.NodeRequest
		if err := frontend.ReadJSON(in, &req); err != nil {
			return
		}
		if !req.Estimate {
			p.reqs.Add(1)
		}
		if !p.wait(&p.holdRequests) {
			return
		}
		if node == nil {
			mu.Lock()
			var err error
			node, err = net.Dial("tcp", p.srv.ControlAddr())
			mu.Unlock()
			if err != nil {
				return
			}
			defer node.Close()
			r = bufio.NewReader(node)
		}
		if err := frontend.WriteJSON(node, &req); err != nil {
			return
		}
		for msg := (*frontend.Message)(nil); msg == nil; {
			var frame []byte
			var err error
			frame, msg, err = frontend.ReadFrame(r, false)
			if err != nil || !p.wait(&p.holdReplies) {
				return
			}
			if frame != nil {
				_, err = conn.Write(frame)
			} else {
				err = frontend.WriteJSON(conn, msg)
				if p.relayed != nil {
					p.relayed(msg)
				}
			}
			if err != nil {
				return
			}
		}
	}
}

// failoverStack is a 3-node daemon mesh over a shared farm, each node behind
// a proxy, and a front-end whose nodes are the proxies.
type failoverStack struct {
	proxies []*nodeProxy
	addrs   []string
	fe      *frontend.Server
}

// queryDeadline bounds every node's execution in the failover stacks: a
// query that waited it out would show as a deadline error.
const queryDeadline = 20 * time.Second

func startFailoverStack(t *testing.T, dir string, nodes int) *failoverStack {
	t.Helper()
	servers, _ := startNodesOver(t, dir, nodes, func(_ int, cfg *backend.Config) {
		cfg.QueryTimeout = queryDeadline
	})
	st := &failoverStack{}
	for _, srv := range servers {
		p := startProxy(t, srv)
		st.proxies = append(st.proxies, p)
		st.addrs = append(st.addrs, p.addr)
	}
	fe, err := frontend.Start("127.0.0.1:0", st.addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fe.Close() })
	st.fe = fe
	return st
}

// killPoints are the moments the failover tests kill node 2 at, each given
// as the setup before the query is submitted.
var killPoints = []struct {
	name string
	arm  func(st *failoverStack, victim int)
}{
	// The node is gone before the query: its death is on every survivor's
	// record when the request arrives.
	{"before", func(st *failoverStack, victim int) { st.proxies[victim].kill() }},
	// The node never receives the request, and dies once every survivor is
	// executing: they are blocked on its share (inputs it forwards, ghosts
	// it sends) when the death arrives.
	{"mid-query", func(st *failoverStack, victim int) {
		st.proxies[victim].holdRequests.Store(true)
		go func() {
			for {
				ready := true
				for i, p := range st.proxies {
					ready = ready && (i == victim || p.reqs.Load() > 0)
				}
				if ready {
					break
				}
				time.Sleep(time.Millisecond)
			}
			time.Sleep(50 * time.Millisecond)
			st.proxies[victim].kill()
		}()
	}},
	// The node runs the query, but its replies are held; it dies as soon as
	// a survivor's done line is on its way to the caller.
	{"after-done", func(st *failoverStack, victim int) {
		st.proxies[victim].holdReplies.Store(true)
		for i, p := range st.proxies {
			if i != victim {
				p.relayed = func(m *frontend.Message) {
					if m.Type == "done" {
						st.proxies[victim].kill()
					}
				}
			}
		}
	}},
}

// runKillFailover kills node 2 of a fresh stack over dir at the kill point
// and queries through the relay (Client.Query) or a ParallelClient, once: the
// call itself must come back with the fault-free result — bit-identical to
// engine.RunSerial — planned without node 2, well inside the nodes' deadline.
// The next query must then run without node 2 from its first attempt: no
// dial to it, one request to each survivor.
func runKillFailover(t *testing.T, dir string, strategy plan.Strategy, kill int, parallel bool) {
	const victim = 2
	st := startFailoverStack(t, dir, 3)
	spec := &frontend.QuerySpec{
		Input: "sensor", Output: "raster", Strategy: strategy.String(),
		App: frontend.AppSpec{Op: "sum", CellsPerDim: 4},
	}
	want := serialOracle(t, dir, spec)
	var query func() ([]*frontend.ChunkJSON, *frontend.DoneStats, error)
	if parallel {
		pc, err := frontend.NewParallelClient(st.addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		query = func() ([]*frontend.ChunkJSON, *frontend.DoneStats, error) {
			streams, err := pc.Query(spec)
			if err != nil {
				return nil, nil, err
			}
			var chunks []*frontend.ChunkJSON
			for _, s := range streams {
				if s.Excluded != (s.Node == victim) {
					t.Errorf("node %d stream Excluded = %v", s.Node, s.Excluded)
				}
				chunks = append(chunks, s.Chunks...)
			}
			return chunks, streams[0].Stats, nil
		}
	} else {
		client, err := frontend.Dial(st.fe.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		query = func() ([]*frontend.ChunkJSON, *frontend.DoneStats, error) { return client.Query(spec) }
	}

	degraded := metrics.Default.Counter("adr_node_degraded_queries_total")
	before := degraded.Value()
	killPoints[kill].arm(st, victim)
	start := time.Now()
	chunks, stats, err := query()
	if err != nil {
		t.Fatalf("query across the kill: %v", err)
	}
	if elapsed := time.Since(start); elapsed > queryDeadline/2 {
		t.Errorf("query across the kill took %v, against a %v node deadline", elapsed, queryDeadline)
	}
	if !st.proxies[victim].dead() {
		t.Fatal("the kill never happened")
	}
	requireBitIdentical(t, want, chunks)
	if stats == nil || !stats.Degraded || !slices.Equal(stats.Excluded, []int{victim}) {
		t.Errorf("done stats = %+v, want degraded with node %d excluded", stats, victim)
	}
	if after := degraded.Value(); after <= before {
		t.Errorf("adr_node_degraded_queries_total = %d, want > %d", after, before)
	}

	dials, reqs := st.proxies[victim].conns.Load(), []int64{st.proxies[0].reqs.Load(), st.proxies[1].reqs.Load()}
	chunks, _, err = query()
	if err != nil {
		t.Fatalf("query after the failover: %v", err)
	}
	requireBitIdentical(t, want, chunks)
	if got := st.proxies[victim].conns.Load(); got != dials {
		t.Errorf("the next query dialled the dead node %d times", got-dials)
	}
	for i := range reqs {
		if got := st.proxies[i].reqs.Load() - reqs[i]; got != 1 {
			t.Errorf("the next query asked survivor %d %d times, want once", i, got)
		}
	}
}

// killMatrix runs runKillFailover for every strategy and both clients at
// the named kill points, over one replicated farm.
func killMatrix(t *testing.T, points ...string) {
	dir := t.TempDir()
	buildReplicatedFarmDir(t, dir, 3, 2)
	for _, s := range plan.Strategies {
		for k, kp := range killPoints {
			if !slices.Contains(points, kp.name) {
				continue
			}
			for _, parallel := range []bool{false, true} {
				client := "relay"
				if parallel {
					client = "parallel"
				}
				t.Run(s.String()+"/"+kp.name+"/"+client, func(t *testing.T) {
					leakcheck.Check(t)
					runKillFailover(t, dir, s, k, parallel)
				})
			}
		}
	}
}

// TestBackendDegradedFailover is the daemon-stack failover acceptance test:
// a farm loaded with 2-way replication, three node daemons, node 2 killed
// before the query or while the survivors execute it. One Client.Query or
// ParallelClient.Query call returns the fault-free result: the survivors
// fail retryably naming node 2, the resolver resubmits without it, and they
// complete planned onto their replica copies.
func TestBackendDegradedFailover(t *testing.T) {
	killMatrix(t, "before", "mid-query")
}

// TestKillAtCompletionFailover: node 2 dies after at least one survivor has
// sent done, before its own reply reaches the caller — the timing the old
// in-mesh protocol could not terminate under. The one call still returns
// the fault-free result without waiting out any deadline.
func TestKillAtCompletionFailover(t *testing.T) {
	killMatrix(t, "after-done")
}

// TestBackendUnreplicatedDegradedAbortFailover: the same kill on an
// unreplicated farm has no surviving copy to plan onto, so once the resolver
// knows the node dead, planning fails with a non-retryable error naming the
// chunk (plan.NoHolderError) — promptly.
func TestBackendUnreplicatedDegradedAbortFailover(t *testing.T) {
	leakcheck.Check(t)
	servers, ctrl := startNodes(t, 2, nil)
	pc, err := frontend.NewParallelClient(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	servers[1].Close()

	start := time.Now()
	_, err = pc.Query(&frontend.QuerySpec{
		Input: "sensor", Output: "raster", Strategy: "DA",
		App: frontend.AppSpec{Op: "sum", CellsPerDim: 4},
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("unreplicated failure took %v", elapsed)
	}
	var qe *frontend.QueryError
	if !errors.As(err, &qe) || qe.Retryable || !strings.Contains(qe.Message, "plan: chunk sensor/") ||
		!strings.Contains(qe.Message, "has no surviving holder (node 1 excluded)") {
		t.Fatalf("query on an unreplicated farm after a death = %v, want a non-retryable no-holder error naming the chunk", err)
	}
}
