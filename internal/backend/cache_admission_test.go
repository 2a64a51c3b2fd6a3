package backend_test

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"adr/internal/apps"
	"adr/internal/backend"
	"adr/internal/frontend"
	"adr/internal/leakcheck"
	"adr/internal/metrics"
	"adr/internal/rpc"
)

// startNodes launches a mesh of node daemons over a freshly built farm dir
// and returns the servers plus their control addresses.
func startNodes(t *testing.T, nodes int, mut func(i int, cfg *backend.Config)) ([]*backend.Server, []string) {
	t.Helper()
	dir := t.TempDir()
	buildFarmDir(t, dir, nodes)
	return startNodesOver(t, dir, nodes, mut)
}

// startNodesOver is startNodes over an already loaded farm directory.
func startNodesOver(t *testing.T, dir string, nodes int, mut func(i int, cfg *backend.Config)) ([]*backend.Server, []string) {
	t.Helper()
	meshAddrs, meshLns := freeAddrs(t, nodes)
	servers := make([]*backend.Server, nodes)
	startErr := make(chan error, nodes)
	for i := 0; i < nodes; i++ {
		go func(i int) {
			cfg := backend.Config{
				Node: rpc.NodeID(i), MeshAddrs: meshAddrs, MeshListener: meshLns[i],
				ControlAddr: "127.0.0.1:0", DataDir: dir,
			}
			if mut != nil {
				mut(i, &cfg)
			}
			s, err := backend.Start(cfg)
			servers[i] = s
			startErr <- err
		}(i)
	}
	for i := 0; i < nodes; i++ {
		if err := <-startErr; err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, s := range servers {
			if s != nil {
				s.Close()
			}
		}
	})
	ctrl := make([]string, nodes)
	for i, s := range servers {
		ctrl[i] = s.ControlAddr()
	}
	return servers, ctrl
}

// TestMalformedRequestError: garbage on the control port gets a structured
// error frame back, not a silent hangup.
func TestMalformedRequestError(t *testing.T) {
	_, ctrl := startNodes(t, 1, nil)
	conn, err := net.Dial("tcp", ctrl[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	var msg frontend.Message
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := frontend.ReadJSON(bufio.NewReader(conn), &msg); err != nil {
		t.Fatalf("no error frame for malformed request: %v", err)
	}
	if msg.Type != "error" || msg.ErrInfo == nil {
		t.Fatalf("frame = %+v, want structured error", msg)
	}
	if msg.ErrInfo.Node != 0 || !strings.Contains(msg.ErrInfo.Message, "bad request") {
		t.Fatalf("error info = %+v", msg.ErrInfo)
	}
}

// TestRequestHeaderTimeout: a connection that never sends its request is
// answered (with an error frame) and released within the configured bound
// instead of pinning a handler goroutine forever.
func TestRequestHeaderTimeout(t *testing.T) {
	_, ctrl := startNodes(t, 1, func(i int, cfg *backend.Config) {
		cfg.RequestTimeout = 150 * time.Millisecond
	})
	conn, err := net.Dial("tcp", ctrl[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing. The server must give up on its own.
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var msg frontend.Message
	readErr := frontend.ReadJSON(bufio.NewReader(conn), &msg)
	elapsed := time.Since(start)
	if elapsed > 3*time.Second {
		t.Fatalf("server held the idle connection for %v", elapsed)
	}
	// Either outcome is acceptable at the wire level — an error frame, or
	// the deadline surfacing as a closed connection — but it must be prompt.
	if readErr == nil && msg.Type != "error" {
		t.Fatalf("unexpected frame %+v", msg)
	}
}

// TestAdmissionBound: with MaxQueries=1, concurrent queries queue and all
// complete; the admitted counter moves and the active gauge drains to zero.
// A single node keeps the test deterministic — on a multi-node mesh
// admission order can skew across nodes (see TestAdmissionSkewRecovers).
func TestAdmissionBound(t *testing.T) {
	_, ctrl := startNodes(t, 1, func(i int, cfg *backend.Config) {
		cfg.MaxQueries = 1
	})
	admitted := metrics.Default.Counter("adr_node_admission_admitted_total")
	active := metrics.Default.Gauge("adr_node_admission_active")
	before := admitted.Value()

	fe, err := frontend.Start("127.0.0.1:0", ctrl)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()

	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			client, err := frontend.Dial(fe.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			chunks, _, err := client.Query(&frontend.QuerySpec{
				Input: "sensor", Output: "raster", Strategy: "DA",
				App: frontend.AppSpec{Op: "count", CellsPerDim: 2},
			})
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", k, err)
				return
			}
			var total int64
			for _, c := range chunks {
				for _, it := range c.Items {
					v, _ := apps.DecodeValue(it.Value)
					total += v
				}
			}
			if total != 1500 {
				errs <- fmt.Errorf("client %d counted %d", k, total)
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every query passed admission.
	if got := admitted.Value() - before; got < clients {
		t.Fatalf("admitted %d queries, want >= %d", got, clients)
	}
	// A node releases its slot just after the done line is on the wire, so the
	// last client can get here first: give the release a moment.
	for deadline := time.Now().Add(2 * time.Second); active.Value() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("admission active gauge = %d after drain", active.Value())
		}
	}
}

// TestAdmissionSkewRecovers: on a multi-node mesh with a tight admission
// bound, concurrent queries can be admitted in different orders on
// different nodes — each node running a query its peer never admitted.
// The execution deadline must break the cycle: slots free, and a fresh
// query succeeds afterwards instead of the mesh staying wedged forever.
//
// Afterwards nothing of the storm may be left behind: a query a node refused
// at admission was still sent chunks by the peers that ran it, and those must
// have been retired — pooled buffers recycled, and with a forwarding window
// set, the senders' credit returned.
func TestAdmissionSkewRecovers(t *testing.T) {
	for name, window := range map[string]int64{"window off": 0, "window 4KiB": 4 << 10} {
		t.Run(name, func(t *testing.T) { admissionSkewRecovers(t, window) })
	}
}

func admissionSkewRecovers(t *testing.T, window int64) {
	leakcheck.Check(t)
	_, ctrl := startNodes(t, 2, func(i int, cfg *backend.Config) {
		cfg.MaxQueries = 1
		cfg.QueryTimeout = 750 * time.Millisecond
		cfg.Flow.WindowBytes = window
	})
	// Checked again while the stack is still up: its shutdown reclaims every
	// charged byte, so only this check sees credit the storm stranded.
	leakcheck.Check(t)
	fe, err := frontend.Start("127.0.0.1:0", ctrl)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()

	spec := &frontend.QuerySpec{
		Input: "sensor", Output: "raster", Strategy: "DA",
		App: frontend.AppSpec{Op: "count", CellsPerDim: 2},
	}
	// The storm: concurrent queries may deadlock pairwise and abort on the
	// deadline — errors here are expected and acceptable.
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := frontend.Dial(fe.Addr())
			if err != nil {
				return
			}
			defer client.Close()
			client.Query(spec)
		}()
	}
	wg.Wait()

	// Recovery: the mesh must accept and complete a query once the dust
	// settles. Retry across the deadline window in which aborting engines
	// still hold their slots.
	deadline := time.Now().Add(15 * time.Second)
	for {
		client, err := frontend.Dial(fe.Addr())
		if err != nil {
			t.Fatal(err)
		}
		chunks, _, err := client.Query(spec)
		client.Close()
		if err == nil {
			var total int64
			for _, c := range chunks {
				for _, it := range c.Items {
					v, _ := apps.DecodeValue(it.Value)
					total += v
				}
			}
			if total != 1500 {
				t.Fatalf("recovery query counted %d", total)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mesh never recovered from admission skew: %v", err)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// TestRefusedQueryReleasesInbound: a node that answers "busy" never runs the
// query, but the peer that admitted it forwards chunks — and later its abort
// — all the same. The refusal must retire what already arrived (buffers back
// to the pool, credit back to the peer) and leave the id dead, so what
// arrives afterwards is dropped as late instead of queueing for nobody.
func TestRefusedQueryReleasesInbound(t *testing.T) {
	leakcheck.Check(t)
	_, ctrl := startNodes(t, 2, func(i int, cfg *backend.Config) {
		// Wide enough never to block a sender — a blocker's forwards are not
		// consumed until the end of the test — but on, so the in-flight
		// gauge shows what a refusal leaves charged.
		cfg.Flow.WindowBytes = 1 << 20
		if i == 0 {
			cfg.MaxQueries = 1
			cfg.QueryTimeout = 600 * time.Millisecond
		} else {
			// Node 1 admits everything and outlives node 0's refusal: its
			// abort of the refused query arrives after it.
			cfg.QueryTimeout = 1500 * time.Millisecond
		}
	})
	// Checked again while the stack is still up: its shutdown reclaims every
	// charged byte, so only this check sees credit a refusal stranded.
	leakcheck.Check(t)
	submit := func(node int, id int32) <-chan *frontend.Message {
		answer := make(chan *frontend.Message, 1)
		conn, err := net.Dial("tcp", ctrl[node])
		if err != nil {
			t.Fatal(err)
		}
		req := &frontend.NodeRequest{QueryID: id, Spec: frontend.QuerySpec{
			Input: "sensor", Output: "raster", Strategy: "DA",
			App: frontend.AppSpec{Op: "count", CellsPerDim: 2},
		}}
		if err := frontend.WriteJSON(conn, req); err != nil {
			t.Fatal(err)
		}
		go func() {
			defer conn.Close()
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			for r := bufio.NewReader(conn); ; {
				_, msg, err := frontend.ReadFrame(r, false)
				if err != nil {
					msg = &frontend.Message{Type: "unreadable", Error: err.Error()}
				}
				if msg != nil { // the control line that ends the stream
					answer <- msg
					return
				}
			}
		}()
		return answer
	}
	gaugeReaches := func(name string, want int64) {
		t.Helper()
		g := metrics.Default.Gauge(name)
		for deadline := time.Now().Add(5 * time.Second); g.Value() != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s = %d, want %d", name, g.Value(), want)
			}
		}
	}
	late := metrics.Default.Counter("adr_dispatch_late_msgs_total")
	lateBefore := late.Value()

	// Node 0's one slot goes to a query that waits for node 1, which has not
	// heard of it yet; a second one queues behind it, and behind that the
	// query under test, which node 1 starts running at once.
	holder := submit(0, 9001)
	gaugeReaches("adr_node_admission_active", 1)
	blocker := submit(0, 9002)
	gaugeReaches("adr_node_admission_waiting", 1)
	refused := submit(0, 9003)
	gaugeReaches("adr_node_admission_waiting", 2)
	admitted := submit(1, 9003)
	// Now let the holder finish: the blocker takes the slot after the refused
	// query began to wait, so — one timeout bounds both — it still holds it
	// when that wait runs out.
	if msg := <-submit(1, 9001); msg.Type != "done" {
		t.Fatalf("holder on node 1 answered %+v", msg)
	}
	if msg := <-holder; msg.Type != "done" {
		t.Fatalf("holder on node 0 answered %+v", msg)
	}
	if msg := <-refused; msg.Type != "error" || msg.ErrInfo == nil || !msg.ErrInfo.Retryable || !strings.Contains(msg.Error, "busy") {
		t.Fatalf("node 0 answered %+v, want a retryable busy error", msg)
	}
	if msg := <-blocker; msg.Type != "error" {
		t.Fatalf("the blocker answered %+v, want its deadline error", msg)
	}
	if msg := <-admitted; msg.Type != "error" {
		t.Fatalf("node 1 answered %+v, want its deadline error", msg)
	}
	for deadline := time.Now().Add(5 * time.Second); late.Value() == lateBefore; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("node 1's abort of the refused query was not counted in adr_dispatch_late_msgs_total")
		}
	}
	// What the blocker sent node 1 waits there, unclaimed, for a request that
	// would only expire with the engine's inbound lifetime: deliver it, late.
	// Node 0 sent everything before it gave up, so node 1 may even finish.
	if msg := <-submit(1, 9002); msg.Type == "unreadable" {
		t.Fatalf("late request on node 1: %s", msg.Error)
	}
}

// TestWarmCacheStack: the same query twice against cache-enabled nodes —
// the warm run reads far less from disk and reports cache hits in its
// per-node traces.
func TestWarmCacheStack(t *testing.T) {
	servers, ctrl := startNodes(t, 2, func(i int, cfg *backend.Config) {
		cfg.CacheBytes = 64 << 20
	})
	for i, s := range servers {
		if s.Cache() == nil {
			t.Fatalf("node %d has no cache", i)
		}
	}
	fe, err := frontend.Start("127.0.0.1:0", ctrl)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	client, err := frontend.Dial(fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	diskReads := metrics.Default.Counter("adr_disk_reads_total")
	run := func() (*frontend.DoneStats, int64) {
		before := diskReads.Value()
		_, stats, err := client.Query(&frontend.QuerySpec{
			Input: "sensor", Output: "raster", Strategy: "FRA",
			App: frontend.AppSpec{Kind: "raster", Op: "sum", CellsPerDim: 4},
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats, diskReads.Value() - before
	}

	_, coldReads := run()
	if coldReads == 0 {
		t.Fatal("cold run hit no disk — cache test is vacuous")
	}
	stats, warmReads := run()
	if warmReads*2 > coldReads {
		t.Fatalf("warm run read %d chunks from disk vs %d cold; cache absorbed too little", warmReads, coldReads)
	}
	var hits int64
	for _, tr := range stats.Traces {
		hits += tr.Totals.CacheHits
	}
	if hits == 0 {
		t.Fatal("warm-run traces report no cache hits")
	}
}
