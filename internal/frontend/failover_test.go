package frontend

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adr/internal/chunk"
	"adr/internal/leakcheck"
	"adr/internal/metrics"
	"adr/internal/space"
)

// fakeNode is a minimal back-end control-port stand-in: it accepts
// connections and answers each query request with a scripted batch of wire
// frames, one batch per request.
type fakeNode struct {
	ln net.Listener
	// respond produces the n-th request's stream (0-based, across all
	// connections) as raw wire bytes, one element per write: ctl and
	// chunkFrame build well-formed frames, and a test may script anything
	// else a node could send. A nil element hangs up mid-stream.
	respond func(n int) [][]byte
	// conns counts connections accepted, reqs requests served.
	conns atomic.Int64
	reqs  atomic.Int64
	// log holds every request served, in arrival order.
	mu  sync.Mutex
	log []NodeRequest
}

// requests returns the requests served so far.
func (f *fakeNode) requests() []NodeRequest {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.log)
}

func startFakeNode(t *testing.T, respond func(n int) [][]byte) *fakeNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeNode{ln: ln, respond: respond}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			f.conns.Add(1)
			go f.serve(conn)
		}
	}()
	return f
}

func (f *fakeNode) serve(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	for {
		var req NodeRequest
		if err := ReadJSON(r, &req); err != nil {
			return
		}
		f.mu.Lock()
		f.log = append(f.log, req)
		f.mu.Unlock()
		n := int(f.reqs.Add(1)) - 1
		for _, b := range f.respond(n) {
			if b == nil {
				return
			}
			if _, err := conn.Write(b); err != nil {
				return
			}
		}
	}
}

// ctl encodes a control line as the daemons write it.
func ctl(msg *Message) []byte {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, msg); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// fakeChunk is the output chunk the fakes stream: empty, 2-D, dataset "img".
func fakeChunk(id int) *chunk.Chunk {
	return &chunk.Chunk{Meta: chunk.Meta{ID: chunk.ID(id), Dataset: "img", MBR: space.R(0, 1, 0, 1)}}
}

// chunkFrame encodes c with the daemons' one frame writer.
func chunkFrame(c *chunk.Chunk) []byte {
	frame, err := AppendFrame(nil, c)
	if err != nil {
		panic(err)
	}
	return frame
}

func busyFrame() []byte {
	return ctl(&Message{Type: "error", Error: "node busy", ErrInfo: &ErrorInfo{
		Node: 0, Origin: -1, Message: "node busy: admission queue full", Retryable: true,
	}})
}

func fatalFrame() []byte {
	return ctl(&Message{Type: "error", Error: "no such dataset", ErrInfo: &ErrorInfo{
		Node: 0, Origin: -1, Message: "no such dataset", Retryable: false,
	}})
}

func doneFrame(node int) [][]byte {
	return [][]byte{
		chunkFrame(fakeChunk(node)),
		ctl(&Message{Type: "done", Stats: &DoneStats{Node: node, Chunks: 1}}),
	}
}

// deadFrame is the error frame a survivor sends when its query failed
// because node dead died.
func deadFrame(node, dead int) []byte {
	return ctl(&Message{Type: "error", Error: "peer down", ErrInfo: &ErrorInfo{
		Node: node, Origin: dead, Message: "engine: peer down", Retryable: true, Dead: []int{dead},
	}})
}

// degradedSurvivor is node 1 of a two-node mesh whose node 0 died: the first
// request fails on node 0's death, after streaming one chunk; every later
// one completes, planned without node 0, with chunk id.
func degradedSurvivor(t *testing.T, id int) *fakeNode {
	return startFakeNode(t, func(n int) [][]byte {
		if n == 0 {
			return [][]byte{chunkFrame(itemsChunk(id, 5)), deadFrame(1, 0)}
		}
		return [][]byte{
			chunkFrame(itemsChunk(id, 5)),
			ctl(&Message{Type: "done", Stats: &DoneStats{Node: 1, Chunks: 1, Degraded: true, Excluded: []int{0}}}),
		}
	})
}

// checkResubmitted: the survivor was asked twice — first with the full mesh,
// then without node 0.
func checkResubmitted(t *testing.T, survivor *fakeNode) {
	t.Helper()
	reqs := survivor.requests()
	if len(reqs) != 2 || len(reqs[0].Exclude) != 0 || !slices.Equal(reqs[1].Exclude, []int{0}) || reqs[0].QueryID == reqs[1].QueryID {
		t.Errorf("survivor requests = %+v, want the query, then a fresh id excluding node 0", reqs)
	}
}

// TestParallelClientBusyRetryFailover: retryable error frames are retried
// with backoff under fresh query ids until the node admits the query; a
// fatal frame is returned immediately without burning retries.
func TestParallelClientBusyRetryFailover(t *testing.T) {
	node := startFakeNode(t, func(n int) [][]byte {
		if n < 2 {
			return [][]byte{busyFrame()}
		}
		return doneFrame(0)
	})
	pc, err := NewParallelClient([]string{node.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	pc.BusyRetries = 3
	streams, err := pc.Query(&QuerySpec{Input: "pts", Output: "img"})
	if err != nil {
		t.Fatalf("query after busy retries failed: %v", err)
	}
	if len(streams) != 1 || len(streams[0].Chunks) != 1 {
		t.Fatalf("streams = %+v, want one stream with one chunk", streams)
	}
	if got := node.reqs.Load(); got != 3 {
		t.Errorf("node served %d requests, want 3 (2 busy + 1 success)", got)
	}

	// Disabled retries: the first busy frame comes straight back, typed.
	busy := startFakeNode(t, func(int) [][]byte { return [][]byte{busyFrame()} })
	pc2, err := NewParallelClient([]string{busy.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer pc2.Close()
	pc2.BusyRetries = -1
	_, err = pc2.Query(&QuerySpec{Input: "pts", Output: "img"})
	var qe *QueryError
	if !errors.As(err, &qe) || !qe.Retryable {
		t.Fatalf("disabled-retry error = %v, want a retryable *QueryError", err)
	}
	if got := busy.reqs.Load(); got != 1 {
		t.Errorf("node served %d requests with retries disabled, want 1", got)
	}

	// A fatal frame must not be retried at all.
	fatal := startFakeNode(t, func(int) [][]byte { return [][]byte{fatalFrame()} })
	pc3, err := NewParallelClient([]string{fatal.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer pc3.Close()
	pc3.BusyRetries = 5
	_, err = pc3.Query(&QuerySpec{Input: "pts", Output: "img"})
	if !errors.As(err, &qe) || qe.Retryable {
		t.Fatalf("fatal error = %v, want a non-retryable *QueryError", err)
	}
	if got := fatal.reqs.Load(); got != 1 {
		t.Errorf("node served %d requests for a fatal error, want 1", got)
	}
}

// TestParallelClientExcludedToleranceFailover: a dead node (connection
// refused) fails the first attempt retryably; the survivor's error frame
// names it dead, so the resubmission runs without it — the dead node's
// stream comes back Excluded, unasked — and the query succeeds. A dead node
// no survivor reports dead is never excluded: the retries run out.
func TestParallelClientExcludedToleranceFailover(t *testing.T) {
	leakcheck.Check(t)
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()
	survivor := degradedSurvivor(t, 1)
	pc, err := NewParallelClient([]string{deadAddr, survivor.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	pc.DialTimeout = 2 * time.Second
	streams, err := pc.Query(&QuerySpec{Input: "pts", Output: "img"})
	if err != nil {
		t.Fatalf("failover query failed: %v", err)
	}
	if !streams[0].Excluded || streams[0].Err != nil || len(streams[0].Chunks) != 0 {
		t.Errorf("dead stream = %+v, want Excluded, unasked, with no chunks", streams[0])
	}
	if streams[1].Excluded || len(streams[1].Chunks) != 1 || !streams[1].Stats.Degraded {
		t.Errorf("survivor stream = %+v, want one chunk, degraded, not excluded", streams[1])
	}
	checkResubmitted(t, survivor)

	// Same dead node, but the survivor never reports it dead: it is never
	// excluded, and the query fails retryably once the retries are spent.
	strict := startFakeNode(t, func(int) [][]byte { return doneFrame(1) })
	pc2, err := NewParallelClient([]string{deadAddr, strict.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer pc2.Close()
	pc2.DialTimeout = 2 * time.Second
	pc2.BusyRetries = 1
	_, err = pc2.Query(&QuerySpec{Input: "pts", Output: "img"})
	var qe *QueryError
	if !errors.As(err, &qe) || !qe.Retryable || !strings.Contains(err.Error(), "dial node 0") {
		t.Fatalf("unreported dead node: err = %v, want node 0's retryable dial failure", err)
	}
	if got := strict.reqs.Load(); got != 2 {
		t.Errorf("survivor asked %d times, want 2 (the query and its one retry)", got)
	}
}

// TestParallelClientJoinsAllErrorsFailover: when several nodes fail, the
// query error reports every one of them, not just the first.
func TestParallelClientJoinsAllErrorsFailover(t *testing.T) {
	mk := func(text string) *fakeNode {
		return startFakeNode(t, func(int) [][]byte {
			return [][]byte{ctl(&Message{Type: "error", Error: text, ErrInfo: &ErrorInfo{Node: -1, Origin: -1, Message: text}})}
		})
	}
	a, b := mk("failure alpha"), mk("failure beta")
	pc, err := NewParallelClient([]string{a.ln.Addr().String(), b.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	pc.BusyRetries = -1
	_, err = pc.Query(&QuerySpec{Input: "pts", Output: "img"})
	if err == nil {
		t.Fatal("both-nodes-failed query succeeded")
	}
	for _, wantSub := range []string{"failure alpha", "failure beta", "node 0", "node 1"} {
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("joined error %q lost %q", err, wantSub)
		}
	}
}

// TestParallelClientReadTimeoutFailover: a node that accepts the query and
// then goes silent must fail the stream within the configured read timeout
// instead of hanging the client forever — the PR 8 bugfix for the
// deadline-less queryNode reads.
func TestParallelClientReadTimeoutFailover(t *testing.T) {
	mute, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	go func() {
		for {
			conn, err := mute.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // accept and say nothing
		}
	}()
	pc, err := NewParallelClient([]string{mute.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	pc.ReadTimeout = 200 * time.Millisecond
	pc.BusyRetries = -1
	start := time.Now()
	_, err = pc.Query(&QuerySpec{Input: "pts", Output: "img"})
	if err == nil {
		t.Fatal("query against a mute node succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Errorf("mute-node error = %v, want a net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("timeout took %v, want ~200ms", elapsed)
	}
}

// TestRelayToleratesDeadNodeFailover: a node the front-end relay cannot
// even dial fails the attempt retryably; the survivor's error frame names it
// dead, and the client's resubmission, relayed without it, returns the
// survivor's chunk, degraded — the failed attempt's relayed chunk dropped.
// Without the survivor's report, the dial failure is what the client gets.
func TestRelayToleratesDeadNodeFailover(t *testing.T) {
	leakcheck.Check(t)
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()
	survivor := degradedSurvivor(t, 3)
	fe, err := Start("127.0.0.1:0", []string{deadAddr, survivor.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	client, err := Dial(fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	chunks, stats, err := client.Query(&QuerySpec{Input: "pts", Output: "img"})
	if err != nil {
		t.Fatalf("query with a dead relayed node failed: %v", err)
	}
	if len(chunks) != 1 || chunks[0].ID != 3 {
		t.Fatalf("chunks = %+v, want the survivor's chunk once", chunks)
	}
	if stats == nil || !stats.Degraded || !slices.Equal(stats.Excluded, []int{0}) {
		t.Errorf("merged stats = %+v, want Degraded with node 0 excluded", stats)
	}
	checkResubmitted(t, survivor)

	// Without the survivor's report, the dial failure stays the answer.
	strict := startFakeNode(t, func(int) [][]byte { return doneFrame(1) })
	fe2, err := Start("127.0.0.1:0", []string{deadAddr, strict.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer fe2.Close()
	client2, err := Dial(fe2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	client2.BusyRetries = -1
	if _, _, err := client2.Query(&QuerySpec{Input: "pts", Output: "img"}); err == nil || !strings.Contains(err.Error(), "dial node 0") {
		t.Fatalf("undialable node without a survivor's report: err = %v, want the dial failure", err)
	}
}

// TestClientBusyRetryFailover: the sequential Client retries retryable
// error frames on its persistent connection and discards the failed
// attempt's chunks.
func TestClientBusyRetryFailover(t *testing.T) {
	node := startFakeNode(t, func(n int) [][]byte {
		if n == 0 {
			// A partial stream followed by a retryable error: the retry must
			// not leak these chunks into the final result.
			return [][]byte{
				chunkFrame(fakeChunk(7)),
				busyFrame(),
			}
		}
		return doneFrame(0)
	})
	// The front-end speaks QuerySpec frames, the fake node NodeRequest
	// frames; bridge with a real front-end relay.
	fe, err := Start("127.0.0.1:0", []string{node.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	client, err := Dial(fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.BusyRetries = 2
	chunks, stats, err := client.Query(&QuerySpec{Input: "pts", Output: "img"})
	if err != nil {
		t.Fatalf("client query after busy retry failed: %v", err)
	}
	if stats == nil || len(chunks) != 1 || chunks[0].ID != 0 {
		t.Fatalf("chunks = %+v, want exactly the retried attempt's chunk", chunks)
	}
	if got := node.reqs.Load(); got != 2 {
		t.Errorf("node served %d requests, want 2", got)
	}
}

// TestAutoSkipsDeadNodeFailover: a resolver that knows node 0 dead neither
// asks it for AUTO's estimates nor sends it the query — on a real network
// each such dial could cost the whole dial timeout — and both prices and
// plans the query without it.
func TestAutoSkipsDeadNodeFailover(t *testing.T) {
	leakcheck.Check(t)
	dead := startFakeNode(t, func(int) [][]byte { return doneFrame(0) })
	var live *fakeNode
	live = startFakeNode(t, func(n int) [][]byte {
		if live.requests()[n].Estimate {
			return [][]byte{ctl(&Message{Type: "estimate", Selection: &metrics.Selection{Strategy: "DA"}})}
		}
		return doneFrame(1)
	})
	addrs := []string{dead.ln.Addr().String(), live.ln.Addr().String()}
	spec := &QuerySpec{Input: "pts", Output: "img", Strategy: "AUTO"}

	pc, err := NewParallelClient(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	pc.dead.nodes = []int{0}
	if _, err := pc.Query(spec); err != nil {
		t.Fatalf("parallel AUTO query without node 0: %v", err)
	}
	fe, err := Start("127.0.0.1:0", addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	fe.dead.nodes = []int{0}
	client, err := Dial(fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, _, err := client.Query(spec); err != nil {
		t.Fatalf("relayed AUTO query without node 0: %v", err)
	}

	if got := dead.conns.Load(); got != 0 {
		t.Errorf("the dead node was dialled %d times", got)
	}
	reqs := live.requests()
	if len(reqs) != 4 {
		t.Fatalf("live node served %d requests, want 4 (estimate and query, twice)", len(reqs))
	}
	for _, r := range reqs {
		if !slices.Equal(r.Exclude, []int{0}) {
			t.Errorf("request = %+v, want it priced or planned without node 0", r)
		}
		if !r.Estimate && r.Spec.Strategy != "DA" {
			t.Errorf("query request = %+v, want strategy DA", r)
		}
	}
}
