package frontend

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adr/internal/chunk"
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
	reqs    atomic.Int64
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
	pc3.BusyRetries = 5
	_, err = pc3.Query(&QuerySpec{Input: "pts", Output: "img"})
	if !errors.As(err, &qe) || qe.Retryable {
		t.Fatalf("fatal error = %v, want a non-retryable *QueryError", err)
	}
	if got := fatal.reqs.Load(); got != 1 {
		t.Errorf("node served %d requests for a fatal error, want 1", got)
	}
}

// TestParallelClientExcludedToleranceFailover: a dead node's failed stream
// is tolerated exactly when every surviving stream's done stats list it as
// excluded — and is fatal when they do not.
func TestParallelClientExcludedToleranceFailover(t *testing.T) {
	// Node 0 is dead (connection refused); node 1 completed degraded with
	// node 0 excluded.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()
	survivor := startFakeNode(t, func(int) [][]byte {
		return [][]byte{
			chunkFrame(fakeChunk(1)),
			ctl(&Message{Type: "done", Stats: &DoneStats{Node: 1, Chunks: 1, Degraded: true, Attempts: 2, Excluded: []int{0}}}),
		}
	})
	pc, err := NewParallelClient([]string{deadAddr, survivor.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	pc.DialTimeout = 2 * time.Second
	streams, err := pc.Query(&QuerySpec{Input: "pts", Output: "img"})
	if err != nil {
		t.Fatalf("tolerated failover query failed: %v", err)
	}
	if !streams[0].Excluded || streams[0].Err == nil || len(streams[0].Chunks) != 0 {
		t.Errorf("dead stream = %+v, want Excluded with an error and no chunks", streams[0])
	}
	if streams[1].Excluded || len(streams[1].Chunks) != 1 {
		t.Errorf("survivor stream = %+v, want one chunk, not excluded", streams[1])
	}

	// Same dead node, but the survivor did NOT exclude it: the query fails.
	strict := startFakeNode(t, func(int) [][]byte { return doneFrame(1) })
	pc2, err := NewParallelClient([]string{deadAddr, strict.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	pc2.DialTimeout = 2 * time.Second
	if _, err := pc2.Query(&QuerySpec{Input: "pts", Output: "img"}); err == nil {
		t.Fatal("unexcluded dead stream tolerated")
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
// even dial is a failed stream, not a failed query — when the survivors'
// done stats unanimously exclude it, the merged result goes through. The
// PR 8 bugfix: relayQuery used to abort on the first dial error before
// ever consulting the survivors.
func TestRelayToleratesDeadNodeFailover(t *testing.T) {
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()
	survivor := startFakeNode(t, func(int) [][]byte {
		return [][]byte{
			chunkFrame(fakeChunk(3)),
			ctl(&Message{Type: "done", Stats: &DoneStats{Node: 1, Chunks: 1, Degraded: true, Attempts: 2, Excluded: []int{0}}}),
		}
	})
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
		t.Fatalf("chunks = %+v, want the survivor's chunk", chunks)
	}
	if stats == nil || !stats.Degraded || len(stats.Excluded) != 1 || stats.Excluded[0] != 0 {
		t.Errorf("merged stats = %+v, want Degraded with node 0 excluded", stats)
	}

	// Without the survivors' exclusion, the dial failure stays fatal.
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
	if _, _, err := client2.Query(&QuerySpec{Input: "pts", Output: "img"}); err == nil {
		t.Fatal("undialable node tolerated without survivor exclusion")
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
