package frontend

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"

	"adr/internal/apps"
	"adr/internal/bufpool"
	"adr/internal/chunk"
	"adr/internal/leakcheck"
	"adr/internal/metrics"
	"adr/internal/space"
)

// itemsChunk is a 2-D output chunk of n items.
func itemsChunk(id, n int) *chunk.Chunk {
	c := fakeChunk(id)
	for i := 0; i < n; i++ {
		c.Items = append(c.Items, chunk.Item{
			Coord: space.Pt(float64(i)/float64(n), 0.5),
			Value: apps.EncodeValue(int64(id*n + i)),
		})
	}
	c.Meta.Items = int32(n)
	return c
}

// startRelay starts a front-end over the given fake nodes.
func startRelay(t *testing.T, nodes ...*fakeNode) *Server {
	t.Helper()
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.ln.Addr().String()
	}
	fe, err := Start("127.0.0.1:0", addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fe.Close() })
	return fe
}

// waitRelayIdle waits for the front-end's in-flight queries to end and
// requires the buffer pool to be back at base.
func waitRelayIdle(t *testing.T, base int64) {
	t.Helper()
	inflight := metrics.Default.Gauge("adr_frontend_queries_inflight")
	deadline := time.Now().Add(10 * time.Second)
	for inflight.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("relay still has %d queries in flight", inflight.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := bufpool.Outstanding(); got != base {
		t.Fatalf("%d pooled buffers outstanding after the relay went idle, want %d", got, base)
	}
}

// TestClientUnknownFrame: a control line of a type the client does not know
// fails the query at once. Client.queryOnce used to have no default in its
// frame switch: the line was skipped and the call sat in the read loop until
// the stream timeout.
func TestClientUnknownFrame(t *testing.T) {
	// The client dials the fake directly: a QuerySpec line parses as a
	// NodeRequest, and a real relay would reject the frame before the client
	// saw it.
	fake := startFakeNode(t, func(int) [][]byte {
		return [][]byte{chunkFrame(fakeChunk(1)), ctl(&Message{Type: "progress"})}
	})
	client, err := Dial(fake.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.ReadTimeout = 3 * time.Second
	client.BusyRetries = -1
	start := time.Now()
	chunks, _, err := client.Query(&QuerySpec{Input: "pts", Output: "img"})
	if err == nil || !strings.Contains(err.Error(), `unknown frame "progress"`) {
		t.Fatalf("unknown control line: err = %v after %v, want an unknown-frame error", err, time.Since(start))
	}
	if len(chunks) != 1 {
		t.Errorf("%d chunks returned beside the error, want the 1 received before it", len(chunks))
	}
	// A JSON "chunk" line is just as unknown: chunks travel as frames only.
	legacy := startFakeNode(t, func(int) [][]byte {
		return [][]byte{ctl(&Message{Type: "chunk", Chunk: ToChunkJSON(fakeChunk(1))}), ctl(&Message{Type: "done", Stats: &DoneStats{}})}
	})
	pc, err := NewParallelClient([]string{legacy.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	pc.BusyRetries = -1
	if _, err := pc.Query(&QuerySpec{Input: "pts", Output: "img"}); err == nil || !strings.Contains(err.Error(), `unknown frame "chunk"`) {
		t.Fatalf("JSON chunk line: err = %v, want an unknown-frame error", err)
	}
}

// TestRelayForwardsFramesVerbatim: the front-end relays each node's chunk
// frames byte for byte, in per-node order, without decoding them — a frame
// whose payload is not a chunk at all passes through untouched — and merges
// the done stats.
func TestRelayForwardsFramesVerbatim(t *testing.T) {
	opaque := append(chunkFrame(fakeChunk(0))[:frameHeaderLen:frameHeaderLen], "not a chunk, and the relay must not care"...)
	binary.LittleEndian.PutUint32(opaque[1:], uint32(len(opaque)-frameHeaderLen))
	sent := [][][]byte{
		{chunkFrame(itemsChunk(1, 3)), opaque, chunkFrame(itemsChunk(2, 300))},
		{chunkFrame(itemsChunk(3, 0)), chunkFrame(itemsChunk(4, 40))},
	}
	var nodes []*fakeNode
	for i := range sent {
		i := i
		nodes = append(nodes, startFakeNode(t, func(int) [][]byte {
			return append(append([][]byte(nil), sent[i]...),
				ctl(&Message{Type: "done", Stats: &DoneStats{Node: i, Chunks: len(sent[i]), BytesRead: 100}}))
		}))
	}
	fe := startRelay(t, nodes...)
	base := bufpool.Outstanding()

	conn, err := net.Dial("tcp", fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := WriteJSON(conn, &QuerySpec{Input: "pts", Output: "img"}); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	var got [][]byte
	var done *Message
	for done == nil {
		frame, msg, err := ReadFrame(r, false)
		if err != nil {
			t.Fatalf("after %d frames: %v", len(got), err)
		}
		if frame != nil {
			got = append(got, frame)
		} else {
			done = msg
		}
	}
	// Every frame of the merged stream is the next unseen frame of one node.
	next := make([]int, len(sent))
	for k, frame := range got {
		matched := false
		for i := range sent {
			if next[i] < len(sent[i]) && bytes.Equal(frame, sent[i][next[i]]) {
				next[i]++
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("relayed frame %d (%d bytes) is not the next frame of any node", k, len(frame))
		}
	}
	for i := range sent {
		if next[i] != len(sent[i]) {
			t.Errorf("node %d: %d of %d frames relayed", i, next[i], len(sent[i]))
		}
	}
	if done.Type != "done" || done.Stats == nil || done.Stats.Chunks != 5 || done.Stats.BytesRead != 200 || done.Stats.TotalNodes != 2 {
		t.Errorf("merged closing line = %+v (stats %+v)", done, done.Stats)
	}
	waitRelayIdle(t, base)
}

// TestRelayNodeDeathMidStreamFailover: a node that dies inside a frame —
// before it relayed anything, or after it already had — leaves no pooled
// buffer behind and fails the attempt retryably. The survivor names it dead,
// so the client's resubmission runs without it and returns exactly the
// survivor's chunk: whatever the failed attempt relayed is dropped with it.
func TestRelayNodeDeathMidStreamFailover(t *testing.T) {
	big := chunkFrame(itemsChunk(1, 2000))
	for _, tc := range []struct {
		name   string
		script [][]byte
	}{
		{"mid-first-frame", [][]byte{big[:len(big)/2], nil}},
		{"mid-header", [][]byte{big[:3], nil}},
		{"after-a-forwarded-frame", [][]byte{chunkFrame(itemsChunk(1, 5)), big[:len(big)/2], nil}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			dying := startFakeNode(t, func(int) [][]byte { return tc.script })
			survivor := degradedSurvivor(t, 7)
			fe := startRelay(t, dying, survivor)
			base := bufpool.Outstanding()
			client, err := Dial(fe.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			chunks, stats, err := client.Query(&QuerySpec{Input: "pts", Output: "img"})
			if err != nil {
				t.Fatalf("query across a node's death mid-stream: %v", err)
			}
			if len(chunks) != 1 || chunks[0].ID != 7 || len(chunks[0].Items) != 5 || !stats.Degraded {
				t.Fatalf("chunks = %+v, stats = %+v, want the survivor's chunk once, degraded", chunks, stats)
			}
			if got := dying.reqs.Load(); got != 1 {
				t.Errorf("the dead node was asked %d times, want once", got)
			}
			checkResubmitted(t, survivor)
			waitRelayIdle(t, base)
		})
	}
}

// TestRelayClientDisconnectLeak: a client that hangs up mid-stream fails the
// relay's writes; every frame buffer in flight at that moment goes back to
// the pool.
func TestRelayClientDisconnectLeak(t *testing.T) {
	frame := chunkFrame(itemsChunk(1, 2000)) // ~56 KB
	// 32 MB per node: far more than the loopback socket buffers hold, so the
	// relay is mid-stream when the client goes away.
	script := make([][]byte, 600)
	for i := range script {
		script[i] = frame
	}
	fe := startRelay(t, startFakeNode(t, func(int) [][]byte { return script }),
		startFakeNode(t, func(int) [][]byte { return script }))
	base := bufpool.Outstanding()

	conn, err := net.Dial("tcp", fe.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := WriteJSON(conn, &QuerySpec{Input: "pts", Output: "img"}); err != nil {
		t.Fatal(err)
	}
	got, msg, err := ReadFrame(bufio.NewReader(conn), false)
	if err != nil || msg != nil || !bytes.Equal(got, frame) {
		t.Fatalf("first relayed frame: %d bytes, %v, %v", len(got), msg, err)
	}
	conn.Close()
	waitRelayIdle(t, base)
}
