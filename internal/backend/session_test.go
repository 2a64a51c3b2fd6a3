package backend_test

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"syscall"
	"testing"
	"time"

	"adr/internal/backend"
	"adr/internal/frontend"
	"adr/internal/leakcheck"
)

// answer reads one answer off a control session: its chunk frames and the
// control line that ends it.
func answer(t *testing.T, r *bufio.Reader) ([][]byte, *frontend.Message) {
	t.Helper()
	var frames [][]byte
	for {
		frame, msg, err := frontend.ReadFrame(r, false)
		if err != nil {
			t.Fatalf("after %d frames: %v", len(frames), err)
		}
		if msg != nil {
			return frames, msg
		}
		frames = append(frames, frame)
	}
}

// sessionSpec is a count query over the test farm of buildFarmDir.
func sessionSpec(input string) frontend.QuerySpec {
	return frontend.QuerySpec{Input: input, Output: "raster", Strategy: "DA", App: frontend.AppSpec{Op: "count", CellsPerDim: 2}}
}

// TestSessionServesRequestsInOrder: one control connection carries an
// estimate, a query and a second query, each answered in full and in order;
// the two queries stream the same chunks.
func TestSessionServesRequestsInOrder(t *testing.T) {
	leakcheck.Check(t)
	_, ctrl := startNodes(t, 1, nil)
	conn, err := net.Dial("tcp", ctrl[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	r := bufio.NewReader(conn)

	if err := frontend.WriteJSON(conn, &frontend.NodeRequest{Spec: sessionSpec("sensor"), Estimate: true}); err != nil {
		t.Fatal(err)
	}
	if frames, msg := answer(t, r); len(frames) != 0 || msg.Type != "estimate" || msg.Selection == nil {
		t.Fatalf("estimate answer: %d frames, then %+v", len(frames), msg)
	}
	var first [][]byte
	for id := int32(1); id <= 2; id++ {
		if err := frontend.WriteJSON(conn, &frontend.NodeRequest{QueryID: id, Spec: sessionSpec("sensor")}); err != nil {
			t.Fatal(err)
		}
		frames, msg := answer(t, r)
		if msg.Type != "done" || msg.Stats == nil || msg.Stats.Chunks != len(frames) || len(frames) == 0 {
			t.Fatalf("query %d: %d frames, then %+v", id, len(frames), msg)
		}
		if id == 1 {
			first = frames
		} else if !slices.EqualFunc(first, frames, bytes.Equal) {
			t.Errorf("query 2 streamed other chunks than query 1")
		}
	}
}

// TestSessionErrorEndsSession: an error line is the last thing a session
// carries — the node closes it, and a request sent after goes unanswered.
func TestSessionErrorEndsSession(t *testing.T) {
	leakcheck.Check(t)
	_, ctrl := startNodes(t, 1, nil)
	conn, err := net.Dial("tcp", ctrl[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	r := bufio.NewReader(conn)
	if err := frontend.WriteJSON(conn, &frontend.NodeRequest{QueryID: 1, Spec: sessionSpec("nosuch")}); err != nil {
		t.Fatal(err)
	}
	if frames, msg := answer(t, r); len(frames) != 0 || msg.Type != "error" {
		t.Fatalf("unknown dataset: %d frames, then %+v", len(frames), msg)
	}
	frontend.WriteJSON(conn, &frontend.NodeRequest{QueryID: 2, Spec: sessionSpec("sensor")})
	if _, msg, err := frontend.ReadFrame(r, false); !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("after the error line: %+v, %v; want the session closed", msg, err)
	}
}

// TestSessionIdleRedial: a node closes a session left idle past its
// RequestTimeout, and the next query — relayed, or from a parallel client —
// still succeeds: the stale pooled session is redialled.
func TestSessionIdleRedial(t *testing.T) {
	leakcheck.Check(t)
	const idle = 150 * time.Millisecond
	_, ctrl := startNodes(t, 2, func(_ int, cfg *backend.Config) { cfg.RequestTimeout = idle })
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
	client.BusyRetries = -1
	pc, err := frontend.NewParallelClient(ctrl)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	pc.BusyRetries = -1
	spec := sessionSpec("sensor")
	for q := 0; q < 3; q++ {
		if q > 0 {
			time.Sleep(3 * idle)
		}
		if _, _, err := client.Query(&spec); err != nil {
			t.Fatalf("relayed query %d: %v", q, err)
		}
		if _, err := pc.Query(&spec); err != nil {
			t.Fatalf("parallel query %d: %v", q, err)
		}
	}
}
