package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"adr/internal/chunk"
	"adr/internal/layout"
	"adr/internal/plan"
	"adr/internal/rpc"
	"adr/internal/space"
)

func TestMailboxTakeByTileAndType(t *testing.T) {
	m := newMailbox()
	m.put(rpc.Message{Tile: 1, Type: msgGhostAccum, Seq: 10})
	m.put(rpc.Message{Tile: 0, Type: msgInputChunk, Seq: 20})
	m.put(rpc.Message{Tile: 0, Type: msgGhostAccum, Seq: 30})

	got, err := m.take(context.Background(), 0, msgGhostAccum)
	if err != nil || got.Seq != 30 {
		t.Errorf("take(0, ghost) = %+v, %v", got, err)
	}
	got, err = m.take(context.Background(), 1, msgGhostAccum)
	if err != nil || got.Seq != 10 {
		t.Errorf("take(1, ghost) = %+v, %v", got, err)
	}
	got, err = m.take(context.Background(), 0, msgInputChunk)
	if err != nil || got.Seq != 20 {
		t.Errorf("take(0, input) = %+v, %v", got, err)
	}
}

func TestMailboxFIFOWithinKey(t *testing.T) {
	m := newMailbox()
	for i := int32(0); i < 10; i++ {
		m.put(rpc.Message{Tile: 0, Type: msgInputChunk, Seq: i})
	}
	for i := int32(0); i < 10; i++ {
		got, err := m.take(context.Background(), 0, msgInputChunk)
		if err != nil || got.Seq != i {
			t.Fatalf("take %d = %+v, %v", i, got, err)
		}
	}
}

func TestMailboxBlocksUntilPut(t *testing.T) {
	m := newMailbox()
	done := make(chan rpc.Message, 1)
	go func() {
		msg, _ := m.take(context.Background(), 3, msgFinalOutput)
		done <- msg
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("take returned before put")
	default:
	}
	m.put(rpc.Message{Tile: 3, Type: msgFinalOutput, Seq: 77})
	select {
	case msg := <-done:
		if msg.Seq != 77 {
			t.Errorf("got seq %d", msg.Seq)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("take never returned")
	}
}

func TestMailboxFailUnblocksTakers(t *testing.T) {
	m := newMailbox()
	errCh := make(chan error, 1)
	go func() {
		_, err := m.take(context.Background(), 0, msgInputChunk)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	sentinel := errors.New("fabric died")
	m.fail(sentinel)
	select {
	case err := <-errCh:
		if !errors.Is(err, sentinel) {
			t.Errorf("take error = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("take never unblocked")
	}
}

func TestMailboxDrainableAfterFail(t *testing.T) {
	m := newMailbox()
	m.put(rpc.Message{Tile: 0, Type: msgGhostAccum, Seq: 5})
	m.fail(errors.New("closed"))
	got, err := m.take(context.Background(), 0, msgGhostAccum)
	if err != nil || got.Seq != 5 {
		t.Errorf("pending message lost after fail: %+v, %v", got, err)
	}
	if _, err := m.take(context.Background(), 0, msgGhostAccum); err == nil {
		t.Error("empty mailbox after fail should error")
	}
}

func TestConfigValidate(t *testing.T) {
	w := &plan.Workload{}
	pl, _ := plan.NewPlanner(plan.Machine{Procs: 1, AccMemBytes: 100})
	p, _ := pl.Plan(plan.FRA, w)
	app := &nopApp{}
	base := Config{Plan: p, Workload: w, App: app, InputDataset: "in", OnResult: func(rpc.NodeID, *chunk.Chunk) error { return nil }}
	if err := base.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for name, mutate := range map[string]func(c Config) Config{
		"no plan":  func(c Config) Config { c.Plan = nil; return c },
		"no app":   func(c Config) Config { c.App = nil; return c },
		"no input": func(c Config) Config { c.InputDataset = ""; return c },
		"no sink":  func(c Config) Config { c.OnResult = nil; return c },
	} {
		bad := mutate(base)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: should fail", name)
		}
	}
	needs := base
	needs.App = &nopApp{needsOutput: true}
	if err := needs.Validate(); err == nil {
		t.Error("app requiring output without OutputDataset should fail")
	}
	needs.OutputDataset = "out"
	if err := needs.Validate(); err != nil {
		t.Errorf("app requiring output with OutputDataset: %v", err)
	}
}

// nopApp satisfies App for validation tests.
type nopApp struct{ needsOutput bool }

func (n *nopApp) Init(chunk.Meta, *chunk.Chunk, bool) (Accumulator, error) { return struct{}{}, nil }
func (n *nopApp) Aggregate(Accumulator, chunk.Meta, *chunk.Chunk) error    { return nil }
func (n *nopApp) Combine(Accumulator, Accumulator, chunk.Meta) error       { return nil }
func (n *nopApp) Output(Accumulator, chunk.Meta) (*chunk.Chunk, error) {
	return &chunk.Chunk{}, nil
}
func (n *nopApp) EncodeAccum(Accumulator, chunk.Meta) ([]byte, error) { return nil, nil }
func (n *nopApp) DecodeAccum([]byte, chunk.Meta) (Accumulator, error) { return struct{}{}, nil }
func (n *nopApp) InitRequiresOutput() bool                            { return n.needsOutput }

func TestFarmStorage(t *testing.T) {
	farm, err := layout.NewMemFarm(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer farm.Close()
	st := FarmStorage{Farm: farm}
	m := chunk.Meta{ID: 3, Disk: 2, Node: 1, MBR: space.R(0, 1)}
	if st.HasChunk("d", m) {
		t.Error("chunk should not exist yet")
	}
	if err := st.WriteChunk("d", m, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if !st.HasChunk("d", m) {
		t.Error("chunk should exist")
	}
	got, err := st.ReadChunk("d", m)
	if err != nil || string(got) != "payload" {
		t.Errorf("ReadChunk = %q, %v", got, err)
	}
	bad := m
	bad.Disk = 99
	if _, err := st.ReadChunk("d", bad); err == nil {
		t.Error("bad disk should fail")
	}
}

// TestMsgTypeNames: every declared message type renders by name, so an error
// like "send ghost-accum to 2" never reads "send type-2 to 2".
func TestMsgTypeNames(t *testing.T) {
	seen := map[string]uint8{}
	for _, typ := range []uint8{
		msgInputChunk, msgGhostAccum, msgOutputInit, msgFinalOutput, msgAbort,
	} {
		name := msgTypeName(typ)
		if name == "" || strings.HasPrefix(name, "type-") {
			t.Errorf("type %d renders as %q", typ, name)
		}
		if other, dup := seen[name]; dup {
			t.Errorf("types %d and %d share the name %q", other, typ, name)
		}
		seen[name] = typ
	}
	if msgTypeName(200) != "type-200" {
		t.Errorf("unknown type renders as %q", msgTypeName(200))
	}
}

// TestMailboxAbortMessage: an inbound abort terminates the mailbox with a
// typed AbortError naming the sender, regardless of tile or phase. An abort
// for the sender's own failure is fatal; one that names a dead peer is
// retryable and carries it.
func TestMailboxAbortMessage(t *testing.T) {
	m := newMailbox()
	m.put(rpc.Message{Src: 2, Tile: 99, Type: msgAbort, Payload: []byte("node 2: disk on fire")})
	_, err := m.take(context.Background(), 0, msgInputChunk)
	var abort *AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("take after abort = %v, want *AbortError", err)
	}
	if abort.Node != 2 || abort.Dead != -1 || abort.Reason != "node 2: disk on fire" {
		t.Errorf("abort = %+v", abort)
	}
	if IsRetryable(err) {
		t.Errorf("abort for the sender's own failure classified retryable: %v", err)
	}

	m = newMailbox()
	m.put(rpc.Message{Src: 2, Tile: -1, Type: msgAbort, Seq: 0 + 1, Payload: []byte("node 2: engine: peer 0 down")})
	_, err = m.take(context.Background(), 0, msgInputChunk)
	if dead, ok := DeadPeer(err); !ok || dead != 0 || !IsRetryable(err) {
		t.Errorf("abort naming dead peer 0: DeadPeer = %d, %v; IsRetryable = %v", dead, ok, IsRetryable(err))
	}
}

// TestMailboxTakeContextDeadline: a taker waiting on a peer that never
// speaks returns when its context expires instead of blocking forever.
func TestMailboxTakeContextDeadline(t *testing.T) {
	m := newMailbox()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := m.take(ctx, 0, msgInputChunk)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("take = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("take did not honour the deadline promptly")
	}
}
