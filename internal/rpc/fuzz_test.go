package rpc

import (
	"bytes"
	"errors"
	"testing"

	"adr/internal/bufpool"
)

// FuzzTCPReadFrame throws arbitrary bytes at the TCP frame decoder as peer
// 0's traffic to node 1. Whatever arrives, readFrame returns exactly one of
// a message, a credit grant or an error — it never panics, never hands out a
// frame routed for another connection, and never takes a buffer past
// MaxFrameBytes from the pool.
func FuzzTCPReadFrame(f *testing.F) {
	frame := func(m Message, flow bool) []byte {
		var b bytes.Buffer
		if err := writeFrame(&b, &m, flow); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	var credit bytes.Buffer
	if err := writeCredit(&credit, 0, 1, 4096); err != nil {
		f.Fatal(err)
	}
	data := frame(Message{Src: 0, Dst: 1, Type: 3, Query: 7, Tile: 2, Seq: 42, Payload: []byte("ghost chunk")}, true)
	f.Add(data)
	retired := append([]byte(nil), data...)
	retired[13] |= 2 << 2 // flag bits 2-3 once carried a codec tag; such a frame still parses
	f.Add(retired)
	f.Add(credit.Bytes())
	f.Add(frame(Message{Src: 9999, Dst: 1, Type: 1}, false)) // forged src
	f.Add(data[:10])                                         // short header
	f.Add(data[:len(data)-3])                                // short body

	f.Fuzz(func(t *testing.T, in []byte) {
		base := bufpool.Outstanding()
		m, owed, credit, err := readFrame(bytes.NewReader(in), 0, 1)
		switch {
		case err != nil:
			var pe *PeerError
			if !errors.As(err, &pe) || pe.Peer != 0 {
				t.Fatalf("error %v does not name peer 0", err)
			}
			if m.Payload != nil || owed != 0 || credit != 0 {
				t.Fatalf("error came with a result: %+v owed %d credit %d", m, owed, credit)
			}
		case credit != 0:
			if credit < 0 || m.Payload != nil || owed != 0 {
				t.Fatalf("credit grant %d came with a message: %+v owed %d", credit, m, owed)
			}
		default:
			if m.Src != 0 || m.Dst != 1 {
				t.Fatalf("delivered a frame routed %d->%d on the connection 0->1", m.Src, m.Dst)
			}
			if len(m.Payload) > MaxFrameBytes || len(m.Payload) > len(in) {
				t.Fatalf("%d-byte payload from %d input bytes", len(m.Payload), len(in))
			}
			if owed != 0 && owed != int64(len(m.Payload)) {
				t.Fatalf("owed %d for a %d-byte payload", owed, len(m.Payload))
			}
			m.Release()
		}
		if got := bufpool.Outstanding(); got != base {
			t.Fatalf("frame buffers outstanding: %d, want %d", got, base)
		}
	})
}
