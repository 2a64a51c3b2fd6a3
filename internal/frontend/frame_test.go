package frontend

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"adr/internal/bufpool"
	"adr/internal/chunk"
	"adr/internal/rpc"
	"adr/internal/space"
)

// frameCases generates the chunk shapes the frame codec must carry: empty
// chunks, every dimensionality, zero-length values, and dataset names up to
// the encoding's uint16 length field.
func frameCases(rng *rand.Rand) []*chunk.Chunk {
	var cases []*chunk.Chunk
	names := []string{"", "d", strings.Repeat("n", 1<<16-1)}
	for dims := 1; dims <= space.MaxDims; dims++ {
		for _, items := range []int{0, 1, 17} {
			bounds := make([]float64, 0, 2*dims)
			for d := 0; d < dims; d++ {
				bounds = append(bounds, float64(-d), float64(d+1))
			}
			c := &chunk.Chunk{Meta: chunk.Meta{
				ID:      chunk.ID(rng.Int31()),
				Dataset: names[(dims+items)%len(names)],
				MBR:     space.R(bounds...),
			}}
			for i := 0; i < items; i++ {
				coords := make([]float64, dims)
				for d := range coords {
					coords[d] = rng.NormFloat64()
				}
				// Every third value is empty; the rest vary in length.
				value := make([]byte, (i%3)*(1+rng.Intn(40)))
				rng.Read(value)
				c.Items = append(c.Items, chunk.Item{Coord: space.Pt(coords...), Value: value})
			}
			c.Meta.Items = int32(len(c.Items))
			cases = append(cases, c)
		}
	}
	return cases
}

// sameChunkJSON compares two client-side chunks bit for bit; an absent value
// and an empty one are the same value.
func sameChunkJSON(a, b *ChunkJSON) bool {
	if a.ID != b.ID || a.Dataset != b.Dataset || !reflect.DeepEqual(a.Lo, b.Lo) ||
		!reflect.DeepEqual(a.Hi, b.Hi) || len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		if !reflect.DeepEqual(a.Items[i].Coords, b.Items[i].Coords) || !bytes.Equal(a.Items[i].Value, b.Items[i].Value) {
			return false
		}
	}
	return true
}

// TestFrameRoundTrip: every generated chunk survives AppendFrame ->
// ReadFrame -> decodeFrame bit for bit, on both buffer sources, with control
// lines interleaved in the stream; FrameSize is exact.
func TestFrameRoundTrip(t *testing.T) {
	cases := frameCases(rand.New(rand.NewSource(13)))
	done := &Message{Type: "done", Stats: &DoneStats{Node: 3, Chunks: len(cases)}}
	var stream []byte
	for i, c := range cases {
		before := len(stream)
		var err error
		if stream, err = AppendFrame(stream, c); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := len(stream) - before; got != FrameSize(c) {
			t.Fatalf("case %d: frame is %d bytes, FrameSize says %d", i, got, FrameSize(c))
		}
		if i%5 == 0 {
			stream = append(stream, ctl(&Message{Type: "estimate"})...)
		}
	}
	stream = append(stream, ctl(done)...)

	for _, pooled := range []bool{false, true} {
		base := bufpool.Outstanding()
		r := bufio.NewReader(bytes.NewReader(stream))
		for i, c := range cases {
			frame, msg, err := ReadFrame(r, pooled)
			if err != nil || msg != nil {
				t.Fatalf("pooled=%v case %d: frame read = %v, %v", pooled, i, msg, err)
			}
			got, err := decodeFrame(frame)
			if err != nil {
				t.Fatalf("pooled=%v case %d: %v", pooled, i, err)
			}
			if !sameChunkJSON(got, ToChunkJSON(c)) {
				t.Fatalf("pooled=%v case %d (%d-D, %d items): decoded chunk differs", pooled, i, c.Meta.MBR.Dims, len(c.Items))
			}
			if pooled {
				bufpool.Put(frame)
			}
			if i%5 == 0 {
				if frame, msg, err := ReadFrame(r, pooled); err != nil || frame != nil || msg.Type != "estimate" {
					t.Fatalf("case %d: interleaved control line = %v, %v, %v", i, frame, msg, err)
				}
			}
		}
		if _, msg, err := ReadFrame(r, pooled); err != nil || msg == nil || msg.Stats.Chunks != len(cases) {
			t.Fatalf("closing line = %+v, %v", msg, err)
		}
		if _, _, err := ReadFrame(r, pooled); err != io.EOF {
			t.Fatalf("end of stream = %v, want io.EOF", err)
		}
		if got := bufpool.Outstanding(); got != base {
			t.Fatalf("pooled=%v: %d buffers outstanding after the stream, want %d", pooled, got, base)
		}
	}
}

// TestFrameOversize: the reader refuses an oversize frame from its header
// alone, before it obtains a buffer or reads a payload byte.
func TestFrameOversize(t *testing.T) {
	hdr := []byte{frameTag, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hdr[1:], rpc.MaxFrameBytes+1)
	base := bufpool.Outstanding()
	_, _, err := ReadFrame(bufio.NewReader(io.MultiReader(bytes.NewReader(hdr), neverEnding('x'))), true)
	if !errors.Is(err, errFrame) {
		t.Errorf("oversize frame = %v, want errFrame", err)
	}
	if got := bufpool.Outstanding(); got != base {
		t.Errorf("oversize frame left %d buffers outstanding", got-base)
	}
}

// neverEnding is a stream of one byte, repeated for ever.
type neverEnding byte

func (b neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestReadJSONLineCap: a peer that never sends a newline is cut off at
// maxControlLineBytes with a typed error instead of growing the line without
// bound; a line of exactly the cap still parses.
func TestReadJSONLineCap(t *testing.T) {
	src := &countingReader{r: io.MultiReader(strings.NewReader(`{"input":"`), neverEnding('a'))}
	var spec QuerySpec
	err := ReadJSON(bufio.NewReader(src), &spec)
	if !errors.Is(err, errLineTooLong) {
		t.Fatalf("newline-less stream = %v, want errLineTooLong", err)
	}
	if src.n > maxControlLineBytes+1<<16 {
		t.Fatalf("reader consumed %d bytes before giving up, cap is %d", src.n, maxControlLineBytes)
	}
	// The same through ReadFrame, where a node's or front-end's stream lands.
	if _, _, err := ReadFrame(bufio.NewReader(io.MultiReader(strings.NewReader(`{"type":"`), neverEnding('a'))), false); !errors.Is(err, errLineTooLong) {
		t.Fatalf("newline-less control line = %v, want errLineTooLong", err)
	}

	pad := maxControlLineBytes - len(`{"input":""}`) - 1
	line := `{"input":"` + strings.Repeat("a", pad) + `"}` + "\n"
	if len(line) != maxControlLineBytes {
		t.Fatalf("test line is %d bytes", len(line))
	}
	if err := ReadJSON(bufio.NewReader(strings.NewReader(line)), &spec); err != nil || len(spec.Input) != pad {
		t.Fatalf("line at the cap: %v (input %d bytes)", err, len(spec.Input))
	}
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// FuzzReadFrame: no byte stream may panic the reader or the decoder, make
// it return a frame its header does not describe, or leave a pooled buffer
// checked out.
func FuzzReadFrame(f *testing.F) {
	good := chunkFrame(&chunk.Chunk{
		Meta:  chunk.Meta{ID: 9, Dataset: "img", MBR: space.R(0, 4, 0, 4), Items: 2},
		Items: []chunk.Item{{Coord: space.Pt(1, 2), Value: []byte{1, 2, 3}}, {Coord: space.Pt(3, 3)}},
	})
	done := ctl(&Message{Type: "done", Stats: &DoneStats{Chunks: 1}})
	oversize := []byte{frameTag, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(oversize[1:], rpc.MaxFrameBytes+1)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f.Add(cat(good, done))
	f.Add(cat(done, good, done, good))             // control lines interleaved with frames
	f.Add(good[:3])                                // truncated header
	f.Add(good[:len(good)-4])                      // truncated payload
	f.Add(cat(oversize, good))                     // oversize length
	f.Add(cat([]byte{0x7f}, good))                 // bad tag
	f.Add(cat(good[:frameHeaderLen], done))        // header promising bytes that are a control line
	f.Add([]byte("{\"type\":\"done\""))            // control line without its newline
	f.Add(cat([]byte{frameTag, 0, 0, 0, 0}, done)) // empty payload
	f.Fuzz(func(t *testing.T, data []byte) {
		base := bufpool.Outstanding()
		r := bufio.NewReader(bytes.NewReader(data))
		for consumed := 0; ; {
			frame, msg, err := ReadFrame(r, true)
			if err != nil {
				break
			}
			if (frame == nil) == (msg == nil) {
				t.Fatalf("ReadFrame returned frame=%v msg=%v without an error", frame != nil, msg != nil)
			}
			if frame != nil {
				if len(frame) < frameHeaderLen || frame[0] != frameTag ||
					int(binary.LittleEndian.Uint32(frame[1:])) != len(frame)-frameHeaderLen {
					t.Fatalf("frame of %d bytes does not match its header % x", len(frame), frame[:frameHeaderLen])
				}
				if consumed += len(frame); consumed > len(data) {
					t.Fatalf("frames total %d bytes out of a %d-byte stream", consumed, len(data))
				}
				if cj, err := decodeFrame(frame); err == nil && cj == nil {
					t.Fatal("decodeFrame returned neither a chunk nor an error")
				}
				bufpool.Put(frame)
			}
		}
		if got := bufpool.Outstanding(); got != base {
			t.Fatalf("%d pooled buffers left outstanding", got-base)
		}
	})
}
