package frontend

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"adr/internal/bufpool"
)

// BenchmarkResultFrame prices the three stages an output chunk's frame
// passes through, per 8 192-item chunk: the node's encode into a pooled
// buffer, the front-end's relay (read into a pooled buffer, write on), and
// the client's single decode. The live-stack benchmark's
// frontend.result_{encode,decode}_ns_per_item time the exported JSON
// functions, which the wire no longer uses; this is the layer number for
// the path it does use.
func BenchmarkResultFrame(b *testing.B) {
	const items = 8192
	c := itemsChunk(1, items)
	frame := chunkFrame(c)
	run := func(name string, op func(r *bufio.Reader, src *bytes.Reader)) {
		b.Run(name, func(b *testing.B) {
			src := bytes.NewReader(frame)
			r := bufio.NewReader(src)
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Reset(frame)
				r.Reset(src)
				op(r, src)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/items, "ns/item")
		})
	}
	run("encode", func(*bufio.Reader, *bytes.Reader) {
		buf, err := AppendFrame(bufpool.Get(FrameSize(c))[:0], c)
		if err != nil || len(buf) != len(frame) {
			b.Fatal(len(buf), err)
		}
		bufpool.Put(buf)
	})
	run("relay", func(r *bufio.Reader, _ *bytes.Reader) {
		buf, _, err := ReadFrame(r, true)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Discard.Write(buf); err != nil {
			b.Fatal(err)
		}
		bufpool.Put(buf)
	})
	run("decode", func(r *bufio.Reader, _ *bytes.Reader) {
		buf, _, err := ReadFrame(r, false)
		if err != nil {
			b.Fatal(err)
		}
		cj, err := decodeFrame(buf)
		if err != nil || len(cj.Items) != items {
			b.Fatal(err)
		}
	})
}
