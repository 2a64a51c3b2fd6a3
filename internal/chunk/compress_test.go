package chunk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"adr/internal/space"
)

// compressibleChunk builds a chunk shaped like the loader's real output:
// grid-quantized coordinates inside a tight MBR and small fixed-point
// values, the layout both codecs exist for.
func compressibleChunk(n int) *Chunk {
	rng := rand.New(rand.NewSource(7))
	items := make([]Item, n)
	for i := range items {
		x := float64(rng.Intn(256)) / 4
		y := float64(rng.Intn(256)) / 4
		v := make([]byte, 8)
		for b, u := 0, uint64(rng.Intn(1000)); b < 8; b, u = b+1, u>>8 {
			v[b] = byte(u)
		}
		items[i] = Item{Coord: space.Pt(x, y), Value: v}
	}
	return &Chunk{
		Meta: Meta{
			ID: 3, Dataset: "grid", MBR: ComputeMBR(items),
			Items: int32(n), Disk: 2, Node: 1,
		},
		Items: items,
	}
}

func TestParseCodec(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Codec
		ok   bool
	}{
		{"", CodecNone, true},
		{"none", CodecNone, true},
		{"flate", CodecFlate, true},
		{"columnar", CodecColumnar, true},
		{"gzip", CodecNone, false},
	} {
		got, err := ParseCodec(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseCodec(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if tc.ok && tc.in != "" && got.String() != tc.in {
			t.Errorf("Codec(%q).String() = %q", tc.in, got.String())
		}
	}
}

// TestCompressRoundTrip: both codecs must shrink the grid-shaped chunk and
// decompress back to the bit-identical raw encoding.
func TestCompressRoundTrip(t *testing.T) {
	raw := Encode(compressibleChunk(512))
	for _, codec := range []Codec{CodecFlate, CodecColumnar} {
		env, used := Compress(raw, codec, 0)
		if used != codec {
			t.Fatalf("%v: Compress skipped (used %v)", codec, used)
		}
		if len(env) >= len(raw) {
			t.Fatalf("%v: envelope %d bytes >= raw %d", codec, len(env), len(raw))
		}
		if !IsCompressed(env) || Codec(env[5]) != codec {
			t.Fatalf("%v: envelope not recognised (codec byte %d)", codec, env[5])
		}
		if RawLen(env) != len(raw) {
			t.Fatalf("%v: RawLen = %d, want %d", codec, RawLen(env), len(raw))
		}
		back, err := Decompress(env)
		if err != nil {
			t.Fatalf("%v: Decompress: %v", codec, err)
		}
		if !bytes.Equal(back, raw) {
			t.Fatalf("%v: decompression is not bit-identical to the raw encoding", codec)
		}
		// DecompressTo preserves an existing prefix.
		prefix := []byte("keep")
		ext, err := DecompressTo(append([]byte(nil), prefix...), env)
		if err != nil {
			t.Fatalf("%v: DecompressTo: %v", codec, err)
		}
		if !bytes.Equal(ext[:len(prefix)], prefix) || !bytes.Equal(ext[len(prefix):], raw) {
			t.Fatalf("%v: DecompressTo mangled dst", codec)
		}
		if _, err := DecodeAny(env); err != nil {
			t.Fatalf("%v: DecodeAny: %v", codec, err)
		}
	}
}

// TestCompressPassthrough: raw payloads flow through the decompression API
// untouched, so a reader never needs to know whether its peer compresses.
func TestCompressPassthrough(t *testing.T) {
	raw := Encode(sampleChunk())
	if out, used := Compress(raw, CodecNone, 0); used != CodecNone || &out[0] != &raw[0] {
		t.Error("CodecNone must return the raw payload unmodified")
	}
	if IsCompressed(raw) || RawLen(raw) != len(raw) {
		t.Error("raw payload misidentified as compressed")
	}
	back, err := Decompress(raw)
	if err != nil || &back[0] != &raw[0] {
		t.Errorf("Decompress(raw) = %v, must alias input", err)
	}
}

// TestCompressSkip: a payload of incompressible noise must be stored raw
// under the default threshold, and the skip must not corrupt anything.
func TestCompressSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	items := make([]Item, 64)
	for i := range items {
		v := make([]byte, 128)
		rng.Read(v)
		items[i] = Item{Coord: space.Pt(rng.Float64(), rng.Float64()), Value: v}
	}
	c := &Chunk{Meta: Meta{Dataset: "noise", MBR: ComputeMBR(items), Items: 64}, Items: items}
	raw := Encode(c)
	before := compSkips.Value()
	out, used := Compress(raw, CodecFlate, DefaultMinRatio)
	if used != CodecNone {
		t.Fatalf("noise compressed to %d of %d bytes; expected a skip", len(out), len(raw))
	}
	if &out[0] != &raw[0] {
		t.Error("skip must return the raw payload itself")
	}
	if compSkips.Value() != before+1 {
		t.Error("skip not counted in adr_chunk_compress_skips_total")
	}
}

// TestCompressEmptyChunk: output datasets declare empty chunks; both codecs
// must handle a zero-item payload (whether or not it clears the ratio bar).
func TestCompressEmptyChunk(t *testing.T) {
	raw := Encode(&Chunk{Meta: Meta{Dataset: "out", MBR: space.R(0, 1, 0, 1)}})
	for _, codec := range []Codec{CodecFlate, CodecColumnar} {
		env, used := Compress(raw, codec, 2) // generous bar: tiny payloads rarely shrink
		back, err := Decompress(env)
		if err != nil {
			t.Fatalf("%v: %v", codec, err)
		}
		if !bytes.Equal(back, raw) {
			t.Fatalf("%v (used %v): empty chunk not bit-identical", codec, used)
		}
	}
}

// TestDecompressCorrupt: malformed envelopes must fail with errCorrupt and
// never panic or over-allocate.
func TestDecompressCorrupt(t *testing.T) {
	raw := Encode(compressibleChunk(64))
	env, used := Compress(raw, CodecColumnar, 0)
	if used == CodecNone {
		t.Fatal("setup: compression skipped")
	}
	flateEnv, _ := Compress(raw, CodecFlate, 0)
	mut := func(src []byte, f func(b []byte)) []byte {
		b := append([]byte(nil), src...)
		f(b)
		return b
	}
	mustFail := map[string][]byte{
		"empty body":     env[:envHeaderLen],
		"truncated body": env[:len(env)-5],
		"bad version":    mut(env, func(b []byte) { b[4] = 9 }),
		"bad codec":      mut(env, func(b []byte) { b[5] = 200 }),
		"huge raw size":  mut(env, func(b []byte) { b[6], b[7], b[8], b[9] = 0xff, 0xff, 0xff, 0x7f }),
		"zero raw size":  mut(env, func(b []byte) { b[6], b[7], b[8], b[9] = 0, 0, 0, 0 }),
	}
	for name, buf := range mustFail {
		if _, err := Decompress(buf); err == nil {
			t.Errorf("%s: Decompress accepted a corrupt envelope", name)
		}
	}
	// Bit flips inside codec bodies have no checksum to trip, so the only
	// hard requirement is no panic and no over-read.
	for name, buf := range map[string][]byte{
		"flate garbage":  mut(flateEnv, func(b []byte) { b[len(b)-8] ^= 0x55 }),
		"columnar noise": mut(env, func(b []byte) { b[len(env)-10] ^= 0xff }),
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: Decompress panicked: %v", name, r)
				}
			}()
			_, _ = Decompress(buf)
		}()
	}
	// Decode must reject an envelope handed to it directly (a raw-format
	// reader sees a clean error, not a misparse).
	if _, err := Decode(env); err == nil {
		t.Error("Decode accepted a compressed envelope")
	}
}

// TestDecompressPoolReuse: decompression contexts are pooled, so
// concurrent decompressions of large, small and corrupt envelopes in any
// interleaving must each see a clean inflater — every good envelope comes
// back bit-identical and a corrupt one never poisons the next. Run it under
// -race.
func TestDecompressPoolReuse(t *testing.T) {
	type envelope struct {
		name     string
		env, raw []byte // raw nil: the envelope is corrupt
	}
	var cases []envelope
	for _, n := range []int{1024, 3} {
		raw := Encode(compressibleChunk(n))
		for _, codec := range []Codec{CodecFlate, CodecColumnar} {
			env, used := Compress(raw, codec, 2)
			if used != codec {
				t.Fatalf("setup: %v skipped a %d-item chunk", codec, n)
			}
			short := append([]byte(nil), env...)
			binary.LittleEndian.PutUint32(short[6:], uint32(len(raw)-1))
			long := append([]byte(nil), env...)
			binary.LittleEndian.PutUint32(long[6:], uint32(len(raw)+1))
			name := fmt.Sprintf("%v/%d", codec, n)
			cases = append(cases,
				envelope{name, env, raw},
				envelope{name + "/truncated", env[:len(env)-5], nil},
				envelope{name + "/raw size short", short, nil},
				envelope{name + "/raw size long", long, nil},
			)
		}
	}
	const goroutines, rounds = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]byte, 0, 64<<10)
			for r := 0; r < rounds; r++ {
				c := cases[(g+r*(g+1))%len(cases)]
				out, err := DecompressTo(dst[:0], c.env)
				switch {
				case c.raw == nil && err == nil:
					errs <- fmt.Errorf("%s: corrupt envelope accepted", c.name)
					return
				case c.raw != nil && err != nil:
					errs <- fmt.Errorf("%s: %v", c.name, err)
					return
				case c.raw != nil && !bytes.Equal(out, c.raw):
					errs <- fmt.Errorf("%s: not bit-identical", c.name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestQuickCompressRoundTrip: arbitrary chunks — any dims, value lengths,
// coordinate distributions — must round-trip bit-identically through both
// codecs whenever Compress does not skip.
func TestQuickCompressRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func() bool {
		n := rng.Intn(50)
		dims := 1 + rng.Intn(4)
		items := make([]Item, n)
		for i := range items {
			coords := make([]float64, dims)
			for d := range coords {
				coords[d] = float64(rng.Intn(1000)) / 8
			}
			v := make([]byte, rng.Intn(32))
			rng.Read(v)
			items[i] = Item{Coord: space.Pt(coords...), Value: v}
		}
		mbr := ComputeMBR(items)
		if n == 0 {
			b := make([]float64, 2*dims)
			mbr = space.R(b...)
		}
		c := &Chunk{
			Meta:  Meta{ID: ID(rng.Int31()), Dataset: "quick", MBR: mbr, Items: int32(n)},
			Items: items,
		}
		raw := Encode(c)
		for _, codec := range []Codec{CodecFlate, CodecColumnar} {
			env, _ := Compress(raw, codec, 2)
			back, err := Decompress(env)
			if err != nil || !bytes.Equal(back, raw) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickAppendToAppendsEncodedSize pins the bufpool no-realloc contract:
// for arbitrary chunks and arbitrary destination prefixes, AppendTo(c, dst)
// appends exactly EncodedSize(c) bytes and reuses dst's array when it has
// that much spare capacity.
func TestQuickAppendToAppendsEncodedSize(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	f := func() bool {
		n := rng.Intn(30)
		dims := 1 + rng.Intn(space.MaxDims)
		items := make([]Item, n)
		for i := range items {
			coords := make([]float64, dims)
			for d := range coords {
				coords[d] = rng.NormFloat64() * 100
			}
			v := make([]byte, rng.Intn(40))
			rng.Read(v)
			items[i] = Item{Coord: space.Pt(coords...), Value: v}
		}
		mbr := ComputeMBR(items)
		if n == 0 {
			b := make([]float64, 2*dims)
			mbr = space.R(b...)
		}
		c := &Chunk{
			Meta:  Meta{ID: ID(rng.Int31()), Dataset: "append", MBR: mbr, Items: int32(n)},
			Items: items,
		}
		prefix := make([]byte, rng.Intn(16))
		rng.Read(prefix)
		dst := append(make([]byte, 0, len(prefix)+EncodedSize(c)), prefix...)
		out := AppendTo(c, dst)
		if len(out)-len(dst) != EncodedSize(c) {
			return false
		}
		if cap(dst) >= len(prefix)+EncodedSize(c) && &out[0] != &dst[:1][0] {
			return false // reallocated despite sufficient capacity
		}
		return bytes.Equal(out[len(prefix):], Encode(c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCompressColumnar(b *testing.B) {
	raw := Encode(compressibleChunk(1024))
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		if _, used := Compress(raw, CodecColumnar, 0); used == CodecNone {
			b.Fatal("skipped")
		}
	}
}

func BenchmarkDecompressColumnar(b *testing.B) {
	raw := Encode(compressibleChunk(1024))
	env, used := Compress(raw, CodecColumnar, 0)
	if used == CodecNone {
		b.Fatal("skipped")
	}
	dst := make([]byte, 0, len(raw))
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		out, err := DecompressTo(dst[:0], env)
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}
