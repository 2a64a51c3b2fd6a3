package chunk

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"adr/internal/space"
)

// compressibleChunk builds a chunk shaped like the loader's real output:
// grid-quantized coordinates inside a tight MBR and small fixed-point
// values, the layout the columnar codec exists for.
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
		{"columnar", CodecColumnar, true},
		{"flate", CodecNone, false},
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

// TestCompressRoundTrip: the columnar codec must shrink the grid-shaped
// chunk and decompress back to the bit-identical raw encoding.
func TestCompressRoundTrip(t *testing.T) {
	raw := Encode(compressibleChunk(512))
	env, used := Compress(raw, CodecColumnar, 0)
	if used != CodecColumnar {
		t.Fatalf("Compress skipped (used %v)", used)
	}
	if len(env) >= len(raw) {
		t.Fatalf("envelope %d bytes >= raw %d", len(env), len(raw))
	}
	if !IsCompressed(env) || env[4] != compVersion || Codec(env[5]) != CodecColumnar {
		t.Fatalf("envelope not recognised (version %d, codec byte %d)", env[4], env[5])
	}
	if RawLen(env) != len(raw) {
		t.Fatalf("RawLen = %d, want %d", RawLen(env), len(raw))
	}
	back, err := Decompress(env)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if !bytes.Equal(back, raw) {
		t.Fatal("decompression is not bit-identical to the raw encoding")
	}
	// DecompressTo preserves an existing prefix.
	prefix := []byte("keep")
	ext, err := DecompressTo(append([]byte(nil), prefix...), env)
	if err != nil {
		t.Fatalf("DecompressTo: %v", err)
	}
	if !bytes.Equal(ext[:len(prefix)], prefix) || !bytes.Equal(ext[len(prefix):], raw) {
		t.Fatal("DecompressTo mangled dst")
	}
	if _, err := DecodeAny(env); err != nil {
		t.Fatalf("DecodeAny: %v", err)
	}
}

// TestCompressWords pins the word form: the control byte counts every zero
// byte, the middle bytes follow low first, and readWord inverts appendWord.
func TestCompressWords(t *testing.T) {
	for _, tc := range []struct {
		w    uint64
		want []byte
	}{
		{0, []byte{0x80}},
		{1, []byte{0x70, 1}},
		{0x0102, []byte{0x60, 2, 1}},
		{0x0100, []byte{0x61, 1}},
		{1 << 63, []byte{0x07, 0x80}},
		{0x0102030405060708, []byte{0x00, 8, 7, 6, 5, 4, 3, 2, 1}},
		{0x00ff00000000ff00, []byte{0x11, 0xff, 0, 0, 0, 0, 0xff}},
	} {
		got := appendWord(nil, tc.w)
		if !bytes.Equal(got, tc.want) {
			t.Errorf("appendWord(%#x) = %x, want %x", tc.w, got, tc.want)
		}
		// Decoded both at the end of a body and with bytes after it.
		for _, body := range [][]byte{got, append(append([]byte(nil), got...), 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff, 0x11, 0x22)} {
			w, pos, err := readWord(body, 0)
			if err != nil || w != tc.w || pos != len(got) {
				t.Errorf("readWord(%x) = %#x, %d, %v; want %#x, %d", body, w, pos, err, tc.w, len(got))
			}
		}
	}
	for _, v := range []int64{0, 1, -1, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64} {
		if z := zigzag(uint64(v)); int64(unzigzag(z)) != v {
			t.Errorf("unzigzag(zigzag(%d)) = %d", v, int64(unzigzag(z)))
		}
	}
	if minus1 := int64(-1); zigzag(uint64(minus1)) != 1 || zigzag(1) != 2 {
		t.Error("zigzag does not map -1, 1 to 1, 2")
	}
}

// TestCompressPassthrough: raw payloads flow through the decompression API
// untouched, so a reader never needs to know how a dataset was loaded.
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
	out, used := Compress(raw, CodecColumnar, DefaultMinRatio)
	if used != CodecNone {
		t.Fatalf("noise compressed to %d of %d bytes; expected a skip", len(out), len(raw))
	}
	if &out[0] != &raw[0] {
		t.Error("skip must return the raw payload itself")
	}
}

// TestCompressEmptyChunk: output datasets declare empty chunks; the codec
// must handle a zero-item payload (whether or not it clears the ratio bar).
func TestCompressEmptyChunk(t *testing.T) {
	raw := Encode(&Chunk{Meta: Meta{Dataset: "out", MBR: space.R(0, 1, 0, 1)}})
	env, used := Compress(raw, CodecColumnar, 2) // generous bar: tiny payloads rarely shrink
	if used != CodecColumnar {
		t.Fatal("an empty chunk was not enveloped under a ratio bar of 2")
	}
	back, err := Decompress(env)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, raw) {
		t.Fatal("empty chunk not bit-identical")
	}
}

// v1Flate and v1Columnar are envelopes of a two-item chunk as the
// DEFLATE-based version 1 format wrote them.
var (
	v1Flate    = mustHex("5a524441010172000000720e727164646264400026302e3384f03ed843851d20d40f343e429e83818181830119fc4091e3847200010000ffff")
	v1Columnar = mustHex("5a5244410102720000004352444101020100000000000000000000000200000002007631000000000000f03f0000000000000040000000000000f83f0000000000000040e2e0604001685c24114e280d080000ffff")
)

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// firstWord returns the offset in env of the first coordinate word's
// control byte: after the envelope header, the raw header and the value
// length uvarints.
func firstWord(env []byte) int {
	body := env[envHeaderLen:]
	h, err := parseRawHeader(body)
	if err != nil {
		panic(err)
	}
	pos := h.length
	for i := 0; i < h.nitems; i++ {
		_, n := binary.Uvarint(body[pos:])
		pos += n
	}
	return envHeaderLen + pos
}

// respell rewrites the first word at or after the control byte env[p] that
// has a leading zero byte with that byte spelled out: the same word, spelled
// non-canonically.
func respell(env []byte, p int) []byte {
	for ; p < len(env); p += 1 + 8 - int(env[p]>>4) - int(env[p]&15) {
		ctl := env[p]
		lz, tz := int(ctl>>4), int(ctl&15)
		if lz == 0 {
			continue
		}
		n := 8 - lz - tz
		out := append([]byte(nil), env[:p]...)
		out = append(out, byte((lz-1)<<4|tz))
		out = append(out, env[p+1:p+1+n]...)
		out = append(out, 0)
		return append(out, env[p+1+n:]...)
	}
	panic("setup: no word with a leading zero byte to spell out")
}

// TestDecompressCorrupt: every malformed envelope must fail with errCorrupt,
// for its own named reason, and never panic or over-allocate.
func TestDecompressCorrupt(t *testing.T) {
	raw := Encode(compressibleChunk(64))
	env, used := Compress(raw, CodecColumnar, 0)
	if used == CodecNone {
		t.Fatal("setup: compression skipped")
	}
	// A chunk of 3-byte values, stored verbatim after the coordinates.
	odd := compressibleChunk(4)
	for i := range odd.Items {
		odd.Items[i].Value = odd.Items[i].Value[:3]
	}
	oddEnv, used := Compress(Encode(odd), CodecColumnar, 2)
	if used == CodecNone {
		t.Fatal("setup: compression skipped")
	}
	mut := func(src []byte, f func(b []byte)) []byte {
		b := append([]byte(nil), src...)
		f(b)
		return b
	}
	w := firstWord(env)
	vl := w - 1 // the last value length's uvarint, one byte (8)
	for _, tc := range []struct {
		name, want string
		buf        []byte
	}{
		{"v1 flate envelope", "version 1", v1Flate},
		{"v1 columnar envelope", "version 1", v1Columnar},
		{"unknown version", "unsupported envelope version 9", mut(env, func(b []byte) { b[4] = 9 })},
		{"old flate codec byte", "unknown envelope codec 1", mut(env, func(b []byte) { b[5] = 1 })},
		{"unknown codec", "unknown envelope codec 200", mut(env, func(b []byte) { b[5] = 200 })},
		{"empty body", "raw bytes from a 0-byte body", env[:envHeaderLen]},
		{"huge raw size", "raw bytes from a", mut(env, func(b []byte) { b[6], b[7], b[8], b[9] = 0xff, 0xff, 0xff, 0x7f })},
		{"zero raw size", "exceeds raw size", mut(env, func(b []byte) { b[6], b[7], b[8], b[9] = 0, 0, 0, 0 })},
		{"item count past raw size", "item count", mut(env, func(b []byte) { b[envHeaderLen+18] = 0xff })},
		{"raw size short", "overflow raw size", mut(env, func(b []byte) { binary.LittleEndian.PutUint32(b[6:], uint32(len(raw)-1)) })},
		{"raw size long", "items cover", mut(env, func(b []byte) { binary.LittleEndian.PutUint32(b[6:], uint32(len(raw)+1)) })},
		{"non-minimal value length", "bad value length", append(append(append([]byte(nil), env[:vl]...), env[vl]|0x80, 0), env[vl+1:]...)},
		{"lz + tz > 8", "zero bytes", mut(env, func(b []byte) { b[w] = 0x55 })},
		{"non-canonical word", "non-canonical", respell(env, w)},
		{"truncated word", "runs past the body", env[:len(env)-1]},
		{"missing word", "past the body", env[:len(env)-2]},
		{"truncated value", "value of item 3 runs past the body", oddEnv[:len(oddEnv)-1]},
		{"trailing bytes", "trailing bytes", append(append([]byte(nil), env...), 0)},
	} {
		_, err := Decompress(tc.buf)
		if err == nil {
			t.Errorf("%s: Decompress accepted a corrupt envelope", tc.name)
			continue
		}
		if !errors.Is(err, errCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want errCorrupt naming %q", tc.name, err, tc.want)
		}
		dst := make([]byte, 3, 8)
		if out, err := DecompressTo(dst, tc.buf); err == nil || len(out) != 3 {
			t.Errorf("%s: DecompressTo returned %d bytes and %v, want dst unextended and an error", tc.name, len(out), err)
		}
	}
	// Bit flips inside the body have no checksum to trip, so the only hard
	// requirement is no panic and no over-read.
	for i := envHeaderLen; i < len(env); i++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("byte %d flipped: Decompress panicked: %v", i, r)
				}
			}()
			_, _ = Decompress(mut(env, func(b []byte) { b[i] ^= 0xff }))
		}()
	}
	// Decode must reject an envelope handed to it directly (a raw-format
	// reader sees a clean error, not a misparse).
	if _, err := Decode(env); err == nil {
		t.Error("Decode accepted a compressed envelope")
	}
}

// TestDecompressToAllocs pins the read path at zero allocations once dst
// has RawLen capacity.
func TestDecompressToAllocs(t *testing.T) {
	env, used := Compress(Encode(compressibleChunk(1024)), CodecColumnar, 0)
	if used == CodecNone {
		t.Fatal("setup: compression skipped")
	}
	dst := make([]byte, 0, RawLen(env))
	if n := testing.AllocsPerRun(50, func() {
		if _, err := DecompressTo(dst, env); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecompressTo allocated %v times with a pre-sized dst, want 0", n)
	}
}

// TestDecompressConcurrent: decompressions of large, small and corrupt
// envelopes, interleaved across goroutines, each come back bit-identical or
// refused; the decoder shares no state between calls. Run it under -race.
func TestDecompressConcurrent(t *testing.T) {
	type envelope struct {
		name     string
		env, raw []byte // raw nil: the envelope is corrupt
	}
	var cases []envelope
	for _, n := range []int{1024, 3} {
		raw := Encode(compressibleChunk(n))
		env, used := Compress(raw, CodecColumnar, 2)
		if used != CodecColumnar {
			t.Fatalf("setup: a %d-item chunk was skipped", n)
		}
		short := append([]byte(nil), env...)
		binary.LittleEndian.PutUint32(short[6:], uint32(len(raw)-1))
		long := append([]byte(nil), env...)
		binary.LittleEndian.PutUint32(long[6:], uint32(len(raw)+1))
		name := fmt.Sprintf("%d items", n)
		cases = append(cases,
			envelope{name, env, raw},
			envelope{name + "/truncated", env[:len(env)-5], nil},
			envelope{name + "/raw size short", short, nil},
			envelope{name + "/raw size long", long, nil},
		)
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

// TestQuickCompressRoundTrip: arbitrary chunks — any dims, value lengths
// (8-byte values of either sign among them), coordinate distributions —
// must round-trip bit-identically whenever Compress does not skip.
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
			var v []byte
			if rng.Intn(2) == 0 {
				v = binary.LittleEndian.AppendUint64(nil, uint64(rng.Int63n(1<<20)-1<<19))
			} else {
				v = make([]byte, rng.Intn(32))
				rng.Read(v)
			}
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
		env, _ := Compress(raw, CodecColumnar, 2)
		back, err := Decompress(env)
		return err == nil && bytes.Equal(back, raw)
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
