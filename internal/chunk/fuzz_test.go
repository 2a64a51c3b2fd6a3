package chunk

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"adr/internal/space"
)

// fuzzSeeds returns encodings worth mutating: valid chunks of several
// shapes, their compressed envelopes, and hand-broken frames, so the fuzzer
// starts at the structure boundaries instead of rediscovering the magic.
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	add := func(b []byte) { seeds = append(seeds, b) }
	add(Encode(sampleChunk()))
	add(Encode(compressibleChunk(32)))
	add(Encode(&Chunk{Meta: Meta{Dataset: "empty", MBR: space.R(0, 1, 0, 1)}}))
	hiDim := &Chunk{
		Meta:  Meta{Dataset: "4d", MBR: space.R(0, 1, 0, 1, 0, 1, 0, 1)},
		Items: []Item{{Coord: space.Pt(0.5, 0.5, 0.5, 0.5), Value: []byte{1, 2, 3}}},
	}
	hiDim.Meta.Items = 1
	add(Encode(hiDim))
	env, _ := Compress(Encode(compressibleChunk(32)), CodecColumnar, 2)
	add(env)
	odd, _ := Compress(Encode(sampleChunk()), CodecColumnar, 2)
	add(odd)
	add(v1Flate)
	add(v1Columnar)
	w := firstWord(env)
	bad := append([]byte(nil), env...)
	bad[w] = 0x55 // lz + tz > 8
	add(bad)
	add(respell(env, w))  // non-canonical word
	add(env[:len(env)-1]) // truncated word
	good := Encode(sampleChunk())
	add(good[:len(good)-3])                  // truncated tail
	add(append([]byte{0, 1, 2, 3}, good...)) // bad magic prefix
	corrupt := append([]byte(nil), good...)
	corrupt[14] = 0xff // inflated item count
	add(corrupt)
	return seeds
}

// dirtyEncoding encodes a chunk larger, of more dimensions and differently
// named than any fuzz seed; dirtyChunk decodes it and sets the Meta fields
// Decode never does, so a DecodeInto over the result that left anything
// behind shows up as a mismatch.
func dirtyEncoding() []byte {
	items := make([]Item, 64)
	for i := range items {
		var p space.Point
		p.Dims = space.MaxDims
		for d := range p.Coords {
			p.Coords[d] = float64(i*space.MaxDims + d + 1)
		}
		items[i] = Item{Coord: p, Value: bytes.Repeat([]byte{byte(i)}, 1+i%9)}
	}
	return Encode(&Chunk{Meta: Meta{ID: 99, Dataset: "dirty-leftover", MBR: ComputeMBR(items), Items: 64, Disk: 5, Node: 4}, Items: items})
}

func dirtyChunk(t testing.TB, enc []byte) *Chunk {
	c := new(Chunk)
	if err := DecodeInto(c, enc); err != nil {
		t.Fatal(err)
	}
	c.Meta.StoredBytes, c.Meta.Holders = 7, []int32{5, 6}
	return c
}

// sameChunk reports the first field in which got differs from want: every
// Meta field, every coordinate slot (also those past the dimensionality, and
// bit for bit, so NaNs compare) and every value byte.
func sameChunk(got, want *Chunk) error {
	g, w := got.Meta, want.Meta
	g.MBR, w.MBR = space.Rect{}, space.Rect{}
	if !reflect.DeepEqual(g, w) || !sameBits(got.Meta.MBR.Lo, want.Meta.MBR.Lo) ||
		!sameBits(got.Meta.MBR.Hi, want.Meta.MBR.Hi) || got.Meta.MBR.Dims != want.Meta.MBR.Dims {
		return fmt.Errorf("Meta %+v, want %+v", got.Meta, want.Meta)
	}
	if len(got.Items) != len(want.Items) {
		return fmt.Errorf("%d items, want %d", len(got.Items), len(want.Items))
	}
	for i := range got.Items {
		gc, wc := got.Items[i].Coord, want.Items[i].Coord
		if gc.Dims != wc.Dims || !sameBits(gc.Coords, wc.Coords) {
			return fmt.Errorf("item %d at %+v, want %+v", i, gc, wc)
		}
		if !bytes.Equal(got.Items[i].Value, want.Items[i].Value) {
			return fmt.Errorf("item %d value %x, want %x", i, got.Items[i].Value, want.Items[i].Value)
		}
	}
	return nil
}

func sameBits(a, b [space.MaxDims]float64) bool {
	for d := range a {
		if math.Float64bits(a[d]) != math.Float64bits(b[d]) {
			return false
		}
	}
	return true
}

// FuzzDecode hardens the raw-format decoder the codecs sit on: arbitrary
// input must never panic, and anything that decodes must re-encode to a
// payload that decodes to the same chunk. DecodeInto, into a chunk left
// dirty by a larger, higher-dimensional, differently named decode, must
// accept and reject exactly what Decode does and, on success, equal its
// chunk field for field.
func FuzzDecode(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	dirty := dirtyEncoding()
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(data)
		reused := dirtyChunk(t, dirty)
		errInto := DecodeInto(reused, data)
		if (err == nil) != (errInto == nil) {
			t.Fatalf("Decode error %v, DecodeInto error %v", err, errInto)
		}
		if err != nil {
			return
		}
		if err := sameChunk(reused, c); err != nil {
			t.Fatalf("DecodeInto over a dirty chunk differs from Decode: %v", err)
		}
		if int(c.Meta.Items) != len(c.Items) {
			t.Fatalf("decoded chunk inconsistent: Meta.Items=%d, len=%d", c.Meta.Items, len(c.Items))
		}
		re := Encode(c)
		c2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoding of a decoded chunk failed to decode: %v", err)
		}
		if err := sameChunk(c2, c); err != nil {
			t.Fatalf("decode/encode/decode not idempotent: %v", err)
		}
	})
}

// TestDecodeIntoAllocs: decoding into a chunk whose Items already hold
// enough room, from a chunk of the same dataset, allocates nothing.
func TestDecodeIntoAllocs(t *testing.T) {
	enc := Encode(compressibleChunk(980))
	c := new(Chunk)
	if err := DecodeInto(c, enc); err != nil {
		t.Fatal(err)
	}
	small := Encode(compressibleChunk(10))
	if n := testing.AllocsPerRun(50, func() {
		if err := DecodeInto(c, small); err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(c, enc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeInto allocated %v times per reuse, want 0", n)
	}
}

// FuzzDecompress covers the envelope path end to end: arbitrary input must
// never panic, and raw (non-envelope) input must pass through untouched.
// An envelope it accepts must decompress to exactly RawLen bytes that Decode
// accepts and that compress back to the envelope byte for byte, so the
// decoder accepts one spelling of each chunk and no other. Input that
// decodes as a raw chunk must survive the codec: compressed, it
// decompresses back bit-identical.
func FuzzDecompress(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := Decode(data); err == nil {
			env, _ := Compress(data, CodecColumnar, 2)
			back, err := Decompress(env)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, data) {
				t.Fatal("round trip is not bit-identical")
			}
		}
		raw, err := Decompress(data)
		if err != nil {
			return
		}
		if !IsCompressed(data) {
			if !bytes.Equal(raw, data) {
				t.Fatal("raw payload mutated by Decompress")
			}
			_, _ = Decode(raw) // must not panic
			return
		}
		if len(raw) != RawLen(data) {
			t.Fatalf("decompressed %d bytes, envelope claimed %d", len(raw), RawLen(data))
		}
		if _, err := Decode(raw); err != nil {
			t.Fatalf("accepted envelope decompresses to a payload Decode refuses: %v", err)
		}
		if env, used := Compress(raw, CodecColumnar, math.MaxFloat64); used != CodecColumnar || !bytes.Equal(env, data) {
			t.Fatalf("accepted envelope does not re-compress byte-identically (%d bytes, want %d)", len(env), len(data))
		}
	})
}
