package chunk

import (
	"bytes"
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
	for _, codec := range []Codec{CodecFlate, CodecColumnar} {
		if env, used := Compress(Encode(compressibleChunk(32)), codec, 2); used == codec {
			add(env)
		}
	}
	good := Encode(sampleChunk())
	add(good[:len(good)-3])                  // truncated tail
	add(append([]byte{0, 1, 2, 3}, good...)) // bad magic prefix
	corrupt := append([]byte(nil), good...)
	corrupt[14] = 0xff // inflated item count
	add(corrupt)
	return seeds
}

// FuzzDecode hardens the raw-format decoder the codecs sit on: arbitrary
// input must never panic, and anything that decodes must re-encode to a
// payload that decodes to the same chunk.
func FuzzDecode(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(data)
		if err != nil {
			return
		}
		if int(c.Meta.Items) != len(c.Items) {
			t.Fatalf("decoded chunk inconsistent: Meta.Items=%d, len=%d", c.Meta.Items, len(c.Items))
		}
		re := Encode(c)
		c2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoding of a decoded chunk failed to decode: %v", err)
		}
		if len(c2.Items) != len(c.Items) || c2.Meta.ID != c.Meta.ID {
			t.Fatal("decode/encode/decode not idempotent")
		}
	})
}

// FuzzDecompress covers the envelope path end to end: arbitrary input must
// never panic, a successful decompression must be decodable or fail cleanly,
// and raw (non-envelope) input must pass through untouched. Input that
// decodes as a raw chunk must also survive each codec: compressed, it
// decompresses back bit-identical, twice in a row, so state a pooled
// inflater carries from one use to the next shows up as a mismatch.
func FuzzDecompress(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := Decode(data); err == nil {
			for _, codec := range []Codec{CodecFlate, CodecColumnar} {
				env, _ := Compress(data, codec, 2)
				for pass := 0; pass < 2; pass++ {
					back, err := Decompress(env)
					if err != nil {
						t.Fatalf("%v pass %d: %v", codec, pass, err)
					}
					if !bytes.Equal(back, data) {
						t.Fatalf("%v pass %d: round trip is not bit-identical", codec, pass)
					}
				}
			}
		}
		raw, err := Decompress(data)
		if err != nil {
			return
		}
		if !IsCompressed(data) && !bytes.Equal(raw, data) {
			t.Fatal("raw payload mutated by Decompress")
		}
		if IsCompressed(data) && len(raw) != RawLen(data) {
			t.Fatalf("decompressed %d bytes, envelope claimed %d", len(raw), RawLen(data))
		}
		_, _ = Decode(raw) // must not panic
	})
}
