package chunk

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"adr/internal/space"
)

func sampleChunk() *Chunk {
	items := []Item{
		{Coord: space.Pt(1, 2), Value: []byte("alpha")},
		{Coord: space.Pt(3, -4), Value: []byte{}},
		{Coord: space.Pt(-1, 0), Value: []byte{0xff, 0x00, 0x7f}},
	}
	c := &Chunk{
		Meta: Meta{
			ID:      7,
			Dataset: "sat/ndvi",
			MBR:     ComputeMBR(items),
			Items:   int32(len(items)),
			Disk:    3,
			Node:    1,
		},
		Items: items,
	}
	return c
}

func TestComputeMBR(t *testing.T) {
	c := sampleChunk()
	want := space.R(-1, 3, -4, 2)
	if !c.Meta.MBR.Equal(want) {
		t.Errorf("MBR = %v, want %v", c.Meta.MBR, want)
	}
	if !ComputeMBR(nil).IsEmpty() {
		t.Error("MBR of no items should be empty")
	}
}

func TestValidate(t *testing.T) {
	c := sampleChunk()
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	c.Meta.Items = 99
	if err := c.Validate(); err == nil {
		t.Error("bad item count should fail validation")
	}
	c = sampleChunk()
	c.Items[0].Coord = space.Pt(100, 100)
	if err := c.Validate(); err == nil {
		t.Error("item outside MBR should fail validation")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	c := sampleChunk()
	buf := Encode(c)
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Meta.ID != c.Meta.ID || got.Meta.Dataset != c.Meta.Dataset ||
		got.Meta.Disk != c.Meta.Disk || got.Meta.Node != c.Meta.Node {
		t.Errorf("meta mismatch: %+v vs %+v", got.Meta, c.Meta)
	}
	if !got.Meta.MBR.Equal(c.Meta.MBR) {
		t.Errorf("MBR mismatch: %v vs %v", got.Meta.MBR, c.Meta.MBR)
	}
	if len(got.Items) != len(c.Items) {
		t.Fatalf("item count %d, want %d", len(got.Items), len(c.Items))
	}
	for i := range got.Items {
		if !got.Items[i].Coord.Equal(c.Items[i].Coord) {
			t.Errorf("item %d coord %v vs %v", i, got.Items[i].Coord, c.Items[i].Coord)
		}
		if !bytes.Equal(got.Items[i].Value, c.Items[i].Value) {
			t.Errorf("item %d value %v vs %v", i, got.Items[i].Value, c.Items[i].Value)
		}
	}
	if got.Meta.Bytes != int64(len(buf)) {
		t.Errorf("Bytes = %d, want %d", got.Meta.Bytes, len(buf))
	}
}

func TestCodecEmptyChunk(t *testing.T) {
	c := &Chunk{Meta: Meta{ID: 0, Dataset: "d", MBR: space.R(0, 1)}}
	got, err := Decode(Encode(c))
	if err != nil {
		t.Fatalf("Decode empty: %v", err)
	}
	if len(got.Items) != 0 || got.Meta.Dataset != "d" {
		t.Errorf("empty chunk roundtrip: %+v", got)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	good := Encode(sampleChunk())
	cases := map[string][]byte{
		"empty":       {},
		"short magic": good[:3],
		"bad magic":   append([]byte{0, 0, 0, 0}, good[4:]...),
		"bad version": func() []byte { b := append([]byte(nil), good...); b[4] = 9; return b }(),
		"bad dims":    func() []byte { b := append([]byte(nil), good...); b[5] = 200; return b }(),
		"truncated":   good[:len(good)-2],
		"half header": good[:10],
	}
	for name, buf := range cases {
		if _, err := Decode(buf); err == nil {
			t.Errorf("%s: Decode should fail", name)
		}
	}
}

func TestQuickCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func() bool {
		n := rng.Intn(20)
		dims := 1 + rng.Intn(4)
		items := make([]Item, n)
		for i := range items {
			coords := make([]float64, dims)
			for d := range coords {
				coords[d] = rng.NormFloat64() * 1000
			}
			v := make([]byte, rng.Intn(64))
			rng.Read(v)
			items[i] = Item{Coord: space.Pt(coords...), Value: v}
		}
		mbr := ComputeMBR(items)
		if n == 0 {
			b := make([]float64, 2*dims)
			mbr = space.R(b...)
		}
		c := &Chunk{
			Meta: Meta{
				ID:      ID(rng.Int31()),
				Dataset: "quick",
				MBR:     mbr,
				Items:   int32(n),
				Disk:    rng.Int31n(64),
				Node:    rng.Int31n(16),
			},
			Items: items,
		}
		got, err := Decode(Encode(c))
		if err != nil {
			return false
		}
		if got.Meta.ID != c.Meta.ID || len(got.Items) != n {
			return false
		}
		for i := range got.Items {
			if !got.Items[i].Coord.Equal(c.Items[i].Coord) ||
				!bytes.Equal(got.Items[i].Value, c.Items[i].Value) {
				return false
			}
		}
		return got.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	c := sampleChunk()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(c)
	}
}

func BenchmarkDecode(b *testing.B) {
	buf := Encode(sampleChunk())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeInto decodes a sat_scan-sized chunk (980 2-D items)
// fresh and into a recycled chunk, the local-reduction workers' path.
func BenchmarkDecodeInto(b *testing.B) {
	buf := Encode(compressibleChunk(980))
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		b.ReportAllocs()
		c := new(Chunk)
		for i := 0; i < b.N; i++ {
			if err := DecodeInto(c, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestQuickDecodeSurvivesCorruption: random byte flips must never panic and
// must either fail cleanly or yield a chunk that passes its own validation.
func TestQuickDecodeSurvivesCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	good := Encode(sampleChunk())
	f := func() bool {
		buf := append([]byte(nil), good...)
		flips := 1 + rng.Intn(8)
		for k := 0; k < flips; k++ {
			buf[rng.Intn(len(buf))] ^= byte(1 << rng.Intn(8))
		}
		// Occasionally truncate as well.
		if rng.Float64() < 0.3 {
			buf = buf[:rng.Intn(len(buf)+1)]
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on corrupt input: %v", r)
			}
		}()
		c, err := Decode(buf)
		if err != nil {
			return true // clean failure
		}
		// Decoded without error: internal consistency must hold (the
		// corruption may have hit only payload bytes).
		return int(c.Meta.Items) == len(c.Items)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestAppendToMatchesEncode: AppendTo into a prefixed or pre-sized buffer
// produces the identical encoding Encode does, appends exactly EncodedSize
// bytes, and never reallocates a buffer with enough spare capacity.
func TestAppendToMatchesEncode(t *testing.T) {
	c := sampleChunk()
	want := Encode(c)
	if len(want) != EncodedSize(c) {
		t.Fatalf("Encode produced %d bytes, EncodedSize says %d", len(want), EncodedSize(c))
	}

	prefix := []byte("prefix-")
	got := AppendTo(c, append([]byte(nil), prefix...))
	if !bytes.Equal(got[:len(prefix)], prefix) {
		t.Error("AppendTo clobbered the destination prefix")
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Error("AppendTo encoding differs from Encode")
	}

	// A recycled buffer with exact spare capacity is reused in place.
	dst := make([]byte, 0, EncodedSize(c))
	out := AppendTo(c, dst)
	if &out[0] != &dst[:1][0] {
		t.Error("AppendTo reallocated despite sufficient capacity")
	}
	if !bytes.Equal(out, want) {
		t.Error("in-place AppendTo encoding differs from Encode")
	}

	back, err := Decode(out)
	if err != nil {
		t.Fatalf("Decode(AppendTo): %v", err)
	}
	if back.Meta.ID != c.Meta.ID || len(back.Items) != len(c.Items) {
		t.Errorf("round trip lost data: %+v", back.Meta)
	}
}
