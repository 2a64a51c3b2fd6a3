package apps

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adr/internal/chunk"
)

func histApp() *HistogramApp {
	return &HistogramApp{Buckets: 10, Lo: 0, Hi: 100}
}

func TestPackUnpackBucket(t *testing.T) {
	for _, tc := range []struct {
		bucket int
		count  int64
	}{
		{0, 0}, {5, 123}, {9, 1 << 40}, {65535, 7},
	} {
		b, c := UnpackBucket(packBucket(tc.bucket, tc.count))
		if b != tc.bucket || c != tc.count {
			t.Errorf("roundtrip (%d,%d) = (%d,%d)", tc.bucket, tc.count, b, c)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := histApp()
	cases := map[int64]int{
		-5: 0, 0: 0, 5: 0, 15: 1, 95: 9, 100: 9, 1000: 9,
	}
	for v, want := range cases {
		if got := h.bucketOf(v); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestHistogramAggregateAndOutput(t *testing.T) {
	h := histApp()
	acc, err := h.Init(outMeta(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	in := inChunk(
		item(1, 1, 5),   // bucket 0
		item(2, 2, 15),  // bucket 1
		item(3, 3, 18),  // bucket 1
		item(50, 50, 5), // outside region: ignored
	)
	if err := h.Aggregate(acc, outMeta(), in); err != nil {
		t.Fatal(err)
	}
	out, err := h.Output(acc, outMeta())
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]int64{}
	for _, it := range out.Items {
		v, _ := DecodeValue(it.Value)
		b, c := UnpackBucket(v)
		got[b] = c
	}
	if got[0] != 1 || got[1] != 2 || len(got) != 2 {
		t.Errorf("histogram = %v", got)
	}
}

func TestHistogramCombineMatchesDirect(t *testing.T) {
	h := histApp()
	rng := rand.New(rand.NewSource(3))
	var itemsA, itemsB []chunk.Item
	for i := 0; i < 200; i++ {
		itemsA = append(itemsA, item(rng.Float64()*10, rng.Float64()*10, int64(rng.Intn(120)-10)))
		itemsB = append(itemsB, item(rng.Float64()*10, rng.Float64()*10, int64(rng.Intn(120)-10)))
	}
	direct, _ := h.Init(outMeta(), nil, false)
	h.Aggregate(direct, outMeta(), inChunk(itemsA...))
	h.Aggregate(direct, outMeta(), inChunk(itemsB...))

	home, _ := h.Init(outMeta(), nil, false)
	ghost, _ := h.Init(outMeta(), nil, true)
	h.Aggregate(home, outMeta(), inChunk(itemsA...))
	h.Aggregate(ghost, outMeta(), inChunk(itemsB...))
	if err := h.Combine(home, ghost, outMeta()); err != nil {
		t.Fatal(err)
	}
	d, m := direct.(*histAccum), home.(*histAccum)
	for i := range d.counts {
		if d.counts[i] != m.counts[i] {
			t.Fatalf("bucket %d: direct %d, combined %d", i, d.counts[i], m.counts[i])
		}
	}
}

func TestHistogramAccumCodec(t *testing.T) {
	h := histApp()
	acc, _ := h.Init(outMeta(), nil, false)
	h.Aggregate(acc, outMeta(), inChunk(item(1, 1, 50), item(2, 2, 77)))
	data, err := h.EncodeAccum(acc, outMeta())
	if err != nil {
		t.Fatal(err)
	}
	back, err := h.DecodeAccum(data, outMeta())
	if err != nil {
		t.Fatal(err)
	}
	a, b := acc.(*histAccum), back.(*histAccum)
	for i := range a.counts {
		if a.counts[i] != b.counts[i] {
			t.Fatalf("bucket %d mismatch", i)
		}
	}
	if _, err := h.DecodeAccum(data[:3], outMeta()); err == nil {
		t.Error("short payload should fail")
	}
	wrong := &HistogramApp{Buckets: 20, Lo: 0, Hi: 100}
	if _, err := wrong.DecodeAccum(data, outMeta()); err == nil {
		t.Error("bucket-count mismatch should fail")
	}
}

func TestHistogramInitSeeding(t *testing.T) {
	h := histApp()
	seed := &chunk.Chunk{Items: []chunk.Item{
		{Coord: outMeta().MBR.Center(), Value: EncodeValue(packBucket(3, 41))},
	}}
	acc, err := h.Init(outMeta(), seed, false)
	if err != nil {
		t.Fatal(err)
	}
	if acc.(*histAccum).counts[3] != 41 {
		t.Error("seed not applied")
	}
	ghost, err := h.Init(outMeta(), seed, true)
	if err != nil {
		t.Fatal(err)
	}
	if ghost.(*histAccum).counts[3] != 0 {
		t.Error("ghost must not seed")
	}
}

func TestHistogramValidation(t *testing.T) {
	bad := &HistogramApp{Buckets: 0}
	if _, err := bad.Init(outMeta(), nil, false); err == nil {
		t.Error("0 buckets should fail")
	}
	h := histApp()
	if err := h.Aggregate(struct{}{}, outMeta(), inChunk()); err == nil {
		t.Error("wrong accumulator type should fail")
	}
	if err := h.Combine(struct{}{}, struct{}{}, outMeta()); err == nil {
		t.Error("wrong accumulator type should fail")
	}
}

func TestQuickHistogramTotalPreserved(t *testing.T) {
	h := histApp()
	rng := rand.New(rand.NewSource(9))
	f := func() bool {
		n := rng.Intn(100)
		var items []chunk.Item
		for i := 0; i < n; i++ {
			items = append(items, item(rng.Float64()*10, rng.Float64()*10, int64(rng.Intn(200)-50)))
		}
		acc, _ := h.Init(outMeta(), nil, false)
		if err := h.Aggregate(acc, outMeta(), inChunk(items...)); err != nil {
			return false
		}
		var total int64
		for _, c := range acc.(*histAccum).counts {
			total += c
		}
		return total == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
