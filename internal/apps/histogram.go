package apps

import (
	"encoding/binary"
	"fmt"

	"adr/internal/chunk"
	"adr/internal/engine"
)

// HistogramApp is a second reference customization: instead of one reduced
// value per raster cell, the accumulator keeps a value histogram per output
// chunk — the kind of distributive aggregate (Gray et al.'s data cube
// functions, which §1 cites as exactly ADR's admissible class) a scientist
// runs to summarize a region before ordering a full composite.
//
// The output chunk carries one item per non-empty bucket, located at the
// output chunk's center, whose value encodes (bucket index, count) packed
// into an int64 (index in the high 16 bits).
type HistogramApp struct {
	// Buckets is the histogram resolution (max 65536).
	Buckets int
	// Lo and Hi bound the value range; values outside clamp to the end
	// buckets.
	Lo, Hi int64
}

type histAccum struct {
	counts []int64
}

// packBucket encodes a bucket index and count into an item value.
func packBucket(bucket int, count int64) int64 {
	return int64(bucket)<<48 | (count & ((1 << 48) - 1))
}

// UnpackBucket inverts packBucket. The shift is unsigned so bucket indices
// with the top bit set (>= 32768) round-trip.
func UnpackBucket(v int64) (bucket int, count int64) {
	return int(uint64(v) >> 48), v & ((1 << 48) - 1)
}

func (h *HistogramApp) bucketOf(v int64) int {
	if h.Hi <= h.Lo {
		return 0
	}
	if v <= h.Lo {
		return 0
	}
	if v >= h.Hi {
		return h.Buckets - 1
	}
	b := int(float64(v-h.Lo) / float64(h.Hi-h.Lo) * float64(h.Buckets))
	if b >= h.Buckets {
		b = h.Buckets - 1
	}
	return b
}

// Init allocates an empty histogram.
func (h *HistogramApp) Init(out chunk.Meta, existing *chunk.Chunk, ghost bool) (engine.Accumulator, error) {
	if h.Buckets < 1 || h.Buckets > 65536 {
		return nil, fmt.Errorf("apps: histogram needs 1..65536 buckets, got %d", h.Buckets)
	}
	a := &histAccum{counts: make([]int64, h.Buckets)}
	if existing != nil && !ghost {
		for _, it := range existing.Items {
			v, err := DecodeValue(it.Value)
			if err != nil {
				return nil, err
			}
			b, c := UnpackBucket(v)
			if b < 0 || b >= h.Buckets {
				return nil, fmt.Errorf("apps: existing bucket %d out of range", b)
			}
			a.counts[b] += c
		}
	}
	return a, nil
}

// Aggregate buckets every item landing in the output chunk's region.
func (h *HistogramApp) Aggregate(acc engine.Accumulator, out chunk.Meta, in *chunk.Chunk) error {
	a, ok := acc.(*histAccum)
	if !ok {
		return fmt.Errorf("apps: accumulator is %T, want *histAccum", acc)
	}
	// An item's first two coordinates locate it, read in place against
	// bounds read once; a region that is not planar holds none of them.
	m := &out.MBR
	if m.Dims != 2 {
		return nil
	}
	lo0, hi0, lo1, hi1 := m.Lo[0], m.Hi[0], m.Lo[1], m.Hi[1]
	for i := range in.Items {
		it := &in.Items[i]
		if x, y := it.Coord.Coords[0], it.Coord.Coords[1]; x < lo0 || x > hi0 || y < lo1 || y > hi1 {
			continue
		}
		if len(it.Value) != 8 {
			_, err := DecodeValue(it.Value)
			return err
		}
		a.counts[h.bucketOf(int64(binary.LittleEndian.Uint64(it.Value)))]++
	}
	return nil
}

// Combine adds bucket counts.
func (h *HistogramApp) Combine(dst, src engine.Accumulator, out chunk.Meta) error {
	d, ok1 := dst.(*histAccum)
	s, ok2 := src.(*histAccum)
	if !ok1 || !ok2 {
		return fmt.Errorf("apps: combine on %T/%T", dst, src)
	}
	if len(d.counts) != len(s.counts) {
		return fmt.Errorf("apps: combine histograms of %d and %d buckets", len(d.counts), len(s.counts))
	}
	for i := range d.counts {
		d.counts[i] += s.counts[i]
	}
	return nil
}

// Output emits one item per populated bucket at the chunk center.
func (h *HistogramApp) Output(acc engine.Accumulator, out chunk.Meta) (*chunk.Chunk, error) {
	a, ok := acc.(*histAccum)
	if !ok {
		return nil, fmt.Errorf("apps: accumulator is %T, want *histAccum", acc)
	}
	c := &chunk.Chunk{Meta: chunk.Meta{MBR: out.MBR}}
	center := out.MBR.Center()
	for b, count := range a.counts {
		if count == 0 {
			continue
		}
		c.Items = append(c.Items, chunk.Item{
			Coord: center,
			Value: EncodeValue(packBucket(b, count)),
		})
	}
	return c, nil
}

// EncodeAccum serializes bucket counts.
func (h *HistogramApp) EncodeAccum(acc engine.Accumulator, out chunk.Meta) ([]byte, error) {
	a, ok := acc.(*histAccum)
	if !ok {
		return nil, fmt.Errorf("apps: accumulator is %T, want *histAccum", acc)
	}
	buf := make([]byte, 0, 4+8*len(a.counts))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.counts)))
	for _, v := range a.counts {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf, nil
}

// DecodeAccum inverts EncodeAccum.
func (h *HistogramApp) DecodeAccum(data []byte, out chunk.Meta) (engine.Accumulator, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("apps: histogram payload too short")
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n != h.Buckets || len(data) != 4+8*n {
		return nil, fmt.Errorf("apps: histogram payload has %d buckets, want %d", n, h.Buckets)
	}
	a := &histAccum{counts: make([]int64, n)}
	for i := 0; i < n; i++ {
		a.counts[i] = int64(binary.LittleEndian.Uint64(data[4+8*i:]))
	}
	return a, nil
}

// InitRequiresOutput seeds from a stored histogram when updating in place.
func (h *HistogramApp) InitRequiresOutput() bool { return false }
