// Package apps provides reference ADR customizations: user-defined
// Initialize / Map / Aggregate / Output function sets of the kind the
// paper's motivating applications install (satellite composites, Virtual
// Microscope image assembly, water contamination grids).
//
// The central type is RasterApp: input items are (point, fixed-point value)
// pairs, each output chunk is a rectangular region subdivided into a raster
// of cells, and the aggregation reduces all input items landing in a cell
// with a commutative, associative operation — exactly the distributive /
// algebraic aggregation functions ADR admits (§1). Values are int64
// fixed-point so results are bit-exact regardless of aggregation order,
// which lets the tests compare parallel and serial executions for equality.
package apps

import (
	"encoding/binary"
	"fmt"
	"math"

	"adr/internal/chunk"
	"adr/internal/engine"
	"adr/internal/space"
)

// Op is the per-cell reduction.
type Op int

const (
	// Sum accumulates the sum of values (water contamination deposition).
	Sum Op = iota
	// Max keeps the largest value (max-NDVI satellite composites: "the
	// 'best' sensor value that maps to the associated grid point").
	Max
	// Min keeps the smallest value.
	Min
	// Count counts contributing items.
	Count
	// Mean averages values (Virtual Microscope pixel compositing: the
	// accumulator keeps a running sum, §1).
	Mean
)

// String names the op.
func (o Op) String() string {
	switch o {
	case Sum:
		return "sum"
	case Max:
		return "max"
	case Min:
		return "min"
	case Count:
		return "count"
	case Mean:
		return "mean"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// EncodeValue encodes an item's fixed-point value as a chunk item payload.
func EncodeValue(v int64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

// DecodeValue inverts EncodeValue.
func DecodeValue(b []byte) (int64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("apps: value payload has %d bytes, want 8", len(b))
	}
	return int64(binary.LittleEndian.Uint64(b)), nil
}

// RasterApp is a reference ADR customization. The zero value is not usable;
// set Op and CellsPerDim.
type RasterApp struct {
	// Op is the per-cell reduction.
	Op Op
	// CellsPerDim subdivides each output chunk's MBR into CellsPerDim x
	// CellsPerDim cells (first two dimensions).
	CellsPerDim int
	// MapPoint is the item-level user Map function: it projects an input
	// item's coordinates into the output attribute space. nil truncates to
	// the output dimensionality (the common projection).
	MapPoint func(space.Point) space.Point
	// UseExisting seeds owner accumulators from the existing output chunk,
	// for queries that update a stored dataset in place.
	UseExisting bool
}

// rasterAccum is the accumulator chunk: per-cell running sums and counts.
type rasterAccum struct {
	mbr    space.Rect
	nx, ny int
	sums   []int64
	counts []int64
}

func (a *rasterAccum) cellCenter(idx int) space.Point {
	cx, cy := idx%a.nx, idx/a.nx
	w := (a.mbr.Hi[0] - a.mbr.Lo[0]) / float64(a.nx)
	h := (a.mbr.Hi[1] - a.mbr.Lo[1]) / float64(a.ny)
	return space.Pt(a.mbr.Lo[0]+(float64(cx)+0.5)*w, a.mbr.Lo[1]+(float64(cy)+0.5)*h)
}

// apply folds one (value) observation into a cell.
func (r *RasterApp) apply(a *rasterAccum, cell int, v int64) {
	switch r.Op {
	case Sum, Mean:
		a.sums[cell] += v
	case Max:
		if a.counts[cell] == 0 || v > a.sums[cell] {
			a.sums[cell] = v
		}
	case Min:
		if a.counts[cell] == 0 || v < a.sums[cell] {
			a.sums[cell] = v
		}
	case Count:
		a.sums[cell]++
	}
	a.counts[cell]++
}

// Init allocates the accumulator raster, optionally seeded from the
// existing output chunk. Ghost replicas always start from the identity so
// the global combine never double-counts seeds.
func (r *RasterApp) Init(out chunk.Meta, existing *chunk.Chunk, ghost bool) (engine.Accumulator, error) {
	if r.CellsPerDim <= 0 {
		return nil, fmt.Errorf("apps: RasterApp.CellsPerDim must be positive")
	}
	if out.MBR.Dims < 2 {
		return nil, fmt.Errorf("apps: RasterApp needs >= 2-D output chunks, got %d-D", out.MBR.Dims)
	}
	a := &rasterAccum{
		mbr: out.MBR,
		nx:  r.CellsPerDim, ny: r.CellsPerDim,
		sums:   make([]int64, r.CellsPerDim*r.CellsPerDim),
		counts: make([]int64, r.CellsPerDim*r.CellsPerDim),
	}
	if r.UseExisting && existing != nil && !ghost {
		// Every seed value must decode, inside the raster or not.
		for _, it := range existing.Items {
			if _, err := DecodeValue(it.Value); err != nil {
				return nil, err
			}
		}
		if err := r.fold(a, existing.Items, nil); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Aggregate folds every item of the input chunk that projects into the
// output chunk's region into its cell.
func (r *RasterApp) Aggregate(acc engine.Accumulator, out chunk.Meta, in *chunk.Chunk) error {
	a, ok := acc.(*rasterAccum)
	if !ok {
		return fmt.Errorf("apps: accumulator is %T, want *rasterAccum", acc)
	}
	return r.fold(a, in.Items, r.MapPoint)
}

// fold aggregates the items that land in a's raster, in place: mapPoint,
// when set, projects each item into the output space (else its first two
// coordinates are the projection), the point must lie in a.mbr (a closed
// box of the projected point's dimensionality), and only then must its
// value decode. The raster's bounds and extents are read once; an item's
// coordinates are read where they sit, and a Point is built only for
// mapPoint.
func (r *RasterApp) fold(a *rasterAccum, items []chunk.Item, mapPoint func(space.Point) space.Point) error {
	m := &a.mbr
	w, h := m.Hi[0]-m.Lo[0], m.Hi[1]-m.Lo[1]
	if w <= 0 || h <= 0 || (mapPoint == nil && m.Dims != 2) {
		return nil // no point lands in a degenerate or non-planar raster
	}
	lo0, hi0, lo1, hi1 := m.Lo[0], m.Hi[0], m.Lo[1], m.Hi[1]
	fnx, fny := float64(a.nx), float64(a.ny)
	for i := range items {
		it := &items[i]
		x, y := it.Coord.Coords[0], it.Coord.Coords[1]
		if mapPoint != nil {
			p := mapPoint(it.Coord)
			if !m.Contains(p) {
				continue
			}
			x, y = p.Coords[0], p.Coords[1]
		} else if x < lo0 || x > hi0 || y < lo1 || y > hi1 {
			continue
		}
		if len(it.Value) != 8 {
			_, err := DecodeValue(it.Value)
			return err
		}
		cx := int((x - lo0) / w * fnx)
		cy := int((y - lo1) / h * fny)
		if cx >= a.nx {
			cx = a.nx - 1
		}
		if cy >= a.ny {
			cy = a.ny - 1
		}
		r.apply(a, cy*a.nx+cx, int64(binary.LittleEndian.Uint64(it.Value)))
	}
	return nil
}

// Combine merges a ghost raster into the home raster cell-wise.
func (r *RasterApp) Combine(dst, src engine.Accumulator, out chunk.Meta) error {
	d, ok1 := dst.(*rasterAccum)
	s, ok2 := src.(*rasterAccum)
	if !ok1 || !ok2 {
		return fmt.Errorf("apps: combine on %T/%T", dst, src)
	}
	if d.nx != s.nx || d.ny != s.ny {
		return fmt.Errorf("apps: combine a %dx%d raster into a %dx%d one", s.nx, s.ny, d.nx, d.ny)
	}
	for c := range d.sums {
		if s.counts[c] == 0 {
			continue
		}
		switch r.Op {
		case Sum, Mean, Count:
			d.sums[c] += s.sums[c]
		case Max:
			if d.counts[c] == 0 || s.sums[c] > d.sums[c] {
				d.sums[c] = s.sums[c]
			}
		case Min:
			if d.counts[c] == 0 || s.sums[c] < d.sums[c] {
				d.sums[c] = s.sums[c]
			}
		}
		d.counts[c] += s.counts[c]
	}
	return nil
}

// Output emits one item per populated cell: the cell's center coordinate
// and its reduced value. It sizes the chunk exactly: one Items slice and one
// value slab that every item's 8-byte value slices, whatever the number of
// populated cells.
func (r *RasterApp) Output(acc engine.Accumulator, out chunk.Meta) (*chunk.Chunk, error) {
	a, ok := acc.(*rasterAccum)
	if !ok {
		return nil, fmt.Errorf("apps: accumulator is %T, want *rasterAccum", acc)
	}
	c := &chunk.Chunk{Meta: chunk.Meta{MBR: out.MBR}}
	n := 0
	for _, k := range a.counts {
		if k != 0 {
			n++
		}
	}
	if n == 0 {
		return c, nil
	}
	c.Items = make([]chunk.Item, 0, n)
	vals := make([]byte, 8*n)
	for cell, k := range a.counts {
		if k == 0 {
			continue
		}
		v := a.sums[cell]
		switch r.Op {
		case Mean:
			v = a.sums[cell] / k
		case Count:
			v = k
		}
		val := vals[:8:8]
		vals = vals[8:]
		binary.LittleEndian.PutUint64(val, uint64(v))
		c.Items = append(c.Items, chunk.Item{Coord: a.cellCenter(cell), Value: val})
	}
	return c, nil
}

// EncodeAccum serializes the raster for ghost transfer: nx, ny, then sums
// and counts (varint-free fixed width keeps this allocation-cheap).
func (r *RasterApp) EncodeAccum(acc engine.Accumulator, out chunk.Meta) ([]byte, error) {
	a, ok := acc.(*rasterAccum)
	if !ok {
		return nil, fmt.Errorf("apps: accumulator is %T, want *rasterAccum", acc)
	}
	buf := make([]byte, 0, 8+16*len(a.sums))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(a.nx))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(a.ny))
	for _, v := range a.sums {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	for _, v := range a.counts {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf, nil
}

// DecodeAccum inverts EncodeAccum.
func (r *RasterApp) DecodeAccum(data []byte, out chunk.Meta) (engine.Accumulator, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("apps: accumulator payload too short")
	}
	nx := int(binary.LittleEndian.Uint32(data[0:]))
	ny := int(binary.LittleEndian.Uint32(data[4:]))
	if nx <= 0 || ny <= 0 || nx > 1<<20 || ny > 1<<20 {
		return nil, fmt.Errorf("apps: bad raster dims %dx%d", nx, ny)
	}
	if nx != r.CellsPerDim || ny != r.CellsPerDim {
		return nil, fmt.Errorf("apps: accumulator raster is %dx%d cells, RasterApp.CellsPerDim is %d", nx, ny, r.CellsPerDim)
	}
	n := nx * ny
	if len(data) != 8+16*n {
		return nil, fmt.Errorf("apps: accumulator payload %d bytes, want %d", len(data), 8+16*n)
	}
	a := &rasterAccum{
		mbr: out.MBR,
		nx:  nx, ny: ny,
		sums:   make([]int64, n),
		counts: make([]int64, n),
	}
	off := 8
	for i := 0; i < n; i++ {
		a.sums[i] = int64(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	for i := 0; i < n; i++ {
		a.counts[i] = int64(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	return a, nil
}

// InitRequiresOutput reports whether existing output chunks seed Init.
func (r *RasterApp) InitRequiresOutput() bool { return r.UseExisting }

// FixedPoint converts a float sample to the app's fixed-point value space
// (6 decimal digits).
func FixedPoint(f float64) int64 { return int64(math.Round(f * 1e6)) }

// FromFixedPoint inverts FixedPoint.
func FromFixedPoint(v int64) float64 { return float64(v) / 1e6 }
