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
	"adr/internal/rpc"
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
	// CellsPerDim cells (first two dimensions): at most 2 047, the largest
	// raster whose ghosts fit in one mesh frame (CheckCellsPerDim).
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
	if err := CheckCellsPerDim(r.CellsPerDim); err != nil {
		return nil, err
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

// Combine merges a ghost raster into the home raster: src is a decoded
// ghost (DecodeAccum's runs) or a dense raster, which is folded through
// its wire form. Only populated cells (count != 0) take part, so Max and
// Min never compare against an empty cell's 0.
func (r *RasterApp) Combine(dst, src engine.Accumulator, out chunk.Meta) error {
	d, ok := dst.(*rasterAccum)
	var g *rasterRuns
	switch s := src.(type) {
	case *rasterRuns:
		g = s
	case *rasterAccum:
		data, _ := r.EncodeAccum(s, out) // cannot fail on a *rasterAccum
		g = &rasterRuns{nx: s.nx, ny: s.ny, body: data[8:]}
	}
	if !ok || g == nil {
		return fmt.Errorf("apps: combine on %T/%T", dst, src)
	}
	if d.nx != g.nx || d.ny != g.ny {
		return fmt.Errorf("apps: combine a %dx%d raster into a %dx%d one", g.nx, g.ny, d.nx, d.ny)
	}
	return eachRun(g.body, d.nx*d.ny, func(start int, sums, counts []byte) error {
		r.foldRun(d, start, sums, counts)
		return nil
	})
}

// foldRun combines one run of populated ghost cells, the first of them
// cell start, into d; sums and counts are the run's wire bytes.
func (r *RasterApp) foldRun(d *rasterAccum, start int, sums, counts []byte) {
	k := len(sums) / 8
	ds, dc := d.sums[start:start+k], d.counts[start:start+k]
	switch r.Op {
	case Sum, Mean, Count:
		for i := range ds {
			ds[i] += int64(binary.LittleEndian.Uint64(sums[8*i:]))
		}
	case Max:
		for i := range ds {
			if v := int64(binary.LittleEndian.Uint64(sums[8*i:])); dc[i] == 0 || v > ds[i] {
				ds[i] = v
			}
		}
	case Min:
		for i := range ds {
			if v := int64(binary.LittleEndian.Uint64(sums[8*i:])); dc[i] == 0 || v < ds[i] {
				ds[i] = v
			}
		}
	}
	for i := range dc {
		dc[i] += int64(binary.LittleEndian.Uint64(counts[8*i:]))
	}
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

// rasterRuns is a decoded ghost raster: only its populated cells, as the
// validated runs of EncodeAccum's wire form after nx and ny, copied out of
// the payload.
type rasterRuns struct {
	nx, ny int
	body   []byte
}

// nextRun returns the first maximal run [start, end) of populated cells
// (count != 0) at or after cell from; start == end == len(counts) when
// none is left.
func nextRun(counts []int64, from int) (start, end int) {
	start = from
	for start < len(counts) && counts[start] == 0 {
		start++
	}
	end = start
	for end < len(counts) && counts[end] != 0 {
		end++
	}
	return start, end
}

// uvarintLen is the length of x's minimal uvarint encoding.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// MaxAccumBytes is the largest EncodeAccum payload of a raster with
// cellsPerDim (>= 1) cells per dimension: a fully populated raster, which
// is one run. Any other raster of that size encodes shorter: a gap of s
// cells saves 16·s bytes and costs at most one more run header, a skip
// varint of at most s bytes and a length varint of at most 8 (below 1<<28
// cells per dimension). Past that it saturates at math.MaxInt64.
func MaxAccumBytes(cellsPerDim int) int64 {
	if cellsPerDim > 1<<28 {
		return math.MaxInt64
	}
	n := int64(cellsPerDim) * int64(cellsPerDim)
	return 8 + int64(uvarintLen(0)+uvarintLen(uint64(n))) + 16*n
}

// maxCellsPerDim is the largest raster whose worst-case ghost accumulator
// fits in one mesh frame: 2 047 cells per dimension.
var maxCellsPerDim = func() int {
	c := int(math.Sqrt(rpc.MaxFrameBytes / 16))
	for MaxAccumBytes(c) > rpc.MaxFrameBytes {
		c--
	}
	return c
}()

// CheckCellsPerDim refuses a raster RasterApp cannot run: a non-positive
// number of cells per dimension, or one whose fully populated ghost
// accumulator (MaxAccumBytes) would not fit in one mesh frame, so its
// ghosts could not be shipped.
func CheckCellsPerDim(cells int) error {
	if cells <= 0 {
		return fmt.Errorf("apps: RasterApp.CellsPerDim must be positive")
	}
	if cells > maxCellsPerDim {
		return fmt.Errorf("apps: %d cells per dimension over the limit %d: a full raster's ghost accumulator would not fit in one %d-byte mesh frame",
			cells, maxCellsPerDim, rpc.MaxFrameBytes)
	}
	return nil
}

// EncodeAccum serializes the raster for ghost transfer as what it holds:
// nx and ny (uint32 each), then, for each maximal run of populated cells,
// the number of cells skipped since the previous run (uvarint), the run's
// length (uvarint), its sums and its counts (int64 each). An untouched
// raster is the 8-byte header alone; a fully populated one is a single run
// of MaxAccumBytes. The buffer is sized exactly by one counting pass.
func (r *RasterApp) EncodeAccum(acc engine.Accumulator, out chunk.Meta) ([]byte, error) {
	a, ok := acc.(*rasterAccum)
	if !ok {
		return nil, fmt.Errorf("apps: accumulator is %T, want *rasterAccum", acc)
	}
	size, prev := 8, 0
	for s, e := nextRun(a.counts, 0); s < e; s, e = nextRun(a.counts, e) {
		size += uvarintLen(uint64(s-prev)) + uvarintLen(uint64(e-s)) + 16*(e-s)
		prev = e
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(a.nx))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(a.ny))
	prev = 0
	for s, e := nextRun(a.counts, 0); s < e; s, e = nextRun(a.counts, e) {
		buf = binary.AppendUvarint(buf, uint64(s-prev))
		buf = binary.AppendUvarint(buf, uint64(e-s))
		for _, v := range a.sums[s:e] {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		for _, v := range a.counts[s:e] {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		prev = e
	}
	return buf, nil
}

// eachRun walks body, the runs of an encoded n-cell raster (EncodeAccum's
// form after nx and ny), and calls fn with each run's first cell and the
// bytes of its sums and counts. It refuses what EncodeAccum cannot write: a
// non-minimal varint, a run that is empty, overruns the raster or the
// body, or starts where the previous run ended (runs are maximal, so a gap
// of at least one cell lies between them, and no run can overlap another).
func eachRun(body []byte, n int, fn func(start int, sums, counts []byte) error) error {
	end := 0
	for len(body) > 0 {
		skip, k1 := binary.Uvarint(body)
		if k1 <= 0 || k1 != uvarintLen(skip) {
			return fmt.Errorf("apps: accumulator run after cell %d: bad skip varint", end)
		}
		length, k2 := binary.Uvarint(body[k1:])
		if k2 <= 0 || k2 != uvarintLen(length) {
			return fmt.Errorf("apps: accumulator run after cell %d: bad length varint", end)
		}
		body = body[k1+k2:]
		switch {
		case skip == 0 && end > 0:
			return fmt.Errorf("apps: accumulator run at cell %d touches the previous run", end)
		case length == 0:
			return fmt.Errorf("apps: empty accumulator run after cell %d", end)
		case skip > uint64(n-end) || length > uint64(n-end)-skip:
			return fmt.Errorf("apps: accumulator run of %d cells, %d after cell %d, overruns the %d-cell raster", length, skip, end, n)
		case length > uint64(len(body))/16:
			return fmt.Errorf("apps: accumulator run of %d cells truncated at %d bytes", length, len(body))
		}
		start := end + int(skip)
		end = start + int(length)
		k := 8 * int(length)
		if err := fn(start, body[:k], body[k:2*k]); err != nil {
			return err
		}
		body = body[2*k:]
	}
	return nil
}

// DecodeAccum inverts EncodeAccum into a compact ghost (rasterRuns) that
// holds the populated cells only, for Combine to fold; nothing the size of
// the raster is allocated. A payload EncodeAccum could not have written
// for this app is refused by error: a shape other than CellsPerDim x
// CellsPerDim, any run eachRun refuses, or a run cell whose count is 0.
func (r *RasterApp) DecodeAccum(data []byte, out chunk.Meta) (engine.Accumulator, error) {
	if err := CheckCellsPerDim(r.CellsPerDim); err != nil {
		return nil, err
	}
	if len(data) < 8 {
		return nil, fmt.Errorf("apps: accumulator payload too short")
	}
	nx := int(binary.LittleEndian.Uint32(data[0:]))
	ny := int(binary.LittleEndian.Uint32(data[4:]))
	if nx != r.CellsPerDim || ny != r.CellsPerDim {
		return nil, fmt.Errorf("apps: accumulator raster is %dx%d cells, RasterApp.CellsPerDim is %d", nx, ny, r.CellsPerDim)
	}
	body := data[8:]
	if err := eachRun(body, nx*ny, func(start int, _, counts []byte) error {
		for i := 0; i < len(counts); i += 8 {
			if binary.LittleEndian.Uint64(counts[i:]) == 0 {
				return fmt.Errorf("apps: accumulator run holds empty cell %d", start+i/8)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return &rasterRuns{nx: nx, ny: ny, body: append([]byte(nil), body...)}, nil
}

// InitRequiresOutput reports whether existing output chunks seed Init.
func (r *RasterApp) InitRequiresOutput() bool { return r.UseExisting }

// FixedPoint converts a float sample to the app's fixed-point value space
// (6 decimal digits).
func FixedPoint(f float64) int64 { return int64(math.Round(f * 1e6)) }

// FromFixedPoint inverts FixedPoint.
func FromFixedPoint(v int64) float64 { return float64(v) / 1e6 }
