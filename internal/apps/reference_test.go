package apps

import (
	"encoding/binary"
	"fmt"
	"testing"

	"adr/internal/chunk"
	"adr/internal/engine"
	"adr/internal/space"
)

// The row loops below are RasterApp's and HistogramApp's aggregation as they
// stood before the loops were made copy-free: a Point copied per item,
// projected through space.Pt and tested with Rect.Contains by value. They
// are kept as the reference the in-place loops must match bit for bit.

func refCellAt(a *rasterAccum, p space.Point) (int, bool) {
	if !a.mbr.Contains(p) {
		return 0, false
	}
	w := a.mbr.Hi[0] - a.mbr.Lo[0]
	h := a.mbr.Hi[1] - a.mbr.Lo[1]
	if w <= 0 || h <= 0 {
		return 0, false
	}
	cx := int((p.Coords[0] - a.mbr.Lo[0]) / w * float64(a.nx))
	cy := int((p.Coords[1] - a.mbr.Lo[1]) / h * float64(a.ny))
	if cx >= a.nx {
		cx = a.nx - 1
	}
	if cy >= a.ny {
		cy = a.ny - 1
	}
	return cy*a.nx + cx, true
}

// refRasterCombine is RasterApp's Combine as it stood before ghosts
// travelled as runs: a dense ghost folded cell by cell, every cell with a
// nonzero count taking part.
func refRasterCombine(op Op, d, s *rasterAccum) {
	for c := range d.sums {
		if s.counts[c] == 0 {
			continue
		}
		switch op {
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
}

func refProjectTo2D(p space.Point) space.Point {
	return space.Pt(p.Coords[0], p.Coords[1])
}

func refRasterAggregate(r *RasterApp, acc engine.Accumulator, in *chunk.Chunk) error {
	a := acc.(*rasterAccum)
	for _, it := range in.Items {
		p := it.Coord
		if r.MapPoint != nil {
			p = r.MapPoint(p)
		} else {
			p = refProjectTo2D(p)
		}
		cell, ok := refCellAt(a, p)
		if !ok {
			continue
		}
		v, err := DecodeValue(it.Value)
		if err != nil {
			return err
		}
		r.apply(a, cell, v)
	}
	return nil
}

// refRasterInit is RasterApp.Init's seeding loop: every value must decode,
// and the existing items project by truncation whatever MapPoint says.
func refRasterInit(r *RasterApp, out chunk.Meta, existing *chunk.Chunk) (engine.Accumulator, error) {
	acc, err := (&RasterApp{Op: r.Op, CellsPerDim: r.CellsPerDim}).Init(out, nil, false)
	if err != nil {
		return nil, err
	}
	a := acc.(*rasterAccum)
	for _, it := range existing.Items {
		v, err := DecodeValue(it.Value)
		if err != nil {
			return nil, err
		}
		if cell, ok := refCellAt(a, refProjectTo2D(it.Coord)); ok {
			r.apply(a, cell, v)
		}
	}
	return a, nil
}

func refHistogramAggregate(h *HistogramApp, acc engine.Accumulator, out chunk.Meta, in *chunk.Chunk) error {
	a := acc.(*histAccum)
	for _, it := range in.Items {
		p := space.Pt(it.Coord.Coords[0], it.Coord.Coords[1])
		if !out.MBR.Contains(p) {
			continue
		}
		v, err := DecodeValue(it.Value)
		if err != nil {
			return err
		}
		a.counts[h.bucketOf(v)]++
	}
	return nil
}

// fuzzCase is one aggregation problem decoded from fuzz input. Coordinates
// and bounds are quarter-unit steps of small integers, so points land on
// the box's Lo and Hi, inside, and outside, and widths of 0 come up often;
// half the widths are thirds, so the cell arithmetic rounds.
type fuzzCase struct {
	op    Op
	cells int
	out   chunk.Meta
	in    *chunk.Chunk
	mapPt func(space.Point) space.Point
}

// MapPoint variants a fuzz case picks from: none (truncate to 2-D), a 2-D
// affine map, and a 3-D lift.
var fuzzMaps = []func(space.Point) space.Point{
	nil,
	func(p space.Point) space.Point { return space.Pt(p.Coords[0]/2+1, p.Coords[1]-0.5) },
	func(p space.Point) space.Point { return space.Pt(p.Coords[0], p.Coords[1], p.Coords[0]-p.Coords[1]) },
}

// Raster widths a fuzz case picks from.
var fuzzCells = [8]int{1, 2, 3, 4, 8, 15, 30, 60}

func quarter(b byte) float64 { return float64(int8(b)) / 4 }

// decodeFuzzCase reads the case from shape and data: shape picks the op,
// the raster width, the out-MBR's dimensionality (2 or 3), the input
// dimensionality (1–3) and the MapPoint variant; data's first six bytes
// are the out-MBR (lo and width per dimension, width 0 allowed), and each
// following group of four bytes is an item (three coordinates and a value
// selector whose low bits sometimes give a payload that is not 8 bytes).
func decodeFuzzCase(shape uint16, data []byte) fuzzCase {
	fc := fuzzCase{
		op:    Op(shape % 6), // five ops, plus one unknown to the switch
		cells: fuzzCells[shape/6%8],
		mapPt: fuzzMaps[shape/48%3],
	}
	outDims := 2 + int(shape/144%2)
	inDims := 1 + int(shape/288%3)
	var box [6]byte
	copy(box[:], data)
	data = data[min(len(data), 6):]
	fc.out.MBR.Dims = outDims
	for d := 0; d < outDims; d++ {
		lo, width := quarter(box[2*d]), float64(box[2*d+1]%64)
		if width >= 32 {
			width -= 32
			width /= 3 // a width no binary fraction hits, so cells round
		} else {
			width /= 4
		}
		fc.out.MBR.Lo[d], fc.out.MBR.Hi[d] = lo, lo+width
	}
	fc.in = &chunk.Chunk{}
	for ; len(data) >= 4; data = data[4:] {
		var p space.Point
		p.Dims = inDims
		for d := 0; d < inDims; d++ {
			p.Coords[d] = quarter(data[d])
		}
		v := EncodeValue(int64(int8(data[3])) * 1_000_003)
		if data[3]%29 == 0 {
			v = v[:data[3]%8] // a payload DecodeValue rejects
		}
		fc.in.Items = append(fc.in.Items, chunk.Item{Coord: p, Value: v})
	}
	return fc
}

func fuzzRasterSeeds(f *testing.F) {
	// shape = op + 6*cells index + 48*map + 144*(outDims-2) + 288*(inDims-1)
	on := []byte{0, 30, 0, 30, 0, 30} // box [0, 7.5] x [0, 7.5] x [0, 7.5]
	pts := []byte{
		0, 0, 0, 1, // on Lo
		30, 30, 30, 2, // on Hi
		20, 4, 8, 3,
		31, 20, 0, 4, // just outside
		252, 20, 0, 5,
		8, 8, 8, 58, // bad-length value, inside
		200, 8, 8, 87, // bad-length value, outside
	}
	for shape := uint16(0); shape < 864; shape += 7 {
		f.Add(shape, append(append([]byte(nil), on...), pts...))
	}
	f.Add(uint16(3), []byte{0, 0, 0, 30, 0, 0, 0, 4, 0, 1}) // zero width
	// 4 cells over a width of 17/3: 4.25 from Lo is cell 3, where computing
	// the scale first, (x-lo) * (4/w), truncates to cell 2.
	f.Add(uint16(18+288), []byte{0, 49, 0, 49, 0, 49, 17, 17, 0, 1})
	f.Add(uint16(1+288+144), []byte{4, 20, 4, 20, 4, 20, 8, 8, 8, 29}) // 3-D out, 2-D in
}

func accumState(acc engine.Accumulator) string {
	if acc == nil {
		return "<nil>"
	}
	a := acc.(*rasterAccum)
	return fmt.Sprintf("%dx%d %v %v", a.nx, a.ny, a.sums, a.counts)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzRasterAggregate holds RasterApp's in-place aggregation (Aggregate,
// and Init's seeding from an existing chunk) to the reference row loop:
// for any op, raster width, box (zero-width, 3-D), input dimensionality
// and MapPoint, the two give the same error and bit-identical sums and
// counts, aggregating the chunk twice so Max and Min meet filled cells.
func FuzzRasterAggregate(f *testing.F) {
	fuzzRasterSeeds(f)
	f.Fuzz(func(t *testing.T, shape uint16, data []byte) {
		fc := decodeFuzzCase(shape, data)
		app := &RasterApp{Op: fc.op, CellsPerDim: fc.cells, MapPoint: fc.mapPt}
		got, err := app.Init(fc.out, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := app.Init(fc.out, nil, false)
		for pass := 0; pass < 2; pass++ {
			gotErr := app.Aggregate(got, fc.out, fc.in)
			wantErr := refRasterAggregate(app, want, fc.in)
			if errText(gotErr) != errText(wantErr) {
				t.Fatalf("pass %d: Aggregate error %q, reference %q", pass, errText(gotErr), errText(wantErr))
			}
			if g, w := accumState(got), accumState(want); g != w {
				t.Fatalf("pass %d: Aggregate gave\n%s\nreference\n%s", pass, g, w)
			}
		}

		seeder := &RasterApp{Op: fc.op, CellsPerDim: fc.cells, MapPoint: fc.mapPt, UseExisting: true}
		gotSeed, gotErr := seeder.Init(fc.out, fc.in, false)
		wantSeed, wantErr := refRasterInit(seeder, fc.out, fc.in)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("Init error %q, reference %q", errText(gotErr), errText(wantErr))
		}
		if gotErr == nil {
			if g, w := accumState(gotSeed), accumState(wantSeed); g != w {
				t.Fatalf("Init seeded\n%s\nreference\n%s", g, w)
			}
		}
	})
}

// FuzzHistogramAggregate holds HistogramApp's in-place loop to the
// reference on the same generated cases: same error, same bucket counts.
func FuzzHistogramAggregate(f *testing.F) {
	fuzzRasterSeeds(f)
	f.Fuzz(func(t *testing.T, shape uint16, data []byte) {
		fc := decodeFuzzCase(shape, data)
		h := &HistogramApp{Buckets: 1 + int(shape%13), Lo: -100_000_000, Hi: 100_000_000}
		got, _ := h.Init(fc.out, nil, false)
		want, _ := h.Init(fc.out, nil, false)
		gotErr := h.Aggregate(got, fc.out, fc.in)
		wantErr := refHistogramAggregate(h, want, fc.out, fc.in)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("Aggregate error %q, reference %q", errText(gotErr), errText(wantErr))
		}
		if g, w := fmt.Sprint(got.(*histAccum).counts), fmt.Sprint(want.(*histAccum).counts); g != w {
			t.Fatalf("Aggregate gave %s, reference %s", g, w)
		}
	})
}

// TestAggregateValueErrorOnlyInside pins the error rule both loops share: a
// value that is not 8 bytes fails the call only when its item lands in the
// box.
func TestAggregateValueErrorOnlyInside(t *testing.T) {
	bad := func(x, y float64) chunk.Item { return chunk.Item{Coord: space.Pt(x, y), Value: []byte{1, 2, 3}} }
	app := &RasterApp{Op: Sum, CellsPerDim: 2}
	h := histApp()
	for _, tc := range []struct {
		it      chunk.Item
		wantErr bool
	}{
		{bad(50, 50), false},
		{bad(10.25, 5), false},
		{bad(10, 10), true}, // on Hi
		{bad(0, 0), true},   // on Lo
	} {
		acc, _ := app.Init(outMeta(), nil, false)
		if err := app.Aggregate(acc, outMeta(), inChunk(tc.it, item(1, 1, 5))); (err != nil) != tc.wantErr {
			t.Errorf("raster, item at %v: err = %v, want error %v", tc.it.Coord, err, tc.wantErr)
		}
		hacc, _ := h.Init(outMeta(), nil, false)
		if err := h.Aggregate(hacc, outMeta(), inChunk(tc.it, item(1, 1, 5))); (err != nil) != tc.wantErr {
			t.Errorf("histogram, item at %v: err = %v, want error %v", tc.it.Coord, err, tc.wantErr)
		}
	}
}

// BenchmarkRasterAggregate times the aggregation loop per item on a
// sat_scan-shaped chunk (about 1 000 2-D items, a tenth of them in the
// box); BenchmarkRasterAggregateReference times the reference row loop on
// the same input.
func BenchmarkRasterAggregate(b *testing.B) {
	benchAggregate(b, func(app *RasterApp, acc engine.Accumulator, in *chunk.Chunk) error {
		return app.Aggregate(acc, outMeta(), in)
	})
}

func BenchmarkRasterAggregateReference(b *testing.B) {
	benchAggregate(b, refRasterAggregate)
}

func benchAggregate(b *testing.B, agg func(*RasterApp, engine.Accumulator, *chunk.Chunk) error) {
	in := &chunk.Chunk{}
	vals := make([]byte, 8*1000)
	for i := 0; i < 1000; i++ {
		binary.LittleEndian.PutUint64(vals[8*i:], uint64(i))
		x, y := float64(i%40)*0.8, float64(i/40)*1.25
		in.Items = append(in.Items, chunk.Item{Coord: space.Pt(x, y), Value: vals[8*i : 8*i+8]})
	}
	app := &RasterApp{Op: Max, CellsPerDim: 64}
	acc, _ := app.Init(outMeta(), nil, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := agg(app, acc, in); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(in.Items)), "ns/item")
}
