package apps

import (
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"adr/internal/chunk"
	"adr/internal/space"
)

func outMeta() chunk.Meta {
	return chunk.Meta{ID: 0, MBR: space.R(0, 10, 0, 10)}
}

func inChunk(items ...chunk.Item) *chunk.Chunk {
	return &chunk.Chunk{Meta: chunk.Meta{MBR: chunk.ComputeMBR(items)}, Items: items}
}

func item(x, y float64, v int64) chunk.Item {
	return chunk.Item{Coord: space.Pt(x, y), Value: EncodeValue(v)}
}

func TestValueCodec(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 1 << 60, -(1 << 60)} {
		got, err := DecodeValue(EncodeValue(v))
		if err != nil || got != v {
			t.Errorf("roundtrip %d = %d, %v", v, got, err)
		}
	}
	if _, err := DecodeValue([]byte{1, 2}); err == nil {
		t.Error("short payload should fail")
	}
}

func TestFixedPoint(t *testing.T) {
	if FixedPoint(1.5) != 1500000 {
		t.Errorf("FixedPoint(1.5) = %d", FixedPoint(1.5))
	}
	if FromFixedPoint(FixedPoint(-3.25)) != -3.25 {
		t.Error("fixed point roundtrip failed")
	}
}

func TestOpString(t *testing.T) {
	for _, op := range []Op{Sum, Max, Min, Count, Mean} {
		if op.String() == "" {
			t.Errorf("op %d unnamed", int(op))
		}
	}
}

func runOp(t *testing.T, op Op, items ...chunk.Item) map[[2]float64]int64 {
	t.Helper()
	app := &RasterApp{Op: op, CellsPerDim: 2}
	acc, err := app.Init(outMeta(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Aggregate(acc, outMeta(), inChunk(items...)); err != nil {
		t.Fatal(err)
	}
	out, err := app.Output(acc, outMeta())
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[[2]float64]int64)
	for _, it := range out.Items {
		v, err := DecodeValue(it.Value)
		if err != nil {
			t.Fatal(err)
		}
		got[[2]float64{it.Coord.Coords[0], it.Coord.Coords[1]}] = v
	}
	return got
}

func TestSumOp(t *testing.T) {
	got := runOp(t, Sum, item(1, 1, 5), item(2, 2, 7), item(8, 8, 100))
	// Cells are 5x5; centers at 2.5 and 7.5.
	if got[[2]float64{2.5, 2.5}] != 12 {
		t.Errorf("lower-left sum = %d, want 12", got[[2]float64{2.5, 2.5}])
	}
	if got[[2]float64{7.5, 7.5}] != 100 {
		t.Errorf("upper-right sum = %d", got[[2]float64{7.5, 7.5}])
	}
	if len(got) != 2 {
		t.Errorf("emitted %d cells, want 2 (empty cells omitted)", len(got))
	}
}

func TestMaxMinOps(t *testing.T) {
	gotMax := runOp(t, Max, item(1, 1, -5), item(2, 2, -7))
	if gotMax[[2]float64{2.5, 2.5}] != -5 {
		t.Errorf("max = %d, want -5", gotMax[[2]float64{2.5, 2.5}])
	}
	gotMin := runOp(t, Min, item(1, 1, -5), item(2, 2, -7))
	if gotMin[[2]float64{2.5, 2.5}] != -7 {
		t.Errorf("min = %d, want -7", gotMin[[2]float64{2.5, 2.5}])
	}
}

func TestCountMeanOps(t *testing.T) {
	gotCount := runOp(t, Count, item(1, 1, 10), item(2, 2, 20), item(3, 3, 30))
	if gotCount[[2]float64{2.5, 2.5}] != 3 {
		t.Errorf("count = %d", gotCount[[2]float64{2.5, 2.5}])
	}
	gotMean := runOp(t, Mean, item(1, 1, 10), item(2, 2, 20))
	if gotMean[[2]float64{2.5, 2.5}] != 15 {
		t.Errorf("mean = %d", gotMean[[2]float64{2.5, 2.5}])
	}
}

func TestItemsOutsideRegionIgnored(t *testing.T) {
	got := runOp(t, Sum, item(1, 1, 5), item(50, 50, 999))
	if len(got) != 1 {
		t.Errorf("out-of-region item leaked: %v", got)
	}
}

func TestMapPointProjects(t *testing.T) {
	app := &RasterApp{Op: Sum, CellsPerDim: 2, MapPoint: func(p space.Point) space.Point {
		// 3-D sensor reading (x, y, time) projected to 2-D.
		return space.Pt(p.Coords[0], p.Coords[1])
	}}
	acc, _ := app.Init(outMeta(), nil, false)
	in := &chunk.Chunk{Items: []chunk.Item{
		{Coord: space.Pt(1, 1, 99), Value: EncodeValue(4)},
	}}
	in.Meta.MBR = space.R(1, 1, 1, 1, 99, 99)
	if err := app.Aggregate(acc, outMeta(), in); err != nil {
		t.Fatal(err)
	}
	out, _ := app.Output(acc, outMeta())
	if len(out.Items) != 1 {
		t.Fatalf("projection dropped item")
	}
	v, _ := DecodeValue(out.Items[0].Value)
	if v != 4 {
		t.Errorf("value = %d", v)
	}
}

func TestAccumCodecRoundTrip(t *testing.T) {
	app := &RasterApp{Op: Sum, CellsPerDim: 4}
	acc, _ := app.Init(outMeta(), nil, true)
	app.Aggregate(acc, outMeta(), inChunk(item(1, 1, 7), item(9, 9, -3)))
	data, err := app.EncodeAccum(acc, outMeta())
	if err != nil {
		t.Fatal(err)
	}
	// Two populated cells of 16, two one-cell runs: 8 + 2·(2 + 16) bytes.
	if len(data) != 44 {
		t.Errorf("two populated cells encode to %d bytes, want 44", len(data))
	}
	back, err := app.DecodeAccum(data, outMeta())
	if err != nil {
		t.Fatal(err)
	}
	home, _ := app.Init(outMeta(), nil, false)
	if err := app.Combine(home, back, outMeta()); err != nil {
		t.Fatal(err)
	}
	a, b := acc.(*rasterAccum), home.(*rasterAccum)
	for i := range a.sums {
		if a.sums[i] != b.sums[i] || a.counts[i] != b.counts[i] {
			t.Fatalf("cell %d mismatch", i)
		}
	}
	if _, err := app.DecodeAccum(data[:5], outMeta()); err == nil {
		t.Error("truncated accum should fail")
	}
	if _, err := app.DecodeAccum(append([]byte(nil), data[:len(data)-8]...), outMeta()); err == nil {
		t.Error("short accum should fail")
	}
}

func TestCombineEquivalentToDirectAggregation(t *testing.T) {
	// Aggregating A then B into one accumulator must equal aggregating A
	// and B into separate replicas and combining — for every op. This is
	// the algebraic property the FRA/SRA global combine relies on.
	rng := rand.New(rand.NewSource(14))
	for _, op := range []Op{Sum, Max, Min, Count, Mean} {
		app := &RasterApp{Op: op, CellsPerDim: 4}
		var itemsA, itemsB []chunk.Item
		for i := 0; i < 50; i++ {
			itemsA = append(itemsA, item(rng.Float64()*10, rng.Float64()*10, int64(rng.Intn(100)-50)))
			itemsB = append(itemsB, item(rng.Float64()*10, rng.Float64()*10, int64(rng.Intn(100)-50)))
		}
		direct, _ := app.Init(outMeta(), nil, false)
		app.Aggregate(direct, outMeta(), inChunk(itemsA...))
		app.Aggregate(direct, outMeta(), inChunk(itemsB...))

		home, _ := app.Init(outMeta(), nil, false)
		ghost, _ := app.Init(outMeta(), nil, true)
		app.Aggregate(home, outMeta(), inChunk(itemsA...))
		app.Aggregate(ghost, outMeta(), inChunk(itemsB...))
		if err := app.Combine(home, ghost, outMeta()); err != nil {
			t.Fatal(err)
		}

		d, h := direct.(*rasterAccum), home.(*rasterAccum)
		for c := range d.sums {
			if d.sums[c] != h.sums[c] || d.counts[c] != h.counts[c] {
				t.Fatalf("%v: cell %d: direct (%d,%d) vs combined (%d,%d)",
					op, c, d.sums[c], d.counts[c], h.sums[c], h.counts[c])
			}
		}
	}
}

func TestQuickCombineCommutesForSum(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	app := &RasterApp{Op: Sum, CellsPerDim: 2}
	f := func() bool {
		mk := func() *rasterAccum {
			acc, _ := app.Init(outMeta(), nil, true)
			a := acc.(*rasterAccum)
			for c := range a.sums {
				a.counts[c] = int64(rng.Intn(3))
				if a.counts[c] > 0 {
					a.sums[c] = int64(rng.Intn(100))
				}
			}
			return a
		}
		x, y := mk(), mk()
		// x + y == y + x (copy first).
		x2 := &rasterAccum{mbr: x.mbr, nx: x.nx, ny: x.ny,
			sums: append([]int64(nil), x.sums...), counts: append([]int64(nil), x.counts...)}
		y2 := &rasterAccum{mbr: y.mbr, nx: y.nx, ny: y.ny,
			sums: append([]int64(nil), y.sums...), counts: append([]int64(nil), y.counts...)}
		app.Combine(x, y, outMeta())   // x += y
		app.Combine(y2, x2, outMeta()) // y2 += x2
		for c := range x.sums {
			if x.sums[c] != y2.sums[c] || x.counts[c] != y2.counts[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInitSeedsFromExisting(t *testing.T) {
	app := &RasterApp{Op: Sum, CellsPerDim: 2, UseExisting: true}
	existing := inChunk(item(2.5, 2.5, 40))
	acc, err := app.Init(outMeta(), existing, false)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := app.Output(acc, outMeta())
	if len(out.Items) != 1 {
		t.Fatal("seed lost")
	}
	v, _ := DecodeValue(out.Items[0].Value)
	if v != 40 {
		t.Errorf("seeded value = %d", v)
	}
	// Ghost replicas must NOT seed (double counting).
	ghost, err := app.Init(outMeta(), existing, true)
	if err != nil {
		t.Fatal(err)
	}
	gout, _ := app.Output(ghost, outMeta())
	if len(gout.Items) != 0 {
		t.Error("ghost seeded from existing output")
	}
	if !app.InitRequiresOutput() {
		t.Error("InitRequiresOutput should be true")
	}
}

func TestInitValidation(t *testing.T) {
	app := &RasterApp{Op: Sum, CellsPerDim: 0}
	if _, err := app.Init(outMeta(), nil, false); err == nil {
		t.Error("CellsPerDim 0 should fail")
	}
	app.CellsPerDim = 2
	if _, err := app.Init(chunk.Meta{MBR: space.R(0, 1)}, nil, false); err == nil {
		t.Error("1-D output should fail")
	}
}

func TestTypeMismatchErrors(t *testing.T) {
	app := &RasterApp{Op: Sum, CellsPerDim: 2}
	if err := app.Aggregate(struct{}{}, outMeta(), inChunk()); err == nil {
		t.Error("wrong accumulator type should fail Aggregate")
	}
	if err := app.Combine(struct{}{}, struct{}{}, outMeta()); err == nil {
		t.Error("wrong accumulator type should fail Combine")
	}
	if _, err := app.Output(struct{}{}, outMeta()); err == nil {
		t.Error("wrong accumulator type should fail Output")
	}
	if _, err := app.EncodeAccum(struct{}{}, outMeta()); err == nil {
		t.Error("wrong accumulator type should fail EncodeAccum")
	}
}

// TestAccumShapeMismatchRejected: a ghost raster of the right cell count but
// the wrong shape (8 x 32 against a 16 x 16 app) must fail DecodeAccum by
// naming the setting, and Combine must refuse to fold one raster into
// another of a different shape.
func TestAccumShapeMismatchRejected(t *testing.T) {
	app := &RasterApp{Op: Sum, CellsPerDim: 16}
	data := binary.LittleEndian.AppendUint32(nil, 8)
	data = binary.LittleEndian.AppendUint32(data, 32)
	data = append(data, make([]byte, 16*8*32)...)
	if _, err := app.DecodeAccum(data, outMeta()); err == nil || !strings.Contains(err.Error(), "CellsPerDim") {
		t.Errorf("8x32 raster into a 16x16 app: err = %v, want one naming CellsPerDim", err)
	}
	home, _ := app.Init(outMeta(), nil, false)
	ghost := &rasterAccum{mbr: outMeta().MBR, nx: 8, ny: 32, sums: make([]int64, 256), counts: make([]int64, 256)}
	if err := app.Combine(home, ghost, outMeta()); err == nil {
		t.Error("Combine folded an 8x32 raster into a 16x16 one")
	}
}

// TestOutputAllocsConstant: Output makes the same few allocations whether
// one cell or every cell is populated — one chunk, one Items slice, one
// value slab — and its values read back as the cells' reductions.
func TestOutputAllocsConstant(t *testing.T) {
	app := &RasterApp{Op: Mean, CellsPerDim: 32}
	allocs := func(populated int) float64 {
		acc, _ := app.Init(outMeta(), nil, false)
		a := acc.(*rasterAccum)
		for c := 0; c < populated; c++ {
			a.sums[c], a.counts[c] = int64(10*c), 2
		}
		out, err := app.Output(acc, outMeta())
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Items) != populated {
			t.Fatalf("%d populated cells gave %d items", populated, len(out.Items))
		}
		for c, it := range out.Items {
			if v, err := DecodeValue(it.Value); err != nil || v != int64(5*c) || cap(it.Value) != 8 {
				t.Fatalf("item %d: value %d (cap %d), %v; want %d", c, v, cap(it.Value), err, 5*c)
			}
		}
		return testing.AllocsPerRun(20, func() { app.Output(acc, outMeta()) })
	}
	one, some, all := allocs(1), allocs(100), allocs(32*32)
	if one != 3 || some != 3 || all != 3 {
		t.Errorf("Output allocations for 1 / 100 / 1024 populated cells = %v / %v / %v, want 3 each", one, some, all)
	}
	if empty := allocs(0); empty != 1 {
		t.Errorf("Output allocations with no populated cell = %v, want 1", empty)
	}
}
