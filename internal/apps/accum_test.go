package apps

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"adr/internal/rpc"
)

// accumHeader starts an encoded nx x ny raster.
func accumHeader(nx, ny uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, nx)
	return binary.LittleEndian.AppendUint32(b, ny)
}

// appendRun appends one run in EncodeAccum's wire form.
func appendRun(b []byte, skip, n uint64, sums, counts []int64) []byte {
	b = binary.AppendUvarint(b, skip)
	b = binary.AppendUvarint(b, n)
	for _, v := range sums {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, v := range counts {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// randomRaster fills a ghost of app with each cell populated with
// probability density: a value in [-1000, 1000) and a count in 1..3.
func randomRaster(t testing.TB, app *RasterApp, rng *rand.Rand, density float64) *rasterAccum {
	t.Helper()
	acc, err := app.Init(outMeta(), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	a := acc.(*rasterAccum)
	for c := range a.sums {
		if rng.Float64() < density {
			a.sums[c], a.counts[c] = int64(rng.Intn(2000)-1000), int64(1+rng.Intn(3))
		}
	}
	return a
}

// malformedAccums are payloads a 2 x 2 RasterApp must refuse, each with a
// fragment of the error it must give. A valid run is [0 1 | 5 | 1].
var malformedAccums = []struct {
	name, err string
	data      []byte
}{
	{"short header", "too short", []byte{2, 0, 0}},
	{"shape mismatch", "CellsPerDim", accumHeader(2, 3)},
	{"zero-length run", "empty accumulator run", appendRun(accumHeader(2, 2), 1, 0, nil, nil)},
	{"run past the raster", "overruns", appendRun(accumHeader(2, 2), 3, 2, []int64{1, 2}, []int64{1, 1})},
	{"skip past the raster", "overruns", appendRun(accumHeader(2, 2), 5, 1, []int64{1}, []int64{1})},
	{"overlapping run", "touches", appendRun(appendRun(accumHeader(2, 2), 0, 1, []int64{5}, []int64{1}), 0, 1, []int64{6}, []int64{1})},
	{"truncated run", "truncated", appendRun(accumHeader(2, 2), 0, 2, []int64{5}, []int64{1})},
	{"trailing byte", "bad length varint", append(appendRun(accumHeader(2, 2), 0, 1, []int64{5}, []int64{1}), 1)},
	{"trailing run header", "truncated", append(appendRun(accumHeader(2, 2), 0, 1, []int64{5}, []int64{1}), 1, 1)},
	{"non-minimal varint", "bad skip varint", append(accumHeader(2, 2), 0x80, 0x00, 1)},
	{"overflowing varint", "bad skip varint", append(accumHeader(2, 2), bytes.Repeat([]byte{0xff}, 10)...)},
	{"empty cell in a run", "empty cell 1", appendRun(accumHeader(2, 2), 0, 2, []int64{5, 6}, []int64{1, 0})},
}

// TestDecodeAccumRefusesMalformed: a ghost is bytes from a peer; every
// payload EncodeAccum cannot have written is refused by error.
func TestDecodeAccumRefusesMalformed(t *testing.T) {
	app := &RasterApp{Op: Sum, CellsPerDim: 2}
	for _, m := range malformedAccums {
		if _, err := app.DecodeAccum(m.data, outMeta()); err == nil || !strings.Contains(err.Error(), m.err) {
			t.Errorf("%s: err %v, want one containing %q", m.name, err, m.err)
		}
	}
}

// TestAccumWireSizes: an untouched raster encodes to its header alone, a
// fully populated one to exactly MaxAccumBytes, and a sparse one to its
// runs.
func TestAccumWireSizes(t *testing.T) {
	app := &RasterApp{Op: Max, CellsPerDim: 16}
	rng := rand.New(rand.NewSource(41))
	for _, tc := range []struct {
		density float64
		want    int64
	}{{0, 8}, {1, MaxAccumBytes(16)}} {
		data, err := app.EncodeAccum(randomRaster(t, app, rng, tc.density), outMeta())
		if err != nil || int64(len(data)) != tc.want || int64(cap(data)) != tc.want {
			t.Errorf("density %v: %d bytes (cap %d), %v; want %d", tc.density, len(data), cap(data), err, tc.want)
		}
	}
	if got := MaxAccumBytes(16); got != 8+1+2+16*256 {
		t.Errorf("MaxAccumBytes(16) = %d, want %d", got, 8+1+2+16*256)
	}
	a := randomRaster(t, app, rng, 0.06)
	want := 8
	for s, e := nextRun(a.counts, 0); s < e; s, e = nextRun(a.counts, e) {
		want += 2 + 16*(e-s)
	}
	if data, _ := app.EncodeAccum(a, outMeta()); len(data) != want || cap(data) != want {
		t.Errorf("sparse raster: %d bytes (cap %d), want %d", len(data), cap(data), want)
	}
}

// TestAccumCodecCombineMatchesDense: for every Op, folding a ghost through
// the wire, Combine(home, DecodeAccum(EncodeAccum(g))), and folding the
// dense ghost, Combine(home, g), both leave the home raster exactly as the
// cell-by-cell reference fold does. Half the home cells are empty and
// values straddle 0, so Max and Min would catch an empty cell read as 0.
func TestAccumCodecCombineMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	clone := func(a *rasterAccum) *rasterAccum {
		return &rasterAccum{mbr: a.mbr, nx: a.nx, ny: a.ny,
			sums: append([]int64(nil), a.sums...), counts: append([]int64(nil), a.counts...)}
	}
	for _, op := range []Op{Sum, Max, Min, Count, Mean} {
		app := &RasterApp{Op: op, CellsPerDim: 16}
		for trial := 0; trial < 20; trial++ {
			for _, density := range []float64{0, 0.06, 0.5, 0.95, 1} {
				g := randomRaster(t, app, rng, density)
				want := randomRaster(t, app, rng, 0.5)
				wire, dense := clone(want), clone(want)
				refRasterCombine(op, want, g)
				data, err := app.EncodeAccum(g, outMeta())
				if err != nil {
					t.Fatal(err)
				}
				src, err := app.DecodeAccum(data, outMeta())
				if err != nil {
					t.Fatalf("%v density %v: %v", op, density, err)
				}
				if err := app.Combine(wire, src, outMeta()); err != nil {
					t.Fatal(err)
				}
				if err := app.Combine(dense, g, outMeta()); err != nil {
					t.Fatal(err)
				}
				for c := range want.sums {
					w := [2]int64{want.sums[c], want.counts[c]}
					if got := [2]int64{wire.sums[c], wire.counts[c]}; got != w {
						t.Fatalf("%v density %v cell %d: through the wire %v, reference %v", op, density, c, got, w)
					}
					if got := [2]int64{dense.sums[c], dense.counts[c]}; got != w {
						t.Fatalf("%v density %v cell %d: dense %v, reference %v", op, density, c, got, w)
					}
				}
			}
		}
	}
}

// TestInitRefusesOversizedRaster: a raster whose full ghost would not fit
// in one mesh frame is refused by Init with an error naming the value and
// the limit, before anything is allocated (3 037 000 500 overflows c·c;
// 10^5 would ask for 160 GB). 2 047 is the largest that fits.
func TestInitRefusesOversizedRaster(t *testing.T) {
	if MaxAccumBytes(2047) > rpc.MaxFrameBytes || MaxAccumBytes(2048) <= rpc.MaxFrameBytes {
		t.Errorf("worst cases %d (2047) and %d (2048) do not straddle the %d-byte frame",
			MaxAccumBytes(2047), MaxAccumBytes(2048), rpc.MaxFrameBytes)
	}
	if err := CheckCellsPerDim(2047); err != nil {
		t.Errorf("2047 cells per dimension: %v", err)
	}
	for _, cells := range []int{2048, 100_000, 3_037_000_500} {
		app := &RasterApp{Op: Sum, CellsPerDim: cells}
		_, err := app.Init(outMeta(), nil, false)
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(cells)) || !strings.Contains(err.Error(), "limit 2047") {
			t.Errorf("Init at %d cells per dimension: err %v, want a refusal naming %d and the limit 2047", cells, err, cells)
		}
		if _, err := app.DecodeAccum(accumHeader(2, 2), outMeta()); err == nil {
			t.Errorf("DecodeAccum at %d cells per dimension accepted a payload", cells)
		}
	}
}

// FuzzRasterAccum: DecodeAccum reads untrusted bytes from a peer. It must
// never panic, and every payload it accepts must be one EncodeAccum writes:
// folded into an empty raster and re-encoded, it comes back byte for byte.
func FuzzRasterAccum(f *testing.F) {
	rng := rand.New(rand.NewSource(43))
	for cells := 1; cells <= 4; cells++ {
		app := &RasterApp{Op: Sum, CellsPerDim: cells}
		for _, density := range []float64{0, 0.3, 0.7, 1} {
			data, err := app.EncodeAccum(randomRaster(f, app, rng, density), outMeta())
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(cells-1), data)
		}
	}
	for _, m := range malformedAccums {
		f.Add(uint8(1), m.data)
	}
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		app := &RasterApp{Op: Op(shape / 8 % 5), CellsPerDim: 1 + int(shape%8)}
		g, err := app.DecodeAccum(data, outMeta())
		if err != nil {
			return
		}
		home, err := app.Init(outMeta(), nil, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Combine(home, g, outMeta()); err != nil {
			t.Fatalf("accepted payload does not combine: %v", err)
		}
		again, err := app.EncodeAccum(home, outMeta())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, re-encodes to %x", data, again)
		}
	})
}

// BenchmarkAccumCodec times one ghost's trip, EncodeAccum + DecodeAccum +
// Combine, on a 128 x 128 raster (vm_output_wb's) whose cells are
// populated at random with the given density.
func BenchmarkAccumCodec(b *testing.B) {
	for _, density := range []float64{0, 0.06, 0.3, 0.7, 1} {
		b.Run(strconv.FormatFloat(density, 'g', -1, 64), func(b *testing.B) {
			app := &RasterApp{Op: Sum, CellsPerDim: 128}
			g := randomRaster(b, app, rand.New(rand.NewSource(44)), density)
			home, _ := app.Init(outMeta(), nil, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, _ := app.EncodeAccum(g, outMeta())
				src, err := app.DecodeAccum(data, outMeta())
				if err != nil {
					b.Fatal(err)
				}
				app.Combine(home, src, outMeta())
			}
		})
	}
}
