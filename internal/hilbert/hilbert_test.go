package hilbert

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adr/internal/space"
)

func mustCurve(t *testing.T, dims, order int) *curve {
	t.Helper()
	c, err := newCurve(dims, order)
	if err != nil {
		t.Fatalf("newCurve(%d,%d): %v", dims, order, err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct{ dims, order int }{
		{0, 4}, {-1, 4}, {2, 0}, {2, 33}, {9, 8},
	} {
		if _, err := newCurve(tc.dims, tc.order); err == nil {
			t.Errorf("newCurve(%d,%d) should fail", tc.dims, tc.order)
		}
	}
	if _, err := newCurve(2, 32); err != nil {
		t.Errorf("newCurve(2,32) should work: %v", err)
	}
}

func TestCurve2DOrder1(t *testing.T) {
	// The order-1 2-D Hilbert curve visits (0,0) (0,1) (1,1) (1,0).
	c := mustCurve(t, 2, 1)
	want := [][]uint64{{0, 0}, {0, 1}, {1, 1}, {1, 0}}
	for idx, coords := range want {
		got, err := c.Coords(uint64(idx))
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != coords[0] || got[1] != coords[1] {
			t.Errorf("Coords(%d) = %v, want %v", idx, got, coords)
		}
	}
}

func TestCurveBijection2D(t *testing.T) {
	c := mustCurve(t, 2, 4) // 256 cells
	seen := make(map[uint64]bool)
	for x := uint64(0); x < c.Side(); x++ {
		for y := uint64(0); y < c.Side(); y++ {
			idx, err := c.Index([]uint64{x, y})
			if err != nil {
				t.Fatal(err)
			}
			if idx > c.MaxIndex() {
				t.Fatalf("index %d out of range", idx)
			}
			if seen[idx] {
				t.Fatalf("index %d produced twice", idx)
			}
			seen[idx] = true
			back, err := c.Coords(idx)
			if err != nil {
				t.Fatal(err)
			}
			if back[0] != x || back[1] != y {
				t.Fatalf("roundtrip (%d,%d) -> %d -> (%d,%d)", x, y, idx, back[0], back[1])
			}
		}
	}
	if len(seen) != 256 {
		t.Fatalf("covered %d cells, want 256", len(seen))
	}
}

func TestCurveAdjacency(t *testing.T) {
	// Consecutive curve positions are adjacent lattice cells (Manhattan
	// distance exactly 1) — the defining property of a Hilbert curve.
	for _, tc := range []struct{ dims, order int }{{2, 3}, {3, 2}, {4, 2}} {
		c := mustCurve(t, tc.dims, tc.order)
		prev, err := c.Coords(0)
		if err != nil {
			t.Fatal(err)
		}
		for idx := uint64(1); idx <= c.MaxIndex(); idx++ {
			cur, err := c.Coords(idx)
			if err != nil {
				t.Fatal(err)
			}
			dist := uint64(0)
			for d := range cur {
				diff := int64(cur[d]) - int64(prev[d])
				if diff < 0 {
					diff = -diff
				}
				dist += uint64(diff)
			}
			if dist != 1 {
				t.Fatalf("dims=%d order=%d: steps %d->%d moved distance %d (%v -> %v)",
					tc.dims, tc.order, idx-1, idx, dist, prev, cur)
			}
			prev = cur
		}
	}
}

func TestQuickBijection3D(t *testing.T) {
	c := mustCurve(t, 3, 8)
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		coords := []uint64{
			uint64(rng.Intn(int(c.Side()))),
			uint64(rng.Intn(int(c.Side()))),
			uint64(rng.Intn(int(c.Side()))),
		}
		idx, err := c.Index(coords)
		if err != nil {
			return false
		}
		back, err := c.Coords(idx)
		if err != nil {
			return false
		}
		return back[0] == coords[0] && back[1] == coords[1] && back[2] == coords[2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIndexErrors(t *testing.T) {
	c := mustCurve(t, 2, 4)
	if _, err := c.Index([]uint64{1}); err == nil {
		t.Error("wrong arity should fail")
	}
	if _, err := c.Index([]uint64{16, 0}); err == nil {
		t.Error("out-of-range coordinate should fail")
	}
	if _, err := c.Coords(c.MaxIndex() + 1); err == nil {
		t.Error("out-of-range index should fail")
	}
}

func TestMaxIndexFullWidth(t *testing.T) {
	c := mustCurve(t, 8, 8) // exactly 64 bits
	if c.MaxIndex() != ^uint64(0) {
		t.Errorf("MaxIndex = %d, want all ones", c.MaxIndex())
	}
}

func TestLocalityBeatsRowMajor(t *testing.T) {
	// Average distance in index space between 4-neighbours in the lattice
	// should be far lower for Hilbert than for row-major linearization —
	// the clustering property the paper cites Moon & Saltz for.
	c := mustCurve(t, 2, 5)
	side := int(c.Side())
	var hilbertSum, rowSum float64
	var n int
	for x := 0; x < side; x++ {
		for y := 0; y+1 < side; y++ {
			a, _ := c.Index([]uint64{uint64(x), uint64(y)})
			b, _ := c.Index([]uint64{uint64(x), uint64(y + 1)})
			da := int64(a) - int64(b)
			if da < 0 {
				da = -da
			}
			hilbertSum += float64(da)
			rowSum += float64(side) // row-major distance between row neighbours
			n++
		}
	}
	if hilbertSum/float64(n) >= rowSum/float64(n) {
		t.Errorf("Hilbert locality %.1f not better than row-major %.1f",
			hilbertSum/float64(n), rowSum/float64(n))
	}
}

func TestQuantizer(t *testing.T) {
	bounds := space.R(0, 100, -50, 50)
	q, err := NewQuantizer(bounds, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Corner points map to valid indices and the two extreme corners map to
	// lattice corners.
	for _, p := range []space.Point{space.Pt(0, -50), space.Pt(100, 50), space.Pt(50, 0)} {
		if _, err := q.Index(p); err != nil {
			t.Errorf("Index(%v): %v", p, err)
		}
	}
	// Out-of-bounds points clamp rather than fail.
	if _, err := q.Index(space.Pt(-10, 0)); err != nil {
		t.Errorf("clamped Index failed: %v", err)
	}
	if _, err := q.Index(space.Pt(5, 5, 5)); err == nil {
		t.Error("wrong dims should fail")
	}
}

func TestQuantizerPreservesOrderOn1D(t *testing.T) {
	q, err := NewQuantizer(space.R(0, 1), 10)
	if err != nil {
		t.Fatal(err)
	}
	var prev uint64
	for i := 0; i <= 100; i++ {
		idx, err := q.Index(space.Pt(float64(i) / 100))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && idx < prev {
			t.Fatalf("1-D Hilbert order not monotone at %d", i)
		}
		prev = idx
	}
}

func TestQuantizerErrors(t *testing.T) {
	if _, err := NewQuantizer(space.Rect{}, 8); err == nil {
		t.Error("empty bounds should fail")
	}
}

func TestOrderFor(t *testing.T) {
	cases := []struct{ dims, want int }{
		{1, 16}, {2, 16}, {3, 16}, {4, 16}, {5, 12}, {8, 8}, {0, defaultOrder},
	}
	for _, c := range cases {
		if got := OrderFor(c.dims); got != c.want {
			t.Errorf("OrderFor(%d) = %d, want %d", c.dims, got, c.want)
		}
		if c.dims > 0 && c.dims*OrderFor(c.dims) > 64 {
			t.Errorf("OrderFor(%d) overflows 64 bits", c.dims)
		}
	}
}

func BenchmarkIndex2D(b *testing.B) {
	c, _ := newCurve(2, 16)
	coords := []uint64{12345, 54321}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Index(coords); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoords3D(b *testing.B) {
	c, _ := newCurve(3, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Coords(uint64(i) & c.MaxIndex()); err != nil {
			b.Fatal(err)
		}
	}
}
