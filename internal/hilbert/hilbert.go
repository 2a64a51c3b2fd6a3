// Package hilbert implements the n-dimensional Hilbert space-filling curve.
//
// ADR uses Hilbert curves in two places (paper §2.2 and §3): declustering
// chunks across the disk farm, and ordering output chunks during tiling so
// that spatially close chunks land in the same tile ("The advantage of using
// Hilbert curves is that they have good clustering properties, since they
// preserve locality"). Chunk MBR mid-points are quantized onto a 2^order
// lattice per dimension and converted to a curve index; sorting by that index
// yields the traversal order.
//
// The implementation is John Skilling's transpose algorithm ("Programming the
// Hilbert curve", AIP Conf. Proc. 707, 2004), which converts between axis
// coordinates and the "transposed" form of the Hilbert index in O(n·b) bit
// operations for n dimensions of b bits each.
package hilbert

import "fmt"

// curve maps between points on an n-dimensional lattice with 2^order cells
// per side and positions along the Hilbert curve that visits every cell.
type curve struct {
	dims  int
	order int
}

// newCurve returns a Hilbert curve over dims dimensions with 2^order cells per
// dimension. dims*order must fit in 64 bits so indices fit in a uint64.
func newCurve(dims, order int) (*curve, error) {
	if dims < 1 {
		return nil, fmt.Errorf("hilbert: dims %d < 1", dims)
	}
	if order < 1 {
		return nil, fmt.Errorf("hilbert: order %d < 1", order)
	}
	if dims*order > 64 {
		return nil, fmt.Errorf("hilbert: dims*order = %d exceeds 64 bits", dims*order)
	}
	return &curve{dims: dims, order: order}, nil
}

// Side returns the number of lattice cells per dimension, 2^order.
func (c *curve) Side() uint64 { return 1 << uint(c.order) }

// MaxIndex returns the largest valid curve index, Side^dims - 1.
func (c *curve) MaxIndex() uint64 {
	bits := uint(c.dims * c.order)
	if bits == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << bits) - 1
}

// Index returns the Hilbert curve index of the lattice point coords. Each
// coordinate must be < Side(). The mapping is a bijection between lattice
// points and [0, MaxIndex()].
func (c *curve) Index(coords []uint64) (uint64, error) {
	if len(coords) != c.dims {
		return 0, fmt.Errorf("hilbert: got %d coordinates, curve has %d dims", len(coords), c.dims)
	}
	side := c.Side()
	x := make([]uint64, c.dims)
	for i, v := range coords {
		if v >= side {
			return 0, fmt.Errorf("hilbert: coordinate %d = %d out of range [0,%d)", i, v, side)
		}
		x[i] = v
	}
	c.axesToTranspose(x)
	return c.interleave(x), nil
}

// Coords inverts Index: it returns the lattice point at curve position idx.
func (c *curve) Coords(idx uint64) ([]uint64, error) {
	if idx > c.MaxIndex() {
		return nil, errRange(idx, c.MaxIndex())
	}
	x := c.deinterleave(idx)
	c.transposeToAxes(x)
	return x, nil
}

func errRange(idx, max uint64) error {
	return fmt.Errorf("hilbert: index %d out of range [0,%d]", idx, max)
}

// axesToTranspose converts axis coordinates into the transposed Hilbert
// index in place (Skilling's AxestoTranspose).
func (c *curve) axesToTranspose(x []uint64) {
	n := c.dims
	b := uint(c.order)
	m := uint64(1) << (b - 1)

	// Inverse undo of the Gray-code and rotation steps.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p // invert low bits of x[0]
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint64
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes converts a transposed Hilbert index into axis coordinates
// in place (Skilling's TransposetoAxes).
func (c *curve) transposeToAxes(x []uint64) {
	n := c.dims
	b := uint(c.order)
	m := uint64(2) << (b - 1)

	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint64(2); q != m; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// interleave packs the transposed form into a single index: bit (b-1-j) of
// x[i] becomes bit ((b-1-j)*n + (n-1-i)) of the result, i.e. one bit from
// each dimension per level, most significant level first.
func (c *curve) interleave(x []uint64) uint64 {
	var out uint64
	b := c.order
	n := c.dims
	for j := b - 1; j >= 0; j-- {
		for i := 0; i < n; i++ {
			out = (out << 1) | ((x[i] >> uint(j)) & 1)
		}
	}
	return out
}

// deinterleave unpacks a single index into the transposed form.
func (c *curve) deinterleave(idx uint64) []uint64 {
	b := c.order
	n := c.dims
	x := make([]uint64, n)
	pos := uint(n*b) - 1
	for j := b - 1; j >= 0; j-- {
		for i := 0; i < n; i++ {
			x[i] |= ((idx >> pos) & 1) << uint(j)
			pos--
		}
	}
	return x
}
