package hilbert

import (
	"fmt"

	"adr/internal/space"
)

// Quantizer maps continuous points of an attribute space onto a Hilbert
// curve index by snapping each coordinate to a 2^order lattice over the
// space's bounds. ADR uses this to order chunk MBR mid-points (§3: "the
// mid-point of the bounding box of each output chunk is used to generate a
// Hilbert curve index") and to decluster chunks across disks (§2.2).
type Quantizer struct {
	curve  *curve
	bounds space.Rect
}

// defaultOrder is the lattice resolution used when callers have no reason to
// pick another: 16 bits per dimension resolves 65536 positions per axis,
// far finer than any chunk layout in the paper's applications.
const defaultOrder = 16

// OrderFor returns the largest per-dimension order not exceeding
// defaultOrder that still fits a dims-dimensional index in 64 bits.
func OrderFor(dims int) int {
	if dims < 1 {
		return defaultOrder
	}
	o := 64 / dims
	if o > defaultOrder {
		o = defaultOrder
	}
	if o < 1 {
		o = 1
	}
	return o
}

// NewQuantizer builds a quantizer over bounds. order bits are used per
// dimension; dims*order must fit in 64 bits (use a smaller order for
// high-dimensional spaces).
func NewQuantizer(bounds space.Rect, order int) (*Quantizer, error) {
	if bounds.IsEmpty() {
		return nil, fmt.Errorf("hilbert: quantizer over empty bounds")
	}
	c, err := newCurve(bounds.Dims, order)
	if err != nil {
		return nil, err
	}
	return &Quantizer{curve: c, bounds: bounds}, nil
}

// Index returns the Hilbert index of point p. Points outside the bounds are
// clamped onto the boundary lattice cells so that slightly-out-of-range
// mid-points (from chunks straddling the space edge) still order sensibly.
func (q *Quantizer) Index(p space.Point) (uint64, error) {
	if p.Dims != q.bounds.Dims {
		return 0, fmt.Errorf("hilbert: point has %d dims, bounds have %d", p.Dims, q.bounds.Dims)
	}
	side := q.curve.Side()
	coords := make([]uint64, p.Dims)
	for d := 0; d < p.Dims; d++ {
		lo, hi := q.bounds.Lo[d], q.bounds.Hi[d]
		var frac float64
		if hi > lo {
			frac = (p.Coords[d] - lo) / (hi - lo)
		}
		if frac < 0 {
			frac = 0
		}
		if frac >= 1 {
			frac = 1
		}
		c := uint64(frac * float64(side))
		if c >= side {
			c = side - 1
		}
		coords[d] = c
	}
	return q.curve.Index(coords)
}
