// Package space provides the multi-dimensional geometry underlying ADR:
// points and rectangles in an n-dimensional attribute space, range queries,
// and mapping functions between attribute spaces.
//
// An attribute space (paper §2.1, "attribute space service") is specified by
// the number of dimensions and the range of values in each dimension. Every
// data item is associated with a point in an attribute space; every chunk is
// associated with a minimum bounding rectangle (MBR) that encompasses the
// coordinates of all items in the chunk. Access to data is described by a
// range query: a multi-dimensional bounding box in the attribute space.
package space

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// MaxDims is the maximum number of dimensions supported. ADR applications in
// the paper use 2-D and 3-D spaces (lat/lon[/time], x/y[/focal plane]); eight
// leaves generous headroom while letting Point and Rect stay value types.
const MaxDims = 8

// Point is a point in an n-dimensional attribute space. Only the first
// Dims coordinates are meaningful.
type Point struct {
	Dims   int
	Coords [MaxDims]float64
}

// Pt builds a Point from its coordinates.
func Pt(coords ...float64) Point {
	if len(coords) > MaxDims {
		panic(fmt.Sprintf("space: %d coordinates exceeds MaxDims=%d", len(coords), MaxDims))
	}
	var p Point
	p.Dims = len(coords)
	copy(p.Coords[:], coords)
	return p
}

// String renders the point as "(x, y, ...)".
func (p Point) String() string {
	parts := make([]string, p.Dims)
	for i := 0; i < p.Dims; i++ {
		parts[i] = fmt.Sprintf("%g", p.Coords[i])
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Equal reports whether p and q have the same dimensionality and coordinates.
func (p Point) Equal(q Point) bool {
	if p.Dims != q.Dims {
		return false
	}
	for i := 0; i < p.Dims; i++ {
		if p.Coords[i] != q.Coords[i] {
			return false
		}
	}
	return true
}

// Rect is an axis-aligned rectangle (bounding box) in an n-dimensional
// attribute space. Lo is inclusive, Hi is inclusive as well: ADR range
// queries retrieve items whose coordinates fall within the box, and chunk
// MBRs are closed boxes. A Rect with Dims == 0 is the empty rectangle.
type Rect struct {
	Dims   int
	Lo, Hi [MaxDims]float64
}

// R builds a Rect from alternating lo/hi pairs per dimension:
// R(lox, hix, loy, hiy, ...).
func R(bounds ...float64) Rect {
	if len(bounds)%2 != 0 {
		panic("space: R requires an even number of bounds")
	}
	d := len(bounds) / 2
	if d > MaxDims {
		panic(fmt.Sprintf("space: %d dimensions exceeds MaxDims=%d", d, MaxDims))
	}
	var r Rect
	r.Dims = d
	for i := 0; i < d; i++ {
		r.Lo[i] = bounds[2*i]
		r.Hi[i] = bounds[2*i+1]
		if r.Lo[i] > r.Hi[i] {
			panic(fmt.Sprintf("space: dimension %d has lo %g > hi %g", i, r.Lo[i], r.Hi[i]))
		}
	}
	return r
}

// CheckBox reports why R would refuse the flattened lo/hi list b: an odd
// count, more than MaxDims dimensions, or a lo above its hi.
func CheckBox(b []float64) error {
	if len(b)%2 != 0 || len(b) > 2*MaxDims {
		return fmt.Errorf("box needs lo/hi pairs in at most %d dimensions, got %d values", MaxDims, len(b))
	}
	for i := 0; i < len(b); i += 2 {
		if b[i] > b[i+1] {
			return fmt.Errorf("box lo %g > hi %g", b[i], b[i+1])
		}
	}
	return nil
}

// ParseBox parses a command-line box, "lo0,hi0,lo1,hi1,...", into a flat
// lo/hi list that passes CheckBox.
func ParseBox(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	b := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad box value %q", p)
		}
		b[i] = v
	}
	if err := CheckBox(b); err != nil {
		return nil, err
	}
	return b, nil
}

// RectFromPoints builds the MBR of a set of points. All points must share a
// dimensionality. Returns the empty Rect for no points.
func RectFromPoints(pts ...Point) Rect {
	var r Rect
	for i, p := range pts {
		if i == 0 {
			r.Dims = p.Dims
			for d := 0; d < p.Dims; d++ {
				r.Lo[d], r.Hi[d] = p.Coords[d], p.Coords[d]
			}
			continue
		}
		if p.Dims != r.Dims {
			panic("space: RectFromPoints with mixed dimensionality")
		}
		for d := 0; d < r.Dims; d++ {
			r.Lo[d] = math.Min(r.Lo[d], p.Coords[d])
			r.Hi[d] = math.Max(r.Hi[d], p.Coords[d])
		}
	}
	return r
}

// IsEmpty reports whether r is the zero-dimensional empty rectangle.
func (r Rect) IsEmpty() bool { return r.Dims == 0 }

// String renders the rectangle as "[lo..hi] x [lo..hi] ...".
func (r Rect) String() string {
	if r.IsEmpty() {
		return "[empty]"
	}
	parts := make([]string, r.Dims)
	for i := 0; i < r.Dims; i++ {
		parts[i] = fmt.Sprintf("[%g..%g]", r.Lo[i], r.Hi[i])
	}
	return strings.Join(parts, " x ")
}

// Equal reports whether r and s are the same rectangle.
func (r Rect) Equal(s Rect) bool {
	if r.Dims != s.Dims {
		return false
	}
	for i := 0; i < r.Dims; i++ {
		if r.Lo[i] != s.Lo[i] || r.Hi[i] != s.Hi[i] {
			return false
		}
	}
	return true
}

// Contains reports whether point p falls within the closed box r.
func (r Rect) Contains(p Point) bool {
	if r.Dims != p.Dims {
		return false
	}
	for i := 0; i < r.Dims; i++ {
		if p.Coords[i] < r.Lo[i] || p.Coords[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s lies entirely within r.
func (r Rect) ContainsRect(s Rect) bool {
	if r.Dims != s.Dims {
		return false
	}
	for i := 0; i < r.Dims; i++ {
		if s.Lo[i] < r.Lo[i] || s.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether the closed boxes r and s share any point.
func (r Rect) Intersects(s Rect) bool {
	if r.Dims != s.Dims || r.IsEmpty() || s.IsEmpty() {
		return false
	}
	for i := 0; i < r.Dims; i++ {
		if r.Hi[i] < s.Lo[i] || s.Hi[i] < r.Lo[i] {
			return false
		}
	}
	return true
}

// Intersect returns the intersection of r and s, or the empty Rect if they
// do not intersect.
func (r Rect) Intersect(s Rect) Rect {
	if !r.Intersects(s) {
		return Rect{}
	}
	var out Rect
	out.Dims = r.Dims
	for i := 0; i < r.Dims; i++ {
		out.Lo[i] = math.Max(r.Lo[i], s.Lo[i])
		out.Hi[i] = math.Min(r.Hi[i], s.Hi[i])
	}
	return out
}

// Union returns the MBR of r and s. Union with the empty Rect returns the
// other rectangle unchanged.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	if r.Dims != s.Dims {
		panic("space: Union with mixed dimensionality")
	}
	var out Rect
	out.Dims = r.Dims
	for i := 0; i < r.Dims; i++ {
		out.Lo[i] = math.Min(r.Lo[i], s.Lo[i])
		out.Hi[i] = math.Max(r.Hi[i], s.Hi[i])
	}
	return out
}

// Volume returns the n-dimensional volume of r (product of side lengths).
// A degenerate box (zero extent in some dimension) has zero volume.
func (r Rect) Volume() float64 {
	if r.IsEmpty() {
		return 0
	}
	v := 1.0
	for i := 0; i < r.Dims; i++ {
		v *= r.Hi[i] - r.Lo[i]
	}
	return v
}

// Margin returns the sum of the side lengths of r (the n-dimensional
// analogue of perimeter/2, used by R-tree split heuristics).
func (r Rect) Margin() float64 {
	m := 0.0
	for i := 0; i < r.Dims; i++ {
		m += r.Hi[i] - r.Lo[i]
	}
	return m
}

// Center returns the mid-point of r. The paper uses chunk MBR mid-points to
// generate Hilbert curve indices for tiling order (§3).
func (r Rect) Center() Point {
	var p Point
	p.Dims = r.Dims
	for i := 0; i < r.Dims; i++ {
		p.Coords[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return p
}

// Expand returns r grown to include point p.
func (r Rect) Expand(p Point) Rect {
	if r.IsEmpty() {
		return RectFromPoints(p)
	}
	if r.Dims != p.Dims {
		panic("space: Expand with mixed dimensionality")
	}
	out := r
	for i := 0; i < r.Dims; i++ {
		out.Lo[i] = math.Min(out.Lo[i], p.Coords[i])
		out.Hi[i] = math.Max(out.Hi[i], p.Coords[i])
	}
	return out
}
