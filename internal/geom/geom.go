// Package geom provides the planar geometry primitives used by floorplans:
// axis-aligned rectangles, interval arithmetic, overlap tests and shared-edge
// measurement. All coordinates are in metres unless stated otherwise.
//
// The package is the foundation of floorplan adjacency: two blocks are thermal
// neighbours exactly when their rectangles share a boundary segment of positive
// length, and the lateral thermal resistance between them is derived from that
// shared length and the distance between their centres.
package geom

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Eps is the default geometric tolerance in metres (0.1 µm). Floorplan
// coordinates are physical dimensions of on-die blocks (tens of µm to tens of
// mm), so anything below Eps is treated as coincident.
const Eps = 1e-7

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Interval is a closed 1-D interval [Lo, Hi].
type Interval struct {
	Lo, Hi float64
}

// Len returns the length of the interval, never negative.
func (iv Interval) Len() float64 {
	if iv.Hi <= iv.Lo {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Overlap returns the length of the intersection of two intervals. A shared
// endpoint counts as zero overlap.
func (iv Interval) Overlap(other Interval) float64 {
	lo := math.Max(iv.Lo, other.Lo)
	hi := math.Min(iv.Hi, other.Hi)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// Rect is an axis-aligned rectangle described by its lower-left corner (X, Y)
// and its positive width W and height H. This mirrors the HotSpot ".flp"
// convention ("<width> <height> <left-x> <bottom-y>").
type Rect struct {
	X, Y float64 // lower-left corner
	W, H float64 // extents; must be > 0 for a valid block
}

// Valid reports whether the rectangle has strictly positive area and finite
// coordinates.
func (r Rect) Valid() bool {
	for _, v := range [...]float64{r.X, r.Y, r.W, r.H} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return r.W > Eps && r.H > Eps
}

// Area returns the area of the rectangle (m²).
func (r Rect) Area() float64 { return r.W * r.H }

// Center returns the centroid of the rectangle.
func (r Rect) Center() Point { return Point{r.X + r.W/2, r.Y + r.H/2} }

// XSpan returns the [X, X+W] interval.
func (r Rect) XSpan() Interval { return Interval{r.X, r.X + r.W} }

// YSpan returns the [Y, Y+H] interval.
func (r Rect) YSpan() Interval { return Interval{r.Y, r.Y + r.H} }

// MaxX returns the right edge coordinate.
func (r Rect) MaxX() float64 { return r.X + r.W }

// MaxY returns the top edge coordinate.
func (r Rect) MaxY() float64 { return r.Y + r.H }

// ContainsRect reports whether other lies fully inside r (inclusive, with Eps
// slack).
func (r Rect) ContainsRect(other Rect) bool {
	return other.X >= r.X-Eps && other.Y >= r.Y-Eps &&
		other.MaxX() <= r.MaxX()+Eps && other.MaxY() <= r.MaxY()+Eps
}

// Overlaps reports whether the interiors of the rectangles intersect with
// more than Eps²-scale area. Edge contact does not count as overlap.
func (r Rect) Overlaps(other Rect) bool {
	return r.XSpan().Overlap(other.XSpan()) > Eps && r.YSpan().Overlap(other.YSpan()) > Eps
}

// Union returns the bounding box of the two rectangles.
func (r Rect) Union(other Rect) Rect {
	x0 := math.Min(r.X, other.X)
	y0 := math.Min(r.Y, other.Y)
	x1 := math.Max(r.MaxX(), other.MaxX())
	y1 := math.Max(r.MaxY(), other.MaxY())
	return Rect{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("Rect(x=%g y=%g w=%g h=%g)", r.X, r.Y, r.W, r.H)
}

// Side identifies one of the four sides of a rectangle.
type Side int

// The four sides in the floorplan's frame (y grows upward).
const (
	SideNone  Side = iota
	SideEast       // +x
	SideWest       // -x
	SideNorth      // +y
	SideSouth      // -y
)

// String implements fmt.Stringer.
func (s Side) String() string {
	switch s {
	case SideEast:
		return "east"
	case SideWest:
		return "west"
	case SideNorth:
		return "north"
	case SideSouth:
		return "south"
	default:
		return "none"
	}
}

// Opposite returns the side facing s.
func (s Side) Opposite() Side {
	switch s {
	case SideEast:
		return SideWest
	case SideWest:
		return SideEast
	case SideNorth:
		return SideSouth
	case SideSouth:
		return SideNorth
	default:
		return SideNone
	}
}

// SharedEdge describes the boundary contact between two rectangles.
type SharedEdge struct {
	Side   Side    // side of the first rectangle touching the second
	Length float64 // contact length in metres (0 when not adjacent)
}

// SharedEdgeBetween computes the contact between rectangles a and b. Two
// rectangles are adjacent when they touch along a segment of positive length;
// corner contact and separation both yield {SideNone, 0}. Overlapping
// rectangles also yield {SideNone, 0}: a valid floorplan never overlaps and
// callers are expected to validate first.
func SharedEdgeBetween(a, b Rect) SharedEdge {
	if a.Overlaps(b) {
		return SharedEdge{}
	}
	// Vertical contact: a's east edge against b's west edge or vice versa.
	yOverlap := a.YSpan().Overlap(b.YSpan())
	if yOverlap > Eps {
		if math.Abs(a.MaxX()-b.X) <= Eps {
			return SharedEdge{Side: SideEast, Length: yOverlap}
		}
		if math.Abs(b.MaxX()-a.X) <= Eps {
			return SharedEdge{Side: SideWest, Length: yOverlap}
		}
	}
	// Horizontal contact: a's north edge against b's south edge or vice versa.
	xOverlap := a.XSpan().Overlap(b.XSpan())
	if xOverlap > Eps {
		if math.Abs(a.MaxY()-b.Y) <= Eps {
			return SharedEdge{Side: SideNorth, Length: xOverlap}
		}
		if math.Abs(b.MaxY()-a.Y) <= Eps {
			return SharedEdge{Side: SideSouth, Length: xOverlap}
		}
	}
	return SharedEdge{}
}

// BoundaryContact returns, for each side of inner, the length of inner's
// boundary that coincides with the boundary of outer. A block sitting on the
// die edge releases heat toward the package rim through these segments.
func BoundaryContact(inner, outer Rect) map[Side]float64 {
	m := make(map[Side]float64, 4)
	if math.Abs(inner.X-outer.X) <= Eps {
		m[SideWest] = inner.H
	}
	if math.Abs(inner.MaxX()-outer.MaxX()) <= Eps {
		m[SideEast] = inner.H
	}
	if math.Abs(inner.Y-outer.Y) <= Eps {
		m[SideSouth] = inner.W
	}
	if math.Abs(inner.MaxY()-outer.MaxY()) <= Eps {
		m[SideNorth] = inner.W
	}
	return m
}

// CenterDistanceAlong returns the distance between the centres of a and b
// projected on the axis perpendicular to their shared edge. This is the heat
// conduction path length used for lateral thermal resistances. When the
// rectangles are not adjacent it falls back to the full centre distance.
func CenterDistanceAlong(a, b Rect) float64 {
	se := SharedEdgeBetween(a, b)
	ca, cb := a.Center(), b.Center()
	switch se.Side {
	case SideEast, SideWest:
		return math.Abs(ca.X - cb.X)
	case SideNorth, SideSouth:
		return math.Abs(ca.Y - cb.Y)
	default:
		return ca.Dist(cb)
	}
}

// TotalArea sums the areas of the given rectangles.
func TotalArea(rects []Rect) float64 {
	var sum float64
	for _, r := range rects {
		sum += r.Area()
	}
	return sum
}

// AnyOverlap returns the lexicographically smallest pair i < j of
// overlapping rectangles, or (-1, -1) when no pair overlaps. It sweeps the
// rectangles in ascending X (NaN first): for each i it checks the later
// rectangles j until the first with MaxX_i − X_j ≤ Eps, which bounds the
// x-overlap of that j and of every j after it. A rectangle with a NaN
// coordinate never stops its sweep, but it overlaps nothing either. On a
// floorplan the cost is O(n log n) plus the pairs whose x-spans overlap.
func AnyOverlap(rects []Rect) (int, int) {
	order := make([]int, len(rects))
	for k := range order {
		order[k] = k
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(rects[a].X, rects[b].X) })
	bi, bj := -1, -1
	for p, i := range order {
		hi := rects[i].MaxX()
		for _, j := range order[p+1:] {
			if hi-rects[j].X <= Eps {
				break
			}
			if !rects[i].Overlaps(rects[j]) {
				continue
			}
			lo, up := min(i, j), max(i, j)
			if bi < 0 || lo < bi || lo == bi && up < bj {
				bi, bj = lo, up
			}
		}
	}
	return bi, bj
}

// IsTiling reports whether the rectangles exactly tile the outer rectangle:
// pairwise non-overlapping, all contained in outer, and their areas summing to
// outer's area within tolerance tol (relative).
func IsTiling(rects []Rect, outer Rect, tol float64) bool {
	if i, _ := AnyOverlap(rects); i >= 0 {
		return false
	}
	for _, r := range rects {
		if !outer.ContainsRect(r) {
			return false
		}
	}
	sum := TotalArea(rects)
	return math.Abs(sum-outer.Area()) <= tol*outer.Area()
}
