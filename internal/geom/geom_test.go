package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestIntervalLen(t *testing.T) {
	tests := []struct {
		name string
		iv   Interval
		want float64
	}{
		{"positive", Interval{1, 3}, 2},
		{"zero", Interval{2, 2}, 0},
		{"inverted clamps to zero", Interval{3, 1}, 0},
		{"negative coords", Interval{-5, -2}, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.iv.Len(); got != tt.want {
				t.Errorf("Len() = %g, want %g", got, tt.want)
			}
		})
	}
}

func TestIntervalOverlap(t *testing.T) {
	tests := []struct {
		name string
		a, b Interval
		want float64
	}{
		{"disjoint", Interval{0, 1}, Interval{2, 3}, 0},
		{"touching", Interval{0, 1}, Interval{1, 2}, 0},
		{"partial", Interval{0, 2}, Interval{1, 3}, 1},
		{"nested", Interval{0, 10}, Interval{2, 5}, 3},
		{"identical", Interval{1, 4}, Interval{1, 4}, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Overlap(tt.b); !almost(got, tt.want, 1e-12) {
				t.Errorf("Overlap = %g, want %g", got, tt.want)
			}
			if got := tt.b.Overlap(tt.a); !almost(got, tt.want, 1e-12) {
				t.Errorf("Overlap (swapped) = %g, want %g", got, tt.want)
			}
		})
	}
}

func TestIntervalOverlapCommutative(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		// Constrain to finite, moderate values.
		norm := func(x float64) float64 { return math.Mod(math.Abs(x), 1000) }
		i1 := Interval{norm(a), norm(a) + norm(b)}
		i2 := Interval{norm(c), norm(c) + norm(d)}
		return almost(i1.Overlap(i2), i2.Overlap(i1), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{X: 1, Y: 2, W: 3, H: 4}
	if got := r.Area(); got != 12 {
		t.Errorf("Area = %g, want 12", got)
	}
	if got := r.Center(); got.X != 2.5 || got.Y != 4 {
		t.Errorf("Center = %v, want (2.5, 4)", got)
	}
	if !r.Valid() {
		t.Error("valid rect reported invalid")
	}
	if (Rect{W: 0, H: 1}).Valid() {
		t.Error("zero-width rect reported valid")
	}
	if (Rect{X: math.NaN(), W: 1, H: 1}).Valid() {
		t.Error("NaN rect reported valid")
	}
}

func TestRectContains(t *testing.T) {
	outer := Rect{0, 0, 10, 10}
	if !outer.ContainsRect(Rect{2, 2, 3, 3}) {
		t.Error("inner rect not contained")
	}
	if outer.ContainsRect(Rect{8, 8, 3, 3}) {
		t.Error("protruding rect reported contained")
	}
}

func TestRectOverlap(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	tests := []struct {
		name string
		b    Rect
		area float64
	}{
		{"disjoint", Rect{5, 5, 1, 1}, 0},
		{"edge touch", Rect{2, 0, 2, 2}, 0},
		{"corner touch", Rect{2, 2, 1, 1}, 0},
		{"quarter overlap", Rect{1, 1, 2, 2}, 1},
		{"contained", Rect{0.5, 0.5, 1, 1}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got, want := a.Overlaps(tt.b), tt.area > 0; got != want {
				t.Errorf("Overlaps = %v, want %v", got, want)
			}
		})
	}
}

func TestRectOverlapSymmetric(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		norm := func(x float64) float64 { return math.Mod(math.Abs(x), 100) }
		a := Rect{norm(ax), norm(ay), norm(aw) + 0.1, norm(ah) + 0.1}
		b := Rect{norm(bx), norm(by), norm(bw) + 0.1, norm(bh) + 0.1}
		return a.Overlaps(b) == b.Overlaps(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnionContainsBoth(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		norm := func(x float64) float64 { return math.Mod(math.Abs(x), 100) }
		a := Rect{norm(ax), norm(ay), norm(aw) + 0.1, norm(ah) + 0.1}
		b := Rect{norm(bx), norm(by), norm(bw) + 0.1, norm(bh) + 0.1}
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSharedEdgeBetween(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	tests := []struct {
		name string
		b    Rect
		side Side
		len  float64
	}{
		{"east full", Rect{2, 0, 2, 2}, SideEast, 2},
		{"east partial", Rect{2, 1, 2, 3}, SideEast, 1},
		{"west", Rect{-3, 0.5, 3, 1}, SideWest, 1},
		{"north", Rect{0.5, 2, 1, 1}, SideNorth, 1},
		{"south", Rect{0, -1, 2, 1}, SideSouth, 2},
		{"corner only", Rect{2, 2, 1, 1}, SideNone, 0},
		{"disjoint", Rect{5, 5, 1, 1}, SideNone, 0},
		{"overlapping", Rect{1, 1, 2, 2}, SideNone, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			se := SharedEdgeBetween(a, tt.b)
			if se.Side != tt.side || !almost(se.Length, tt.len, 1e-12) {
				t.Errorf("SharedEdgeBetween = %v/%g, want %v/%g", se.Side, se.Length, tt.side, tt.len)
			}
			// Symmetry: viewed from b, the side must be opposite and the
			// length identical.
			back := SharedEdgeBetween(tt.b, a)
			if back.Side != tt.side.Opposite() || !almost(back.Length, tt.len, 1e-12) {
				t.Errorf("reverse SharedEdgeBetween = %v/%g, want %v/%g",
					back.Side, back.Length, tt.side.Opposite(), tt.len)
			}
		})
	}
}

func TestSharedEdgeSymmetryRandomGrid(t *testing.T) {
	// Random axis-aligned grid-snapped rectangles: shared edge length must be
	// symmetric and sides must be opposite whenever adjacency is detected.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		a := Rect{float64(rng.Intn(10)), float64(rng.Intn(10)), float64(1 + rng.Intn(5)), float64(1 + rng.Intn(5))}
		b := Rect{float64(rng.Intn(10)), float64(rng.Intn(10)), float64(1 + rng.Intn(5)), float64(1 + rng.Intn(5))}
		ab := SharedEdgeBetween(a, b)
		ba := SharedEdgeBetween(b, a)
		if !almost(ab.Length, ba.Length, 1e-12) {
			t.Fatalf("asymmetric shared length: %v vs %v for %v %v", ab, ba, a, b)
		}
		if ab.Side != ba.Side.Opposite() {
			t.Fatalf("sides not opposite: %v vs %v for %v %v", ab.Side, ba.Side, a, b)
		}
	}
}

func TestSideOpposite(t *testing.T) {
	for _, s := range []Side{SideEast, SideWest, SideNorth, SideSouth} {
		if s.Opposite().Opposite() != s {
			t.Errorf("double opposite of %v is %v", s, s.Opposite().Opposite())
		}
	}
	if SideNone.Opposite() != SideNone {
		t.Error("SideNone opposite should be SideNone")
	}
	names := map[Side]string{SideEast: "east", SideWest: "west", SideNorth: "north", SideSouth: "south", SideNone: "none"}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("String(%d) = %q, want %q", s, s.String(), want)
		}
	}
}

func TestBoundaryContact(t *testing.T) {
	outer := Rect{0, 0, 10, 10}
	tests := []struct {
		name  string
		inner Rect
		want  map[Side]float64
	}{
		{"interior block", Rect{3, 3, 2, 2}, map[Side]float64{}},
		{"west edge", Rect{0, 2, 3, 4}, map[Side]float64{SideWest: 4}},
		{"corner block", Rect{0, 0, 2, 3}, map[Side]float64{SideWest: 3, SideSouth: 2}},
		{"full width strip", Rect{0, 8, 10, 2}, map[Side]float64{SideWest: 2, SideEast: 2, SideNorth: 10}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := BoundaryContact(tt.inner, outer)
			if len(got) != len(tt.want) {
				t.Fatalf("BoundaryContact = %v, want %v", got, tt.want)
			}
			for side, l := range tt.want {
				if !almost(got[side], l, 1e-12) {
					t.Errorf("side %v: got %g, want %g", side, got[side], l)
				}
			}
		})
	}
}

func TestCenterDistanceAlong(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{2, 0, 4, 2} // east neighbour, centres at x=1 and x=4
	if got := CenterDistanceAlong(a, b); !almost(got, 3, 1e-12) {
		t.Errorf("CenterDistanceAlong east = %g, want 3", got)
	}
	c := Rect{0, 2, 2, 6} // north neighbour, centres at y=1 and y=5
	if got := CenterDistanceAlong(a, c); !almost(got, 4, 1e-12) {
		t.Errorf("CenterDistanceAlong north = %g, want 4", got)
	}
	d := Rect{10, 10, 1, 1} // not adjacent: Euclidean distance
	want := a.Center().Dist(d.Center())
	if got := CenterDistanceAlong(a, d); !almost(got, want, 1e-12) {
		t.Errorf("CenterDistanceAlong disjoint = %g, want %g", got, want)
	}
}

func TestAnyOverlapAndTiling(t *testing.T) {
	outer := Rect{0, 0, 4, 4}
	tiles := []Rect{
		{0, 0, 2, 4},
		{2, 0, 2, 2},
		{2, 2, 2, 2},
	}
	if i, j := AnyOverlap(tiles); i != -1 || j != -1 {
		t.Errorf("AnyOverlap = (%d,%d), want (-1,-1)", i, j)
	}
	if !IsTiling(tiles, outer, 1e-9) {
		t.Error("exact tiling not recognised")
	}
	// Introduce an overlap.
	bad := append([]Rect{}, tiles...)
	bad[2] = Rect{1.5, 2, 2.5, 2}
	if i, _ := AnyOverlap(bad); i == -1 {
		t.Error("overlap not detected")
	}
	if IsTiling(bad, outer, 1e-9) {
		t.Error("overlapping set reported as tiling")
	}
	// Leave a gap.
	gap := tiles[:2]
	if IsTiling(gap, outer, 1e-9) {
		t.Error("gapped set reported as tiling")
	}
	// Out-of-bounds tile.
	oob := []Rect{{-1, 0, 2, 4}, {1, 0, 3, 4}}
	if IsTiling(oob, outer, 1e-9) {
		t.Error("out-of-bounds set reported as tiling")
	}
}

func TestPointOps(t *testing.T) {
	p := Point{1, 2}
	q := Point{4, 6}
	if got := p.Dist(q); !almost(got, 5, 1e-12) {
		t.Errorf("Dist = %g, want 5", got)
	}
	if p.String() == "" || (Rect{}).String() == "" {
		t.Error("String() should be non-empty")
	}
}

func TestTotalArea(t *testing.T) {
	rects := []Rect{{0, 0, 1, 1}, {0, 0, 2, 3}}
	if got := TotalArea(rects); !almost(got, 7, 1e-12) {
		t.Errorf("TotalArea = %g, want 7", got)
	}
	if got := TotalArea(nil); got != 0 {
		t.Errorf("TotalArea(nil) = %g, want 0", got)
	}
}

// pairScanOverlap is the O(n²) reference AnyOverlap must agree with: the
// first overlapping pair in (i, j) lexicographic order.
func pairScanOverlap(rects []Rect) (int, int) {
	for i := range rects {
		for j := i + 1; j < len(rects); j++ {
			if rects[i].Overlaps(rects[j]) {
				return i, j
			}
		}
	}
	return -1, -1
}

// randomOverlapSet draws rectangles on a coarse grid, so exact overlaps,
// shared edges and duplicates are common, then perturbs some coordinates by
// less than (or just over) Eps and poisons a few with NaN or ±Inf.
func randomOverlapSet(rng *rand.Rand) []Rect {
	const step = 1e-3
	rects := make([]Rect, rng.Intn(40))
	coord := func(lo, hi int) float64 { return float64(lo+rng.Intn(hi-lo+1)) * step }
	specials := [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for k := range rects {
		if k > 0 && rng.Intn(8) == 0 {
			rects[k] = rects[rng.Intn(k)] // duplicate
			continue
		}
		r := Rect{X: coord(0, 8), Y: coord(0, 8), W: coord(1, 3), H: coord(1, 3)}
		for _, v := range []*float64{&r.X, &r.Y, &r.W, &r.H} {
			switch rng.Intn(40) {
			case 0, 1, 2:
				*v += (rng.Float64()*2 - 1) * 1.5 * Eps
			case 3:
				*v = specials[rng.Intn(len(specials))]
			}
		}
		rects[k] = r
	}
	return rects
}

// TestAnyOverlapMatchesPairScan: the sweep names exactly the pair the pair
// scan names, on seeded random sets full of ties, touching edges, offsets
// within Eps, duplicates and non-finite coordinates.
func TestAnyOverlapMatchesPairScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	found := 0
	for trial := 0; trial < 20000; trial++ {
		rects := randomOverlapSet(rng)
		wi, wj := pairScanOverlap(rects)
		if gi, gj := AnyOverlap(rects); gi != wi || gj != wj {
			t.Fatalf("trial %d: AnyOverlap = (%d,%d), pair scan (%d,%d) on %v", trial, gi, gj, wi, wj, rects)
		}
		if wi >= 0 {
			found++
		}
	}
	if found < 1000 || found > 19000 {
		t.Errorf("%d of 20000 sets overlap; the generator should mix both outcomes", found)
	}
}
