package floorplan

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
)

func simplePlan(t *testing.T) *Floorplan {
	t.Helper()
	fp, err := New("simple", geom.Rect{W: 4e-3, H: 4e-3}, []Block{
		{Name: "A", Rect: geom.Rect{X: 0, Y: 0, W: 2e-3, H: 4e-3}},
		{Name: "B", Rect: geom.Rect{X: 2e-3, Y: 0, W: 2e-3, H: 2e-3}},
		{Name: "C", Rect: geom.Rect{X: 2e-3, Y: 2e-3, W: 2e-3, H: 2e-3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestNewValidation(t *testing.T) {
	die := geom.Rect{W: 1e-2, H: 1e-2}
	ok := Block{Name: "X", Rect: geom.Rect{X: 0, Y: 0, W: 1e-3, H: 1e-3}}
	tests := []struct {
		name    string
		blocks  []Block
		wantErr error
	}{
		{"empty", nil, ErrEmpty},
		{"unnamed", []Block{{Rect: ok.Rect}}, ErrInvalidBlock},
		{"bad rect", []Block{{Name: "X", Rect: geom.Rect{W: -1, H: 1}}}, ErrInvalidBlock},
		{"duplicate", []Block{ok, {Name: "X", Rect: geom.Rect{X: 5e-3, Y: 0, W: 1e-3, H: 1e-3}}}, ErrDuplicateName},
		{"outside die", []Block{{Name: "X", Rect: geom.Rect{X: 9.5e-3, Y: 0, W: 1e-3, H: 1e-3}}}, ErrOutOfDie},
		{"overlap", []Block{ok, {Name: "Y", Rect: geom.Rect{X: 0.5e-3, Y: 0.5e-3, W: 1e-3, H: 1e-3}}}, ErrOverlap},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New("t", die, tt.blocks)
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("New() err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestNewDefaultsDieToBoundingBox(t *testing.T) {
	fp, err := New("bb", geom.Rect{}, []Block{
		{Name: "A", Rect: geom.Rect{X: 1e-3, Y: 2e-3, W: 1e-3, H: 1e-3}},
		{Name: "B", Rect: geom.Rect{X: 4e-3, Y: 0, W: 1e-3, H: 1e-3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	die := fp.Die()
	want := geom.Rect{X: 1e-3, Y: 0, W: 4e-3, H: 3e-3}
	if math.Abs(die.X-want.X) > 1e-12 || math.Abs(die.W-want.W) > 1e-12 ||
		math.Abs(die.Y-want.Y) > 1e-12 || math.Abs(die.H-want.H) > 1e-12 {
		t.Errorf("die = %v, want %v", die, want)
	}
}

func TestLookupAndAccessors(t *testing.T) {
	fp := simplePlan(t)
	if fp.NumBlocks() != 3 {
		t.Fatalf("NumBlocks = %d", fp.NumBlocks())
	}
	i, err := fp.IndexOf("B")
	if err != nil || i != 1 {
		t.Errorf("IndexOf(B) = %d, %v", i, err)
	}
	if _, err := fp.IndexOf("nope"); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("IndexOf(nope) err = %v, want ErrUnknownBlock", err)
	}
	names := fp.Names()
	if len(names) != 3 || names[0] != "A" || names[2] != "C" {
		t.Errorf("Names = %v", names)
	}
	if got := fp.TotalBlockArea(); math.Abs(got-16e-6) > 1e-15 {
		t.Errorf("TotalBlockArea = %g, want 16e-6", got)
	}
	if got := fp.Coverage(); math.Abs(got-1) > 1e-9 {
		t.Errorf("Coverage = %g, want 1", got)
	}
	if !fp.IsFullTiling() {
		t.Error("full tiling not recognised")
	}
	// Mutating the returned block slice must not affect the floorplan.
	fp.Blocks()[0].Name = "mutated"
	if fp.Block(0).Name != "A" {
		t.Error("Blocks() leaks internal state")
	}
	if !strings.Contains(fp.Describe(), "coverage") {
		t.Error("Describe() missing coverage line")
	}
	if fp.String() == "" {
		t.Error("String() empty")
	}
}

func TestAdjacencySimple(t *testing.T) {
	fp := simplePlan(t)
	adj := NewAdjacency(fp)
	if err := adj.Validate(); err != nil {
		t.Fatal(err)
	}
	a, _ := fp.IndexOf("A")
	b, _ := fp.IndexOf("B")
	c, _ := fp.IndexOf("C")
	if !adj.AreNeighbors(a, b) || !adj.AreNeighbors(a, c) || !adj.AreNeighbors(b, c) {
		t.Fatalf("expected all pairs adjacent: %s", adj.Describe())
	}
	// A touches B along x=2mm for y in [0,2mm].
	if got := adj.SharedLen(a, b); math.Abs(got-2e-3) > 1e-12 {
		t.Errorf("SharedLen(A,B) = %g, want 2e-3", got)
	}
	// A touches C along x=2mm for y in [2mm,4mm].
	if got := adj.SharedLen(a, c); math.Abs(got-2e-3) > 1e-12 {
		t.Errorf("SharedLen(A,C) = %g, want 2e-3", got)
	}
	if got := adj.SharedLen(b, c); math.Abs(got-2e-3) > 1e-12 {
		t.Errorf("SharedLen(B,C) = %g, want 2e-3", got)
	}
	if adj.Degree(a) != 2 {
		t.Errorf("Degree(A) = %d, want 2", adj.Degree(a))
	}
	// Every block touches the die boundary in this plan.
	for i := 0; i < fp.NumBlocks(); i++ {
		if len(adj.Rim(i)) == 0 {
			t.Errorf("block %s has no rim contact", fp.Block(i).Name)
		}
	}
	// A spans the full west edge: rim contact west length 4mm, plus north and
	// south segments of its width.
	var west float64
	for _, r := range adj.Rim(a) {
		if r.Side == geom.SideWest {
			west = r.Len
		}
	}
	if math.Abs(west-4e-3) > 1e-12 {
		t.Errorf("A west rim = %g, want 4e-3", west)
	}
	if adj.Floorplan() != fp {
		t.Error("Floorplan() identity lost")
	}
	if !strings.Contains(adj.Describe(), "RIM") {
		t.Error("Describe() missing rim annotations")
	}
}

func TestAdjacencyPathLen(t *testing.T) {
	fp := simplePlan(t)
	adj := NewAdjacency(fp)
	a, _ := fp.IndexOf("A")
	for _, n := range adj.Neighbors(a) {
		// Centre-to-centre x distance between A (centre x=1mm) and B/C
		// (centre x=3mm) is 2mm.
		if math.Abs(n.PathLen-2e-3) > 1e-12 {
			t.Errorf("PathLen to %s = %g, want 2e-3", fp.Block(n.Index).Name, n.PathLen)
		}
		if n.Side != geom.SideEast {
			t.Errorf("Side to %s = %v, want east", fp.Block(n.Index).Name, n.Side)
		}
	}
}

func TestAlpha21364(t *testing.T) {
	fp := Alpha21364()
	if fp.NumBlocks() != 15 {
		t.Fatalf("Alpha21364 has %d blocks, want 15", fp.NumBlocks())
	}
	if !fp.IsFullTiling() {
		t.Error("Alpha21364 should fully tile its die")
	}
	adj := NewAdjacency(fp)
	if err := adj.Validate(); err != nil {
		t.Fatal(err)
	}
	// Spot checks from the constructed layout.
	ic, _ := fp.IndexOf("Icache")
	dc, _ := fp.IndexOf("Dcache")
	l2, _ := fp.IndexOf("L2Base")
	if !adj.AreNeighbors(ic, dc) {
		t.Error("Icache and Dcache should be adjacent")
	}
	if !adj.AreNeighbors(ic, l2) {
		t.Error("Icache should touch L2Base")
	}
	fpAdd, _ := fp.IndexOf("FPAdd")
	if adj.AreNeighbors(fpAdd, l2) {
		t.Error("FPAdd should not touch L2Base")
	}
	// The area skew the evaluation depends on: largest block (L2Base) is much
	// larger than the smallest (IntReg).
	var minA, maxA float64 = math.Inf(1), 0
	for _, b := range fp.Blocks() {
		a := b.Area()
		minA = math.Min(minA, a)
		maxA = math.Max(maxA, a)
	}
	if maxA/minA < 10 {
		t.Errorf("area skew max/min = %.1f, want >= 10", maxA/minA)
	}
	// Every block must be connected (no isolated islands in a tiling).
	for i := 0; i < fp.NumBlocks(); i++ {
		if adj.Degree(i) == 0 {
			t.Errorf("block %s isolated", fp.Block(i).Name)
		}
	}
}

func TestFigure1SoC(t *testing.T) {
	fp := Figure1SoC()
	if fp.NumBlocks() != 7 {
		t.Fatalf("Figure1SoC has %d blocks, want 7", fp.NumBlocks())
	}
	if !fp.IsFullTiling() {
		t.Error("Figure1SoC should fully tile its die")
	}
	if err := NewAdjacency(fp).Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper's 4× power-density ratio between C2 and C5 at equal power
	// means area(C5) = 4 × area(C2).
	c2, _ := fp.IndexOf("C2")
	c5, _ := fp.IndexOf("C5")
	ratio := fp.Block(c5).Area() / fp.Block(c2).Area()
	if math.Abs(ratio-4) > 1e-9 {
		t.Errorf("area(C5)/area(C2) = %g, want 4", ratio)
	}
}

func TestBuiltinLookup(t *testing.T) {
	for _, name := range BuiltinNames() {
		fp, err := Builtin(name)
		if err != nil || fp == nil {
			t.Errorf("Builtin(%q) failed: %v", name, err)
		}
	}
	if _, err := Builtin("fig1"); err != nil {
		t.Errorf("alias fig1 failed: %v", err)
	}
	_, err := Builtin("bogus")
	var ub *UnknownBuiltinError
	if !errors.As(err, &ub) || ub.Name != "bogus" {
		t.Errorf("Builtin(bogus) err = %v, want UnknownBuiltinError", err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	orig := Alpha21364()
	text := Format(orig)
	back, err := ParseString(text, "roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	if back.NumBlocks() != orig.NumBlocks() {
		t.Fatalf("round trip lost blocks: %d vs %d", back.NumBlocks(), orig.NumBlocks())
	}
	for i, b := range orig.Blocks() {
		got := back.Block(i)
		if got.Name != b.Name {
			t.Errorf("block %d name %q vs %q", i, got.Name, b.Name)
		}
		if math.Abs(got.Rect.X-b.Rect.X) > 1e-12 || math.Abs(got.Rect.W-b.Rect.W) > 1e-12 {
			t.Errorf("block %q geometry drifted: %v vs %v", b.Name, got.Rect, b.Rect)
		}
	}
}

// TestFormatRoundTripBitExact: Format uses shortest round-trip float
// rendering, so parsing the text reproduces every rectangle bit for bit —
// the invariant that keeps a floorplan's content address stable when it
// travels as ".flp" text (e.g. through the schedule service's JSON API).
func TestFormatRoundTripBitExact(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		fp, err := Random(RandomOptions{Blocks: 17, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseString(Format(fp), fp.Name())
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range fp.Blocks() {
			if got := back.Block(i).Rect; got != b.Rect {
				t.Fatalf("seed %d block %d: %v round-tripped to %v", seed, i, b.Rect, got)
			}
		}
	}
}

func TestParseAcceptsCommentsAndExtras(t *testing.T) {
	src := `
# a comment

A	0.002	0.002	0.0	0.0	100.0 1.75e6
B	0.002	0.002	0.002	0.0
`
	fp, err := ParseString(src, "extras")
	if err != nil {
		t.Fatal(err)
	}
	if fp.NumBlocks() != 2 {
		t.Fatalf("NumBlocks = %d, want 2", fp.NumBlocks())
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"too few fields", "A 0.1 0.2 0.3\n"},
		{"bad number", "A x 0.2 0.3 0.4\n"},
		{"empty input", "# nothing\n"},
		{"overlapping blocks", "A 0.002 0.002 0 0\nB 0.002 0.002 0.001 0.001\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseString(tt.src, tt.name); err == nil {
				t.Error("expected error, got nil")
			}
		})
	}
}

func TestRandomFloorplans(t *testing.T) {
	for _, n := range []int{1, 2, 7, 15, 40, 120} {
		fp, err := Random(RandomOptions{Blocks: n, Seed: 7})
		if err != nil {
			t.Fatalf("Random(%d): %v", n, err)
		}
		if fp.NumBlocks() != n {
			t.Fatalf("Random(%d) produced %d blocks", n, fp.NumBlocks())
		}
		if !fp.IsFullTiling() {
			t.Errorf("Random(%d) not a full tiling", n)
		}
		if err := NewAdjacency(fp).Validate(); err != nil {
			t.Errorf("Random(%d) adjacency: %v", n, err)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, err := Random(RandomOptions{Blocks: 20, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(RandomOptions{Blocks: 20, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if Format(a) != Format(b) {
		t.Error("same seed produced different floorplans")
	}
	c, err := Random(RandomOptions{Blocks: 20, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if Format(a) == Format(c) {
		t.Error("different seeds produced identical floorplans")
	}
}

func TestRandomErrors(t *testing.T) {
	if _, err := Random(RandomOptions{Blocks: 0}); err == nil {
		t.Error("Blocks=0 should fail")
	}
	if _, err := Random(RandomOptions{Blocks: 2, AreaSkew: 1.5}); err == nil {
		t.Error("AreaSkew out of range should fail")
	}
	// Impossible: min dimension too large for the requested count.
	if _, err := Random(RandomOptions{Blocks: 1000, DieW: 1e-3, DieH: 1e-3, MinDim: 0.4e-3}); err == nil {
		t.Error("unsatisfiable MinDim should fail")
	}
}

func TestSortedNames(t *testing.T) {
	fp := simplePlan(t)
	got := SortedNames(fp)
	if got[0] != "A" || got[1] != "B" || got[2] != "C" {
		t.Errorf("SortedNames = %v", got)
	}
}

// TestNewNamesAnyOverlapPair: New's ErrOverlap names the first overlapping
// pair in declaration order, the same pair the O(n²) pair scan finds.
func TestNewNamesAnyOverlapPair(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	die := geom.Rect{W: 10e-3, H: 10e-3}
	mm := func(lo, hi int) float64 { return float64(lo+rng.Intn(hi-lo+1)) * 1e-3 }
	overlaps := 0
	for trial := 0; trial < 2000; trial++ {
		blocks := make([]Block, 2+rng.Intn(12))
		for k := range blocks {
			blocks[k] = Block{Name: fmt.Sprintf("b%d", k),
				Rect: geom.Rect{X: mm(0, 7), Y: mm(0, 7), W: mm(1, 3), H: mm(1, 3)}}
		}
		var want string
	scan:
		for i := range blocks {
			for j := i + 1; j < len(blocks); j++ {
				if blocks[i].Rect.Overlaps(blocks[j].Rect) {
					want = fmt.Sprintf("%q and %q", blocks[i].Name, blocks[j].Name)
					break scan
				}
			}
		}
		_, err := New("t", die, blocks)
		if want == "" {
			if err != nil {
				t.Fatalf("trial %d: New() = %v for a non-overlapping plan", trial, err)
			}
			continue
		}
		overlaps++
		if !errors.Is(err, ErrOverlap) || !strings.HasSuffix(err.Error(), want) {
			t.Fatalf("trial %d: New() = %v, want ErrOverlap naming %s", trial, err, want)
		}
	}
	if overlaps < 100 {
		t.Errorf("only %d overlapping plans drawn", overlaps)
	}
}
