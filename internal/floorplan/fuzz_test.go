package floorplan

import (
	"math"
	"testing"

	"repro/internal/geom"
)

// rectBits reports whether a and b hold bit-identical coordinates.
func rectBits(a, b geom.Rect) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.W) == math.Float64bits(b.W) &&
		math.Float64bits(a.H) == math.Float64bits(b.H)
}

// FuzzFloorplanParse feeds arbitrary text to the ".flp" parser, which the
// schedule service runs on request bodies. Parse must never panic, and every
// floorplan it accepts must survive a Format/ParseString round trip with the
// same block names and bit-identical rectangles and die — the content
// address of an inline floorplan depends on it.
func FuzzFloorplanParse(f *testing.F) {
	for _, fp := range []*Floorplan{Alpha21364(), Figure1SoC()} {
		f.Add(Format(fp))
	}
	for _, s := range []string{
		"",
		"# comment only\n\n",
		"a 1e-3 1e-3 0 0\nb 1e-3 1e-3 1e-3 0 7 extra\n",
		"a 1e-3 1e-3 0\n",
		"a x 1e-3 0 0\n",
		"a 1e-3 1e-3 0 0\na 1e-3 1e-3 1e-3 0\n",
		"a 2e-3 2e-3 0 0\nb 2e-3 2e-3 1e-3 1e-3\n",
		"a NaN 1 0 0\n",
		"a +Inf 1 0 0\n",
		"a 0 1 0 0\n",
		"a -1e-3 1e-3 -0 0\n",
		"a 1e308 1e308 1e308 1e308\nb 1e308 1e308 -1e308 -1e308\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		fp, err := ParseString(text, "fuzz")
		if err != nil {
			return
		}
		out := Format(fp)
		back, err := ParseString(out, "fuzz")
		if err != nil {
			t.Fatalf("accepted floorplan does not re-parse: %v\n%s", err, out)
		}
		if back.NumBlocks() != fp.NumBlocks() {
			t.Fatalf("round trip has %d blocks, want %d", back.NumBlocks(), fp.NumBlocks())
		}
		for i := 0; i < fp.NumBlocks(); i++ {
			a, b := fp.Block(i), back.Block(i)
			if a.Name != b.Name || !rectBits(a.Rect, b.Rect) {
				t.Fatalf("block %d: round trip %q %v, want %q %v", i, b.Name, b.Rect, a.Name, a.Rect)
			}
		}
		if !rectBits(fp.Die(), back.Die()) {
			t.Fatalf("die: round trip %v, want %v", back.Die(), fp.Die())
		}
	})
}
