package testspec

import (
	"math"
	"strings"
	"testing"

	"repro/internal/floorplan"
)

// FuzzTestSpecParse feeds arbitrary text to the test-spec parser over the
// alpha21364 floorplan, as the schedule service does with inline request
// bodies. Parse must never panic, and every spec it accepts must carry
// exactly one test per block, in block order, with a finite length > 0 and
// a finite test power >= 0.
func FuzzTestSpecParse(f *testing.F) {
	fp := floorplan.Alpha21364()
	valid := Format(Alpha21364())
	f.Add(valid)
	lines := strings.SplitAfter(valid, "\n")
	first := lines[2] // the first core line, after the two header comments
	fields := strings.Fields(first)
	for _, s := range []string{
		"",
		"# comment only\n",
		strings.Join(lines[:len(lines)-2], ""), // a core left out
		valid + first,                          // a core twice
		strings.Replace(valid, fields[0], "NoSuchCore", 1),            // unknown name
		strings.Replace(valid, first, fields[0]+" 1 2\n", 1),          // too few fields
		strings.Replace(valid, first, fields[0]+" 1 2 3 4\n", 1),      // too many fields
		strings.Replace(valid, first, fields[0]+" 1 x 1\n", 1),        // bad number
		strings.Replace(valid, first, fields[0]+" 1 2 0\n", 1),        // zero length
		strings.Replace(valid, first, fields[0]+" 1 2 NaN\n", 1),      // NaN length
		strings.Replace(valid, first, fields[0]+" 1 +Inf 1\n", 1),     // infinite power
		strings.Replace(valid, first, fields[0]+" 1 -2 1\n", 1),       // negative power
		strings.Replace(valid, first, fields[0]+" -0 -0 1e-300\n", 1), // signed zeros
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := ParseString(text, "fuzz", fp)
		if err != nil {
			return
		}
		if spec.NumCores() != fp.NumBlocks() {
			t.Fatalf("%d tests for %d blocks", spec.NumCores(), fp.NumBlocks())
		}
		for i := 0; i < spec.NumCores(); i++ {
			ct := spec.Test(i)
			if ct.Core != i || ct.Name != fp.Block(i).Name {
				t.Fatalf("test %d is core %d %q, want %d %q", i, ct.Core, ct.Name, i, fp.Block(i).Name)
			}
			if !(ct.Length > 0) || math.IsInf(ct.Length, 0) {
				t.Fatalf("core %q: length %g, want finite and > 0", ct.Name, ct.Length)
			}
			if !(ct.Power >= 0) || math.IsInf(ct.Power, 0) {
				t.Fatalf("core %q: test power %g, want finite and >= 0", ct.Name, ct.Power)
			}
		}
	})
}
