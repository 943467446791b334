package thermal_test

import (
	"fmt"
	"testing"

	"repro/internal/oraclestore"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

// TestGridDescCholSuffixThreshold pins where oraclestore.DescForGrid starts
// the "-chol" suffix: at 100,000 cells, whatever the grid's shape or options.
// Unbudgeted grids past 2²⁴ factor non-zeros once answered by CG, so their
// unsuffixed record files may hold CG bits; the symbolic check confirms that
// they lie inside the suffix: 332×332 is past that fill, and 316×316, the
// largest square without the suffix, is not. It lives in the thermal test
// package because the fill needs the grid's unexported assembly.
func TestGridDescCholSuffixThreshold(t *testing.T) {
	spec := testspec.Alpha21364()
	cfg := thermal.DefaultPackageConfig()
	for _, c := range []struct {
		nx, ny int
		chol   bool
	}{
		{48, 48, false},
		{316, 316, false},
		{317, 317, true},
		{332, 332, true},
		{1000, 99, false},
		{1000, 100, true},
		{1024, 1024, true},
	} {
		want := fmt.Sprintf("grid-nd-%dx%d", c.nx, c.ny)
		if c.chol {
			want += "-chol"
		}
		for _, opts := range []thermal.GridOptions{{}, {PeakBytesBudget: 1 << 20}} {
			got := oraclestore.DescForGrid(spec.Floorplan(), cfg, spec.Profile(), c.nx, c.ny, opts).Backend
			if got != want {
				t.Errorf("%d×%d %+v: Backend = %q, want %q", c.nx, c.ny, opts, got, want)
			}
		}
	}

	if testing.Short() || thermal.RaceEnabled {
		// Pure integer counting with no concurrency, like the 256×256
		// ordering rung.
		t.Skip("332×332 and 316×316 symbolic analyses skipped in -short mode and under -race")
	}
	for _, c := range []struct {
		n    int
		over bool
	}{{316, false}, {332, true}} {
		fill, err := thermal.GridFactorFill(c.n, c.n)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d×%d: nd fill %d", c.n, c.n, fill)
		if over := fill > 1<<24; over != c.over {
			t.Errorf("%d×%d: fill %d past 2^24 = %v, want %v", c.n, c.n, fill, over, c.over)
		}
	}
}
