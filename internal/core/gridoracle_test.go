package core

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

// gridWidths are the GOMAXPROCS values the batch tests run at: 1 answers
// every session in order on one goroutine, and 4 fans the per-session
// solves out across four goroutines that run concurrently, even on a
// single-CPU machine.
var gridWidths = []int{1, 4}

// setGridWidth sets GOMAXPROCS, the width the oracles' BlockTempsBatch paths
// fan out to, and restores the original value when the test ends.
func setGridWidth(t *testing.T, width int) {
	t.Helper()
	old := runtime.GOMAXPROCS(width)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// gridBatchOracles returns 24×24 grid oracles over alpha and over a seeded
// random SoC.
func gridBatchOracles(t *testing.T) map[string]*GridOracle {
	t.Helper()
	pkg := thermal.DefaultPackageConfig()
	spec := testspec.Alpha21364()
	alpha, err := thermal.NewGridModel(spec.Floorplan(), pkg, 24, 24)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := floorplan.Random(floorplan.RandomOptions{Blocks: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	functional := make([]float64, fp.NumBlocks())
	factors := make([]float64, fp.NumBlocks())
	for i := range functional {
		functional[i] = 2 + float64(i%5)
		factors[i] = 2
	}
	prof, err := power.FromFactors(fp, functional, factors)
	if err != nil {
		t.Fatal(err)
	}
	soc, err := thermal.NewGridModel(fp, pkg, 24, 24)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*GridOracle{
		"alpha":  NewGridOracle(alpha, spec.Profile()),
		"random": NewGridOracle(soc, prof),
	}
}

func TestGridOracleBatchBitIdenticalToBlockTemps(t *testing.T) {
	for _, width := range gridWidths {
		setGridWidth(t, width)
		testGridOracleBatchBitIdentical(t)
	}
}

func testGridOracleBatchBitIdentical(t *testing.T) {
	for name, o := range gridBatchOracles(t) {
		n := o.Grid().Floorplan().NumBlocks()
		solos := make([][]int, n)
		all := make([]int, n)
		for i := range solos {
			solos[i] = []int{i}
			all[i] = i
		}
		// Every session, solo or multi-core, is its own BlockTemps solve:
		// in order at width 1, up to four at once at width 4.
		batches := map[string][][]int{
			"all-solo": solos,
			"mixed":    {{0}, {1, 3}, all, {2}, {n - 1, 0, 4}, {5}},
			"multi":    {all[1:], {1}, {0, 2}, all, {2, 5}, all[3:], {3, 4, 6}, {0}, all[:5], {1, 6}},
			"repeated": {{2, 6}, {1}, {2, 6}, {6, 2}, all, all},
			"single":   {{1, 4}},
			"no-cores": {{}, {3}},
			"empty":    {},
		}
		for bname, sessions := range batches {
			got, err := o.BlockTempsBatch(sessions)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d %s/%s: %v", runtime.GOMAXPROCS(0), name, bname, err)
			}
			if len(got) != len(sessions) {
				t.Fatalf("GOMAXPROCS=%d %s/%s: %d results for %d sessions",
					runtime.GOMAXPROCS(0), name, bname, len(got), len(sessions))
			}
			for i, s := range sessions {
				want, err := o.BlockTemps(s)
				if err != nil {
					t.Fatal(err)
				}
				for b := range want {
					active := slices.Contains(s, b)
					if math.Float64bits(got[i][b]) != math.Float64bits(want[b]) || active == math.IsNaN(want[b]) {
						t.Fatalf("GOMAXPROCS=%d %s/%s session %d %v block %d (active %v): batch %v, BlockTemps %v",
							runtime.GOMAXPROCS(0), name, bname, i, s, b, active, got[i][b], want[b])
					}
				}
			}
		}
	}
}

func TestGridOracleBatchLowestIndexError(t *testing.T) {
	o := gridBatchOracles(t)["alpha"]
	n := o.Grid().Floorplan().NumBlocks()
	_, want := o.BlockTemps([]int{0, n + 3})
	if want == nil {
		t.Fatal("BlockTemps accepted an out-of-range core")
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	// Sessions on both sides of the failing ones are solved concurrently,
	// which must not mask or reorder the per-session error.
	sessions := [][]int{{0}, all, {1}, {2, 3}, {0, n + 3}, all[1:], {4}, {n + 9}, all[2:], {5}, all[3:], all}
	for _, width := range gridWidths {
		setGridWidth(t, width)
		_, got := o.BlockTempsBatch(sessions)
		if got == nil || got.Error() != want.Error() {
			t.Fatalf("GOMAXPROCS=%d: batch error = %v, want the index-4 session's %v", width, got, want)
		}
		if !errors.Is(got, power.ErrShape) {
			t.Errorf("GOMAXPROCS=%d: batch error %v does not wrap power.ErrShape", width, got)
		}
	}
}

func TestGridOracleMatchesDirectGridSolve(t *testing.T) {
	spec := testspec.Alpha21364()
	gm, err := thermal.NewGridModel(spec.Floorplan(), thermal.DefaultPackageConfig(), 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewGridOracle(gm, spec.Profile())

	active := []int{0, 3, 5, 8}
	temps, err := oracle.BlockTemps(active)
	if err != nil {
		t.Fatal(err)
	}
	if len(temps) != spec.NumCores() {
		t.Fatalf("got %d block temps, want %d", len(temps), spec.NumCores())
	}

	pm, err := spec.Profile().TestPowerMap(active)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gm.SteadyState(pm)
	if err != nil {
		t.Fatal(err)
	}
	for b := range temps {
		if slices.Contains(active, b) {
			if temps[b] != res.BlockMaxTemp(b) {
				t.Errorf("active block %d: oracle %g, direct %g", b, temps[b], res.BlockMaxTemp(b))
			}
		} else if !math.IsNaN(temps[b]) {
			t.Errorf("passive block %d: oracle %g, want NaN", b, temps[b])
		}
	}
	// Active cores must be hotter than ambient; a grid oracle that lost the
	// power deposit would return a flat field.
	amb := thermal.DefaultPackageConfig().Ambient
	for _, c := range active {
		if temps[c] <= amb+1 {
			t.Errorf("active core %d at %g °C, barely above ambient %g", c, temps[c], amb)
		}
	}
}

func TestGridOracleUnderCachedOracle(t *testing.T) {
	spec := testspec.Alpha21364()
	gm, err := thermal.NewGridModel(spec.Floorplan(), thermal.DefaultPackageConfig(), 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingOracle{Inner: NewGridOracle(gm, spec.Profile())}
	cached := NewCachedOracle(counting)
	a, err := cached.BlockTemps([]int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cached.BlockTemps([]int{4, 1})
	if err != nil {
		t.Fatal(err)
	}
	if counting.Calls() != 1 {
		t.Errorf("grid solves = %d, want 1 (memoized)", counting.Calls())
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("cached grid temps differ at block %d", i)
		}
	}
}
