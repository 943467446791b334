package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

// TestGridScheduleByteIdenticalAcrossPaths is the acceptance check of the
// grid-scale path: the same workload validated on the same grid
// discretisation must render the byte-identical schedule whether the grid
// oracle is queried directly or through a memo cache. GOMAXPROCS is forced
// to 4 so phase 1's batch call really fans its grid solves out across
// goroutines (GridOracle's batch path runs at GOMAXPROCS width). CI runs
// this under -race.
func TestGridScheduleByteIdenticalAcrossPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("grid-oracle generation in -short mode")
	}
	forceParallelism(t, 4)
	spec := testspec.Alpha21364()
	pkg := thermal.DefaultPackageConfig()
	m, err := thermal.NewModel(spec.Floorplan(), pkg)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := core.NewSessionModel(m, spec.Profile(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{TL: 165, STCL: 60}

	gm, err := thermal.NewGridModel(spec.Floorplan(), pkg, 24, 24)
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.NewGridOracle(gm, spec.Profile())
	var want string
	for _, o := range []core.Oracle{oracle, core.NewCachedOracle(oracle)} {
		res, err := core.Generate(spec, sm, o, cfg)
		if err != nil {
			t.Fatalf("%T: %v", o, err)
		}
		got := res.Describe(spec)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("%T schedule differs:\n--- want ---\n%s\n--- got ---\n%s", o, want, got)
		}
	}
}
