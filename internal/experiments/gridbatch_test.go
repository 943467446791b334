package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

// TestGridScheduleByteIdenticalAcrossPaths is the acceptance check of the
// grid-scale fast path: the same workload validated on the same grid
// discretisation must render the byte-identical schedule whether sessions
// were validated one at a time or through the speculative batch, with or
// without a memo cache. GOMAXPROCS is forced to 4 so the batch calls (phase
// 1 on every arm, the phase-2 chains on the batched one) really fan their
// grid solves out across goroutines (GridOracle's batch path runs at
// GOMAXPROCS width). CI runs this under -race.
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
	base := core.Config{TL: 165, STCL: 60}

	gm, err := thermal.NewGridModel(spec.Floorplan(), pkg, 24, 24)
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.NewGridOracle(gm, spec.Profile())
	configs := map[string]core.Config{
		"serial":  base,
		"batched": {TL: base.TL, STCL: base.STCL, BatchValidate: true},
	}
	var want string
	for name, cfg := range configs {
		for _, o := range []core.Oracle{oracle, core.NewCachedOracle(oracle)} {
			res, err := core.Generate(spec, sm, o, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := res.Describe(spec)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s (%T) schedule differs:\n--- want ---\n%s\n--- got ---\n%s",
					name, o, want, got)
			}
		}
	}
}
