package baseline

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

func alphaOracle(t *testing.T) (spec *testspec.Spec, blockTemps BlockTempsFunc) {
	t.Helper()
	spec = testspec.Alpha21364()
	m, err := thermal.NewModel(spec.Floorplan(), thermal.DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	return spec, core.NewSimOracle(m, spec.Profile()).BlockTemps
}

func TestOptimalThermalProducesSafeMinimalSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("exponential DP in -short mode")
	}
	spec, blockTemps := alphaOracle(t)
	const tl = 165.0
	sc, err := OptimalThermal(spec, blockTemps, tl)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(spec); err != nil {
		t.Fatal(err)
	}
	checker := ThermalChecker{BlockTemps: blockTemps}
	viol, _, err := checker.Check(sc, tl)
	if err != nil {
		t.Fatal(err)
	}
	if len(viol) != 0 {
		t.Fatalf("optimal schedule violates: %+v", viol)
	}
	// Calibration floor: full concurrency exceeds 185 °C, so at least 2.
	if sc.NumSessions() < 2 {
		t.Errorf("NumSessions = %d, want >= 2", sc.NumSessions())
	}
	// Minimality cross-check: merging the first two sessions must violate
	// (otherwise the DP missed a shorter schedule).
	if sc.NumSessions() >= 2 {
		merged := append(sc.Sessions()[0].Cores(), sc.Sessions()[1].Cores()...)
		temps, err := blockTemps(merged)
		if err != nil {
			t.Fatal(err)
		}
		over := false
		for _, c := range merged {
			if temps[c] >= tl {
				over = true
			}
		}
		if !over {
			t.Error("first two optimal sessions merge safely — schedule was not minimal")
		}
	}
}

func TestOptimalThermalMonotoneInTL(t *testing.T) {
	if testing.Short() {
		t.Skip("exponential DP in -short mode")
	}
	spec, blockTemps := alphaOracle(t)
	prev := -1
	for _, tl := range []float64{150, 165, 185} {
		sc, err := OptimalThermal(spec, blockTemps, tl)
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && sc.NumSessions() > prev {
			t.Errorf("TL=%.0f: sessions %d more than at tighter TL (%d)", tl, sc.NumSessions(), prev)
		}
		prev = sc.NumSessions()
	}
}

func TestOptimalThermalErrors(t *testing.T) {
	spec, blockTemps := alphaOracle(t)
	if _, err := OptimalThermal(spec, nil, 165); !errors.Is(err, ErrBaseline) {
		t.Errorf("nil oracle: err = %v, want ErrBaseline", err)
	}
	if _, err := OptimalThermal(spec, blockTemps, 0); !errors.Is(err, ErrBaseline) {
		t.Errorf("zero tl: err = %v, want ErrBaseline", err)
	}
	// TL below every solo temperature: infeasible.
	if _, err := OptimalThermal(spec, blockTemps, 60); !errors.Is(err, ErrInfeasible) {
		t.Errorf("infeasible tl: err = %v, want ErrInfeasible", err)
	}
	// Too many cores.
	big := bigSpec(t, 21)
	if _, err := OptimalThermal(big, blockTemps, 165); !errors.Is(err, ErrBaseline) {
		t.Errorf("oversize: err = %v, want ErrBaseline", err)
	}
}

// bigSpec builds an n-core uniform workload for limit tests.
func bigSpec(t *testing.T, n int) *testspec.Spec {
	t.Helper()
	fp, err := floorplan.Random(floorplan.RandomOptions{Blocks: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	functional := make([]float64, n)
	factors := make([]float64, n)
	for i := range functional {
		functional[i], factors[i] = 3, 2
	}
	prof, err := power.FromFactors(fp, functional, factors)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := testspec.UniformLength("big", prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}
