package baseline

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/schedule"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

func TestSequential(t *testing.T) {
	spec := testspec.Alpha21364()
	sc := Sequential(spec)
	if sc.NumSessions() != spec.NumCores() {
		t.Fatalf("NumSessions = %d, want %d", sc.NumSessions(), spec.NumCores())
	}
	if err := sc.Validate(spec); err != nil {
		t.Fatal(err)
	}
	if got := sc.Length(spec); math.Abs(got-spec.TotalTestTime()) > 1e-12 {
		t.Errorf("Length = %g, want %g", got, spec.TotalTestTime())
	}
}

func TestGreedyPowerRespectsBudget(t *testing.T) {
	spec := testspec.Alpha21364()
	for _, budget := range []float64{60, 100, 150, 400} {
		sc, err := GreedyPower(spec, budget)
		if err != nil {
			t.Fatalf("budget %g: %v", budget, err)
		}
		if err := sc.Validate(spec); err != nil {
			t.Fatalf("budget %g: %v", budget, err)
		}
		if got := sc.MaxSessionPower(spec); got > budget+1e-9 {
			t.Errorf("budget %g: session power %g exceeds budget", budget, got)
		}
	}
}

func TestGreedyPowerMonotoneInBudget(t *testing.T) {
	spec := testspec.Alpha21364()
	prev := math.MaxInt32
	for _, budget := range []float64{60, 90, 130, 200, 500} {
		sc, err := GreedyPower(spec, budget)
		if err != nil {
			t.Fatal(err)
		}
		if sc.NumSessions() > prev {
			t.Errorf("budget %g produced %d sessions, more than smaller budget's %d",
				budget, sc.NumSessions(), prev)
		}
		prev = sc.NumSessions()
	}
}

func TestGreedyPowerErrors(t *testing.T) {
	spec := testspec.Alpha21364()
	if _, err := GreedyPower(spec, 0); !errors.Is(err, ErrBaseline) {
		t.Errorf("zero budget: err = %v, want ErrBaseline", err)
	}
	// Budget below the largest single core.
	if _, err := GreedyPower(spec, 5); !errors.Is(err, ErrInfeasible) {
		t.Errorf("tiny budget: err = %v, want ErrInfeasible", err)
	}
}

func TestOptimalPowerMatchesGreedyOrBeats(t *testing.T) {
	spec := testspec.Alpha21364()
	for _, budget := range []float64{70, 100, 150, 250} {
		opt, err := OptimalPower(spec, budget)
		if err != nil {
			t.Fatalf("budget %g: %v", budget, err)
		}
		if err := opt.Validate(spec); err != nil {
			t.Fatal(err)
		}
		if got := opt.MaxSessionPower(spec); got > budget+1e-9 {
			t.Errorf("budget %g: optimal schedule session power %g over budget", budget, got)
		}
		greedy, err := GreedyPower(spec, budget)
		if err != nil {
			t.Fatal(err)
		}
		if opt.NumSessions() > greedy.NumSessions() {
			t.Errorf("budget %g: optimal %d sessions worse than greedy %d",
				budget, opt.NumSessions(), greedy.NumSessions())
		}
	}
}

func TestOptimalPowerKnownSmallCase(t *testing.T) {
	// Figure-1 workload: 7 cores × 15 W. Budget 45 W → ⌈7/3⌉ = 3 sessions.
	spec := testspec.Figure1()
	sc, err := OptimalPower(spec, 45)
	if err != nil {
		t.Fatal(err)
	}
	if sc.NumSessions() != 3 {
		t.Errorf("NumSessions = %d, want 3", sc.NumSessions())
	}
	// Budget 30 W → ⌈7/2⌉ = 4 sessions.
	sc, err = OptimalPower(spec, 30)
	if err != nil {
		t.Fatal(err)
	}
	if sc.NumSessions() != 4 {
		t.Errorf("NumSessions = %d, want 4", sc.NumSessions())
	}
}

func TestOptimalPowerErrors(t *testing.T) {
	spec := testspec.Figure1()
	if _, err := OptimalPower(spec, 0); !errors.Is(err, ErrBaseline) {
		t.Errorf("zero budget: err = %v, want ErrBaseline", err)
	}
	if _, err := OptimalPower(spec, 10); !errors.Is(err, ErrInfeasible) {
		t.Errorf("infeasible budget: err = %v, want ErrInfeasible", err)
	}
}

func TestThermalCheckerFindsFigure1Violation(t *testing.T) {
	// The paper's motivating result: under a 45 W budget both TS1 and TS2
	// are power-legal, but TS1 = {C2,C3,C4} overheats at TL = 120 °C while
	// TS2 = {C5,C6,C7} stays far below.
	spec := testspec.Figure1()
	m, err := thermal.NewModel(spec.Floorplan(), thermal.DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.NewSimOracle(m, spec.Profile())
	checker := ThermalChecker{BlockTemps: oracle.BlockTemps}

	fp := spec.Floorplan()
	idx := func(name string) int {
		i, err := fp.IndexOf(name)
		if err != nil {
			t.Fatal(err)
		}
		return i
	}
	ts1 := []int{idx("C2"), idx("C3"), idx("C4")}
	ts2 := []int{idx("C5"), idx("C6"), idx("C7")}

	// Both sessions respect the power budget.
	if p := spec.Profile().SessionPower(ts1); p > 45+1e-9 {
		t.Fatalf("TS1 power %g exceeds 45 W", p)
	}
	if p := spec.Profile().SessionPower(ts2); p > 45+1e-9 {
		t.Fatalf("TS2 power %g exceeds 45 W", p)
	}

	sc := schedule.New(
		schedule.MustSession(ts1...),
		schedule.MustSession(ts2...),
	)
	violations, peak, err := checker.Check(sc, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 {
		t.Fatalf("violations = %d, want exactly 1 (TS1 only): %+v", len(violations), violations)
	}
	if violations[0].Session != 0 {
		t.Errorf("violating session = %d, want 0 (TS1)", violations[0].Session)
	}
	if violations[0].Excess <= 0 {
		t.Errorf("Excess = %g, want > 0", violations[0].Excess)
	}
	if peak < 120 {
		t.Errorf("peak = %g, want >= 120", peak)
	}
	// The temperature discrepancy between the two equal-power sessions must
	// be large (paper: 125.5 °C vs 67.5 °C — a ~58 K gap).
	temps1, err := oracle.BlockTemps(ts1)
	if err != nil {
		t.Fatal(err)
	}
	temps2, err := oracle.BlockTemps(ts2)
	if err != nil {
		t.Fatal(err)
	}
	max1, max2 := maxAt(temps1, ts1), maxAt(temps2, ts2)
	if max1-max2 < 40 {
		t.Errorf("session temperature gap %.1f K, want >= 40 K (got %.1f vs %.1f)",
			max1-max2, max1, max2)
	}
}

func TestThermalCheckerNilOracle(t *testing.T) {
	spec := testspec.Figure1()
	sc := Sequential(spec)
	if _, _, err := (ThermalChecker{}).Check(sc, 100); !errors.Is(err, ErrBaseline) {
		t.Errorf("nil oracle: err = %v, want ErrBaseline", err)
	}
}

func TestSequentialIsThermalSafe(t *testing.T) {
	// A purely sequential schedule of the Alpha workload never violates the
	// tightest paper limit — the premise of Algorithm 1's phase 1.
	spec := testspec.Alpha21364()
	m, err := thermal.NewModel(spec.Floorplan(), thermal.DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.NewSimOracle(m, spec.Profile())
	checker := ThermalChecker{BlockTemps: oracle.BlockTemps}
	violations, peak, err := checker.Check(Sequential(spec), 145)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Errorf("sequential schedule has %d violations at 145 °C", len(violations))
	}
	if peak >= 145 || peak <= 45 {
		t.Errorf("sequential peak %g outside (ambient, 145)", peak)
	}
}

func TestGreedyPowerCanBeThermallyUnsafe(t *testing.T) {
	// The paper's thesis: power-constrained scheduling does not imply
	// thermal safety. With a generous budget, the greedy packs dense cores
	// together and busts a limit the thermal-aware scheduler would respect.
	spec := testspec.Alpha21364()
	m, err := thermal.NewModel(spec.Floorplan(), thermal.DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.NewSimOracle(m, spec.Profile())
	checker := ThermalChecker{BlockTemps: oracle.BlockTemps}
	sc, err := GreedyPower(spec, 250)
	if err != nil {
		t.Fatal(err)
	}
	violations, _, err := checker.Check(sc, 165)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) == 0 {
		t.Error("expected thermal violations from power-only scheduling at a 250 W budget")
	}
}

func maxAt(temps []float64, cores []int) float64 {
	mx := math.Inf(-1)
	for _, c := range cores {
		mx = math.Max(mx, temps[c])
	}
	return mx
}

// TestNonFiniteTemperatureRejectedByBaselines: a NaN compares false against
// TL and would read as safe, and +Inf is no temperature either, so both
// baseline consumers of an oracle fail with ErrBaseline when an active core's
// temperature is non-finite — as the generator does.
func TestNonFiniteTemperatureRejectedByBaselines(t *testing.T) {
	spec, blockTemps := alphaOracle(t)
	const poisoned = 2
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		oracle := func(active []int) ([]float64, error) {
			temps, err := blockTemps(active)
			if err != nil {
				return nil, err
			}
			temps = slices.Clone(temps) // an answer is read-only
			for _, c := range active {
				if c == poisoned {
					temps[c] = bad
				}
			}
			return temps, nil
		}
		if _, err := OptimalThermal(spec, oracle, 165); !errors.Is(err, ErrBaseline) {
			t.Errorf("OptimalThermal with a %g core: err = %v, want ErrBaseline", bad, err)
		}
		viol, _, err := ThermalChecker{BlockTemps: oracle}.Check(Sequential(spec), 165)
		if !errors.Is(err, ErrBaseline) {
			t.Errorf("Check with a %g core: violations %v, err = %v, want ErrBaseline", bad, viol, err)
		}
	}
}
