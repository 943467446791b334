package thermalsched

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/schedule"
)

// passiveNaN answers like its inner oracle at the active entries and NaN at
// every other one: the least an Oracle may answer.
type passiveNaN struct{ inner core.BatchOracle }

func maskPassive(temps []float64, active []int) []float64 {
	out := make([]float64, len(temps))
	for i := range out {
		out[i] = math.NaN()
	}
	for _, c := range active {
		out[c] = temps[c]
	}
	return out
}

func (o passiveNaN) BlockTemps(active []int) ([]float64, error) {
	temps, err := o.inner.BlockTemps(active)
	if err != nil {
		return nil, err
	}
	return maskPassive(temps, active), nil
}

func (o passiveNaN) BlockTempsBatch(sessions [][]int) ([][]float64, error) {
	temps, err := o.inner.BlockTempsBatch(sessions)
	if err != nil {
		return nil, err
	}
	for i, s := range sessions {
		temps[i] = maskPassive(temps[i], s)
	}
	return temps, nil
}

// withOracle returns a copy of s answering through o.
func withOracle(s *System, o core.Oracle) *System {
	env := *s.env
	env.Oracle = core.NewCachedOracle(o)
	return &System{env: &env, store: s.store}
}

// TestOracleContractPassiveEntriesUnread: every consumer of an Oracle reads
// it only at the active cores, so an oracle that leaves every passive entry
// NaN changes no answer — not the generator's schedule, effort or
// violations, not the baseline checker's
// verdicts and peak, not the optimal thermal schedule, and not
// System.SessionMaxTemp.
func TestOracleContractPassiveEntriesUnread(t *testing.T) {
	sys, err := NewSystem(AlphaWorkload(), DefaultPackage())
	if err != nil {
		t.Fatal(err)
	}
	masked := withOracle(sys, passiveNaN{sys.env.Sim})
	spec := sys.env.Spec

	rejected := 0
	for _, stcl := range []float64{30, 60, 150} {
		cfg := core.Config{TL: 150, STCL: stcl, AutoRaiseTL: true}
		want, err := core.Generate(spec, sys.env.SM, sys.env.Sim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.Generate(spec, masked.env.SM, masked.env.Oracle, cfg)
		if err != nil {
			t.Fatalf("STCL %g: %v", stcl, err)
		}
		if g, w := got.Describe(spec), want.Describe(spec); g != w {
			t.Errorf("STCL %g: schedule differs:\n--- want ---\n%s\n--- got ---\n%s", stcl, w, g)
		}
		if got.Attempts != want.Attempts || got.Violations != want.Violations {
			t.Errorf("STCL %g: %d attempts, %d violations, want %d, %d",
				stcl, got.Attempts, got.Violations, want.Attempts, want.Violations)
		}
		rejected += want.Violations
	}
	if rejected == 0 {
		t.Error("no generated session was rejected, so no violation verdict was compared")
	}

	// Every pair of cores in one session: some are hot enough to violate.
	var sessions []schedule.Session
	for i := 0; i+1 < spec.NumCores(); i += 2 {
		sessions = append(sessions, schedule.MustSession(i, i+1))
	}
	sc := schedule.New(sessions...)
	violated := false
	for _, tl := range []float64{100, 120, 150, 180} {
		wantV, wantPeak, err := baseline.ThermalChecker{BlockTemps: sys.env.Oracle.BlockTemps}.Check(sc, tl)
		if err != nil {
			t.Fatal(err)
		}
		gotV, gotPeak, err := baseline.ThermalChecker{BlockTemps: masked.env.Oracle.BlockTemps}.Check(sc, tl)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotV, wantV) || gotPeak != wantPeak {
			t.Errorf("TL %g: checker gave %v, peak %g; want %v, peak %g", tl, gotV, gotPeak, wantV, wantPeak)
		}
		violated = violated || len(wantV) > 0
	}
	if !violated {
		t.Error("no session violated any TL, so the checker's verdicts were never compared")
	}

	want, err := baseline.OptimalThermal(spec, sys.env.Oracle.BlockTemps, 165)
	if err != nil {
		t.Fatal(err)
	}
	got, err := baseline.OptimalThermal(spec, masked.env.Oracle.BlockTemps, 165)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := fmt.Sprint(got.Sessions()), fmt.Sprint(want.Sessions()); g != w {
		t.Errorf("optimal thermal schedule %s, want %s", g, w)
	}

	for _, active := range [][]int{{0}, {3, 9}, {1, 4, 7, 13}} {
		w, err := sys.SessionMaxTemp(active)
		if err != nil {
			t.Fatal(err)
		}
		g, err := masked.SessionMaxTemp(active)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("SessionMaxTemp(%v) = %g, want %g", active, g, w)
		}
	}
}

// nanAt answers like its inner oracle except at core bad, which it reports
// as NaN in a copy (an answer is read-only).
type nanAt struct {
	inner core.Oracle
	bad   int
}

func (o nanAt) BlockTemps(active []int) ([]float64, error) {
	temps, err := o.inner.BlockTemps(active)
	if err == nil {
		temps = slices.Clone(temps)
		temps[o.bad] = math.NaN()
	}
	return temps, err
}

// TestSessionMaxTempRejectsNonFiniteActiveCore: a NaN at an active core is
// an error, not a NaN maximum (math.Max propagates it) that every TL
// comparison reads as safe; a NaN at a passive core is not read.
func TestSessionMaxTempRejectsNonFiniteActiveCore(t *testing.T) {
	sys, err := NewSystem(AlphaWorkload(), DefaultPackage())
	if err != nil {
		t.Fatal(err)
	}
	bad := withOracle(sys, nanAt{inner: sys.env.Sim, bad: 2})
	if mx, err := bad.SessionMaxTemp([]int{0, 2, 5}); err == nil || !strings.Contains(err.Error(), "core 2") {
		t.Errorf("NaN at active core 2: got %g, %v; want an error naming core 2", mx, err)
	}
	want, err := sys.SessionMaxTemp([]int{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := bad.SessionMaxTemp([]int{0, 5}); err != nil || got != want {
		t.Errorf("NaN at passive core 2: got %g, %v; want %g", got, err, want)
	}
}
