package testspec

import (
	"errors"
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/thermal"
)

func TestAlpha21364Spec(t *testing.T) {
	spec := Alpha21364()
	if spec.NumCores() != 15 {
		t.Fatalf("NumCores = %d, want 15", spec.NumCores())
	}
	if got := spec.TotalTestTime(); math.Abs(got-15) > 1e-12 {
		t.Errorf("TotalTestTime = %g, want 15 (1 s per core)", got)
	}
	if got := spec.MaxTestLength(); got != 1 {
		t.Errorf("MaxTestLength = %g, want 1", got)
	}
	// All test factors must respect the paper's 1.5–8× envelope.
	prof := spec.Profile()
	for i := 0; i < spec.NumCores(); i++ {
		f := prof.Test(i) / prof.Functional(i)
		if f < 1.5-1e-9 || f > 8+1e-9 {
			t.Errorf("core %s factor %.2f outside [1.5, 8]", spec.Test(i).Name, f)
		}
	}
	// Test descriptors carry the profile's powers.
	for i := 0; i < spec.NumCores(); i++ {
		if spec.Test(i).Power != prof.Test(i) {
			t.Errorf("core %d test power mismatch", i)
		}
		if spec.Test(i).Core != i {
			t.Errorf("core %d index mismatch", i)
		}
	}
}

func TestAlphaBCMTSafeAtTightestLimit(t *testing.T) {
	// Phase 1 of Algorithm 1: every solo test must stay below the paper's
	// tightest limit TL = 145 °C, otherwise the flow demands a core redesign.
	// This pins the calibration of the builtin workload.
	spec := Alpha21364()
	m, err := thermal.NewModel(spec.Floorplan(), thermal.DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < spec.NumCores(); i++ {
		pm, err := spec.Profile().TestPowerMap([]int{i})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.SteadyState(pm)
		if err != nil {
			t.Fatal(err)
		}
		if bcmt := res.MaxTemp(); bcmt >= 145 {
			t.Errorf("core %s solo test reaches %.1f °C >= 145 °C", spec.Test(i).Name, bcmt)
		}
	}
}

func TestAlphaFullConcurrencyUnsafe(t *testing.T) {
	// The other calibration anchor: testing all 15 cores at once must exceed
	// the paper's most relaxed limit (185 °C), so even TL = 185 needs at
	// least two sessions — Table 1 never reports fewer.
	spec := Alpha21364()
	m, err := thermal.NewModel(spec.Floorplan(), thermal.DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, spec.NumCores())
	for i := range all {
		all[i] = i
	}
	pm, err := spec.Profile().TestPowerMap(all)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.SteadyState(pm)
	if err != nil {
		t.Fatal(err)
	}
	if mx := res.MaxTemp(); mx <= 185 {
		t.Errorf("all-cores session peaks at %.1f °C, want > 185 °C", mx)
	}
}

func TestFigure1Spec(t *testing.T) {
	spec := Figure1()
	if spec.NumCores() != 7 {
		t.Fatalf("NumCores = %d, want 7", spec.NumCores())
	}
	for i := 0; i < spec.NumCores(); i++ {
		if got := spec.Test(i).Power; math.Abs(got-15) > 1e-12 {
			t.Errorf("core %d test power %g, want 15 W", i, got)
		}
		if got := spec.Test(i).Length; got != 1 {
			t.Errorf("core %d length %g, want 1 s", i, got)
		}
	}
}

func TestNewValidation(t *testing.T) {
	fp := floorplan.Figure1SoC()
	n := fp.NumBlocks()
	functional := make([]float64, n)
	test := make([]float64, n)
	for i := range functional {
		functional[i], test[i] = 10, 15
	}
	prof, err := power.NewProfile(fp, functional, test)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New("x", prof, []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Errorf("short lengths: err = %v, want ErrShape", err)
	}
	bad := make([]float64, n)
	for i := range bad {
		bad[i] = 1
	}
	bad[3] = 0
	if _, err := New("x", prof, bad); !errors.Is(err, ErrLength) {
		t.Errorf("zero length: err = %v, want ErrLength", err)
	}
	bad[3] = math.Inf(1)
	if _, err := New("x", prof, bad); !errors.Is(err, ErrLength) {
		t.Errorf("inf length: err = %v, want ErrLength", err)
	}
}

func TestNonUniformLengths(t *testing.T) {
	fp := floorplan.Figure1SoC()
	n := fp.NumBlocks()
	functional := make([]float64, n)
	test := make([]float64, n)
	lengths := make([]float64, n)
	for i := range functional {
		functional[i], test[i] = 10, 15
		lengths[i] = float64(i + 1)
	}
	prof, err := power.NewProfile(fp, functional, test)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := New("ramped", prof, lengths)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.TotalTestTime(); math.Abs(got-28) > 1e-12 {
		t.Errorf("TotalTestTime = %g, want 28", got)
	}
	if got := spec.MaxTestLength(); got != 7 {
		t.Errorf("MaxTestLength = %g, want 7", got)
	}
}
