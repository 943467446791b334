package power

import (
	"errors"
	"math"
	"testing"

	"repro/internal/floorplan"
)

func fig1Profile(t *testing.T) *Profile {
	t.Helper()
	fp := floorplan.Figure1SoC()
	functional := make([]float64, fp.NumBlocks())
	factors := make([]float64, fp.NumBlocks())
	for i := range functional {
		functional[i] = 10
		factors[i] = 1.5
	}
	p, err := FromFactors(fp, functional, factors)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewProfileValidation(t *testing.T) {
	fp := floorplan.Figure1SoC()
	n := fp.NumBlocks()
	good := make([]float64, n)
	tests := []struct {
		name             string
		functional, test []float64
		wantErr          error
	}{
		{"short functional", good[:2], good, ErrShape},
		{"short test", good, good[:2], ErrShape},
		{"negative functional", append([]float64{-1}, good[1:]...), good, ErrNegative},
		{"NaN test", good, append([]float64{math.NaN()}, good[1:]...), ErrNegative},
		{"inf test", good, append([]float64{math.Inf(1)}, good[1:]...), ErrNegative},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewProfile(fp, tt.functional, tt.test)
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
	if _, err := NewProfile(fp, good, good); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
}

func TestFromFactors(t *testing.T) {
	p := fig1Profile(t)
	for i := 0; i < p.Floorplan().NumBlocks(); i++ {
		if got := p.Test(i); math.Abs(got-15) > 1e-12 {
			t.Errorf("Test(%d) = %g, want 15", i, got)
		}
		if got := p.Test(i) / p.Functional(i); math.Abs(got-1.5) > 1e-12 {
			t.Errorf("test factor of core %d = %g, want 1.5", i, got)
		}
	}
	fp := floorplan.Figure1SoC()
	n := fp.NumBlocks()
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	if _, err := FromFactors(fp, ones, ones[:2]); !errors.Is(err, ErrShape) {
		t.Errorf("short factors: err = %v, want ErrShape", err)
	}
	bad := append([]float64{0.5}, ones[1:]...)
	if _, err := FromFactors(fp, ones, bad); !errors.Is(err, ErrBadFactor) {
		t.Errorf("factor < 1: err = %v, want ErrBadFactor", err)
	}
	bad[0] = 12
	if _, err := FromFactors(fp, ones, bad); !errors.Is(err, ErrBadFactor) {
		t.Errorf("factor > 10: err = %v, want ErrBadFactor", err)
	}
}

func TestDensityAndTotals(t *testing.T) {
	p := fig1Profile(t)
	fp := p.Floorplan()
	c2, _ := fp.IndexOf("C2")
	c5, _ := fp.IndexOf("C5")
	// Paper's motivating ratio: C2's test power density is 4× C5's.
	ratio := p.TestDensity(c2) / p.TestDensity(c5)
	if math.Abs(ratio-4) > 1e-9 {
		t.Errorf("density ratio C2/C5 = %g, want 4", ratio)
	}
}

func TestTestPowerMap(t *testing.T) {
	p := fig1Profile(t)
	fp := p.Floorplan()
	c2, _ := fp.IndexOf("C2")
	c3, _ := fp.IndexOf("C3")
	pm, err := p.TestPowerMap([]int{c2, c3})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for i, w := range pm {
		total += w
		active := i == c2 || i == c3
		if active && w != 15 {
			t.Errorf("active core %d power %g, want 15", i, w)
		}
		if !active && w != 0 {
			t.Errorf("passive core %d power %g, want 0", i, w)
		}
	}
	if math.Abs(total-30) > 1e-12 {
		t.Errorf("total power %g, want 30", total)
	}
	if got := p.SessionPower([]int{c2, c3}); math.Abs(got-30) > 1e-12 {
		t.Errorf("SessionPower = %g, want 30", got)
	}
	if _, err := p.TestPowerMap([]int{99}); !errors.Is(err, ErrShape) {
		t.Errorf("out-of-range index: err = %v, want ErrShape", err)
	}
	if pm, err := p.TestPowerMap(nil); err != nil || len(pm) != fp.NumBlocks() {
		t.Errorf("empty session map failed: %v", err)
	}
}

func TestProfileCopiesInputs(t *testing.T) {
	fp := floorplan.Figure1SoC()
	n := fp.NumBlocks()
	functional := make([]float64, n)
	test := make([]float64, n)
	for i := range functional {
		functional[i], test[i] = 5, 10
	}
	p, err := NewProfile(fp, functional, test)
	if err != nil {
		t.Fatal(err)
	}
	functional[0] = 999
	test[0] = 999
	if p.Functional(0) != 5 || p.Test(0) != 10 {
		t.Error("Profile aliases caller slices")
	}
}
