// Package power models per-core power dissipation: functional (normal
// operation) power, test-mode power, and the power maps consumed by the
// thermal simulator.
//
// The DATE'05 evaluation assigns each core a test power between 1.5× and 8×
// its functional power — scan testing toggles far more capacitance per cycle
// than functional operation (the paper cites industrial reports of up to 30×
// peak). Power density (W/m²) rather than raw power is what creates hot
// spots, which is the paper's central observation.
package power

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/floorplan"
)

// Common errors.
var (
	ErrShape     = errors.New("power: per-core vector length mismatch")
	ErrNegative  = errors.New("power: negative or non-finite power")
	ErrBadFactor = errors.New("power: test power factor outside plausible range")
)

// Profile binds a floorplan to per-core functional and test powers (W).
// Construct with NewProfile; the zero value is unusable.
type Profile struct {
	fp         *floorplan.Floorplan
	functional []float64
	test       []float64
}

// NewProfile validates and builds a power profile. functional and test must
// have one entry per floorplan block, all finite and non-negative.
func NewProfile(fp *floorplan.Floorplan, functional, test []float64) (*Profile, error) {
	n := fp.NumBlocks()
	if len(functional) != n || len(test) != n {
		return nil, fmt.Errorf("%w: functional %d, test %d, blocks %d",
			ErrShape, len(functional), len(test), n)
	}
	check := func(name string, v []float64) error {
		for i, p := range v {
			if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				return fmt.Errorf("%w: %s[%d] = %g", ErrNegative, name, i, p)
			}
		}
		return nil
	}
	if err := check("functional", functional); err != nil {
		return nil, err
	}
	if err := check("test", test); err != nil {
		return nil, err
	}
	p := &Profile{
		fp:         fp,
		functional: append([]float64(nil), functional...),
		test:       append([]float64(nil), test...),
	}
	return p, nil
}

// FromFactors builds a profile from functional powers and per-core test
// multipliers. Factors must lie in [1, 10]; the paper's range is 1.5–8.
func FromFactors(fp *floorplan.Floorplan, functional, factors []float64) (*Profile, error) {
	if len(factors) != fp.NumBlocks() {
		return nil, fmt.Errorf("%w: factors %d, blocks %d", ErrShape, len(factors), fp.NumBlocks())
	}
	test := make([]float64, len(factors))
	for i, f := range factors {
		if f < 1 || f > 10 || math.IsNaN(f) {
			return nil, fmt.Errorf("%w: factor[%d] = %g", ErrBadFactor, i, f)
		}
		if i < len(functional) {
			test[i] = functional[i] * f
		}
	}
	return NewProfile(fp, functional, test)
}

// Floorplan returns the floorplan the profile is bound to.
func (p *Profile) Floorplan() *floorplan.Floorplan { return p.fp }

// Functional returns core i's functional power (W).
func (p *Profile) Functional(i int) float64 { return p.functional[i] }

// Test returns core i's test power (W).
func (p *Profile) Test(i int) float64 { return p.test[i] }

// TestDensity returns core i's test power density (W/m²).
func (p *Profile) TestDensity(i int) float64 {
	return p.test[i] / p.fp.Block(i).Area()
}

// TestPowerMap returns the per-block power vector (W) for a test session in
// which exactly the cores in active are testing; all other cores are idle
// (zero power, matching the paper's thermally-grounded-passive-core
// assumption). Unknown indices are rejected.
func (p *Profile) TestPowerMap(active []int) ([]float64, error) {
	out := make([]float64, p.fp.NumBlocks())
	if err := p.TestPowerMapInto(out, active); err != nil {
		return nil, err
	}
	return out, nil
}

// TestPowerMapInto is TestPowerMap writing into a caller-provided buffer of
// length NumBlocks — the allocation-free variant hot oracle loops use.
func (p *Profile) TestPowerMapInto(dst []float64, active []int) error {
	if len(dst) != p.fp.NumBlocks() {
		return fmt.Errorf("%w: power buffer has %d entries, floorplan has %d blocks",
			ErrShape, len(dst), p.fp.NumBlocks())
	}
	for i := range dst {
		dst[i] = 0
	}
	for _, i := range active {
		if i < 0 || i >= len(dst) {
			return fmt.Errorf("%w: active core index %d out of range [0,%d)",
				ErrShape, i, len(dst))
		}
		dst[i] = p.test[i]
	}
	return nil
}

// SessionPower returns the summed test power (W) of the given active set —
// the quantity a classic power-constrained scheduler budgets against.
func (p *Profile) SessionPower(active []int) float64 {
	var s float64
	for _, i := range active {
		if i >= 0 && i < len(p.test) {
			s += p.test[i]
		}
	}
	return s
}
