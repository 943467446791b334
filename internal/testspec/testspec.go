// Package testspec describes SoC test sets: for every core, the length of
// its test (seconds) and its power behaviour while testing. A Spec is the
// complete input of the test-scheduling problem — floorplan, power profile
// and per-core test descriptors — and is what both the thermal-aware
// scheduler (internal/core) and the power-constrained baselines
// (internal/baseline) consume.
package testspec

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/floorplan"
	"repro/internal/power"
)

// Common errors.
var (
	ErrShape  = errors.New("testspec: per-core vector length mismatch")
	ErrLength = errors.New("testspec: test length must be positive and finite")
)

// CoreTest describes one core's test.
type CoreTest struct {
	Core   int     // block index in the floorplan
	Name   string  // block name, for reporting
	Length float64 // test application time, seconds
	Power  float64 // average power while testing, W
}

// Spec is a validated, immutable test-scheduling problem instance.
type Spec struct {
	name    string
	fp      *floorplan.Floorplan
	profile *power.Profile
	tests   []CoreTest // one per block, in block order
}

// New builds a Spec from a power profile and per-core test lengths
// (seconds, one per block, all > 0).
func New(name string, profile *power.Profile, lengths []float64) (*Spec, error) {
	fp := profile.Floorplan()
	if len(lengths) != fp.NumBlocks() {
		return nil, fmt.Errorf("%w: lengths %d, blocks %d", ErrShape, len(lengths), fp.NumBlocks())
	}
	tests := make([]CoreTest, fp.NumBlocks())
	for i := range tests {
		l := lengths[i]
		if !(l > 0) || math.IsInf(l, 0) {
			return nil, fmt.Errorf("%w: core %d length %g", ErrLength, i, l)
		}
		tests[i] = CoreTest{
			Core:   i,
			Name:   fp.Block(i).Name,
			Length: l,
			Power:  profile.Test(i),
		}
	}
	return &Spec{name: name, fp: fp, profile: profile, tests: tests}, nil
}

// UniformLength builds a Spec where every core's test takes the same time.
// The DATE'05 evaluation uses 1-second tests, which makes schedule length
// equal to the session count.
func UniformLength(name string, profile *power.Profile, seconds float64) (*Spec, error) {
	lengths := make([]float64, profile.Floorplan().NumBlocks())
	for i := range lengths {
		lengths[i] = seconds
	}
	return New(name, profile, lengths)
}

// Name returns the spec's display name.
func (s *Spec) Name() string { return s.name }

// Floorplan returns the layout under test.
func (s *Spec) Floorplan() *floorplan.Floorplan { return s.fp }

// Profile returns the power profile.
func (s *Spec) Profile() *power.Profile { return s.profile }

// NumCores returns the number of cores (= floorplan blocks).
func (s *Spec) NumCores() int { return len(s.tests) }

// Test returns core i's test descriptor.
func (s *Spec) Test(i int) CoreTest { return s.tests[i] }

// TotalTestTime returns the sum of all test lengths — the length of a purely
// sequential schedule (s).
func (s *Spec) TotalTestTime() float64 {
	var t float64
	for _, ct := range s.tests {
		t += ct.Length
	}
	return t
}

// MaxTestLength returns the longest single test (s) — a lower bound on any
// schedule's length.
func (s *Spec) MaxTestLength() float64 {
	var mx float64
	for _, ct := range s.tests {
		if ct.Length > mx {
			mx = ct.Length
		}
	}
	return mx
}
