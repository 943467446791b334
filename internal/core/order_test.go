package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/power"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

type orderCase struct {
	spec *testspec.Spec
	sm   *SessionModel
}

// tiedOrderCases builds seeded random SoCs shaped like the scaling
// experiment's (5–160 cores) plus a regular 8×8 grid of equal cores. Test
// powers come from {0, 1, 2, 3} W, so every policy's key ties often —
// including -0 against 0 for the unpowered cores' solo TC.
func tiedOrderCases(t testing.TB) []orderCase {
	t.Helper()
	var fps []*floorplan.Floorplan
	for _, n := range []int{5, 20, 40, 160} {
		for seed := int64(1); seed <= 3; seed++ {
			fp, err := floorplan.Random(floorplan.RandomOptions{Blocks: n, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			fps = append(fps, fp)
		}
	}
	var blocks []floorplan.Block
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			blocks = append(blocks, floorplan.Block{Name: fmt.Sprintf("c%d_%d", r, c),
				Rect: geom.Rect{X: float64(c) * 1e-3, Y: float64(r) * 1e-3, W: 1e-3, H: 1e-3}})
		}
	}
	grid, err := floorplan.New("grid8", geom.Rect{}, blocks)
	if err != nil {
		t.Fatal(err)
	}
	fps = append(fps, grid)

	cases := make([]orderCase, len(fps))
	for k, fp := range fps {
		rng := rand.New(rand.NewSource(int64(k)))
		functional := make([]float64, fp.NumBlocks())
		test := make([]float64, fp.NumBlocks())
		for i := range test {
			test[i] = float64(rng.Intn(4))
			functional[i] = test[i] / 2
		}
		prof, err := power.NewProfile(fp, functional, test)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := testspec.UniformLength(fp.Name(), prof, 1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := thermal.NewModel(fp, thermal.DefaultPackageConfig())
		if err != nil {
			t.Fatal(err)
		}
		sm, err := NewSessionModel(m, prof, 0)
		if err != nil {
			t.Fatal(err)
		}
		cases[k] = orderCase{spec: spec, sm: sm}
	}
	return cases
}

// soloMaskTC is TC(i) with only core i active, through the masked path.
func soloMaskTC(t testing.TB, sm *SessionModel, i int) float64 {
	mask := make([]bool, sm.NumCores())
	mask[i] = true
	tc, err := sm.TC(i, mask)
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

// referenceOrder is candidateOrder evaluating the policy key inside the
// comparator, with solo TC taken through the masked TC path.
func referenceOrder(t testing.TB, policy OrderPolicy, spec *testspec.Spec, sm *SessionModel) []int {
	idx := make([]int, spec.NumCores())
	for i := range idx {
		idx[i] = i
	}
	key := map[OrderPolicy]func(i int) float64{
		OrderByTCDesc:      func(i int) float64 { return -soloMaskTC(t, sm, i) },
		OrderByDensityDesc: func(i int) float64 { return -spec.Profile().TestDensity(i) },
		OrderByPowerDesc:   func(i int) float64 { return -spec.Test(i).Power },
		OrderByAreaAsc:     func(i int) float64 { return spec.Floorplan().Block(i).Area() },
		OrderInput:         func(int) float64 { return 0 },
	}[policy]
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := key(idx[a]), key(idx[b])
		if ka != kb {
			return ka < kb
		}
		return idx[a] < idx[b]
	})
	return idx
}

// TestCandidateOrderMatchesReference: precomputing the keys changes no
// order, for every policy, on SoCs with many tied keys.
func TestCandidateOrderMatchesReference(t *testing.T) {
	for _, tc := range tiedOrderCases(t) {
		for _, policy := range OrderPolicies() {
			got, err := candidateOrder(policy, tc.spec, tc.sm)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceOrder(t, policy, tc.spec, tc.sm); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%v: order %v, reference %v", tc.spec.Name(), policy, got, want)
			}
		}
	}
}

// TestSoloTCBitEqualsMaskedTC: SoloTC is bit-equal to TC with a solo mask.
func TestSoloTCBitEqualsMaskedTC(t *testing.T) {
	_, _, alpha := alphaSetup(t)
	sms := []*SessionModel{alpha}
	for _, tc := range tiedOrderCases(t) {
		sms = append(sms, tc.sm)
	}
	for _, sm := range sms {
		for i := 0; i < sm.NumCores(); i++ {
			got, want := sm.SoloTC(i), soloMaskTC(t, sm, i)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("SoloTC(%d) = %x, TC(solo mask) = %x", i, got, want)
			}
		}
	}
}

// TestSoloTCAndCandidateOrderAllocs: SoloTC allocates nothing, and
// candidateOrder's allocation count does not grow with the core count.
func TestSoloTCAndCandidateOrderAllocs(t *testing.T) {
	cases := tiedOrderCases(t)
	small, large := cases[0], cases[len(cases)-2] // 5 and 160 cores
	if a := testing.AllocsPerRun(100, func() { large.sm.SoloTC(7) }); a != 0 {
		t.Errorf("SoloTC allocs = %g, want 0", a)
	}
	for _, policy := range OrderPolicies() {
		allocs := func(tc orderCase) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := candidateOrder(policy, tc.spec, tc.sm); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a5, a160 := allocs(small), allocs(large); a5 != a160 || a160 > 4 {
			t.Errorf("%v: candidateOrder allocs %g at 5 cores, %g at 160; want equal and ≤ 4", policy, a5, a160)
		}
	}
}
