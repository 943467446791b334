package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

func alphaSetup(t *testing.T) (*testspec.Spec, *thermal.Model, *SessionModel) {
	t.Helper()
	spec := testspec.Alpha21364()
	m, err := thermal.NewModel(spec.Floorplan(), thermal.DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewSessionModel(m, spec.Profile(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return spec, m, sm
}

func TestNewSessionModelRejectsMismatchedFloorplans(t *testing.T) {
	spec := testspec.Alpha21364()
	other := testspec.Figure1()
	m, err := thermal.NewModel(spec.Floorplan(), thermal.DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSessionModel(m, other.Profile(), 0); !errors.Is(err, ErrCore) {
		t.Errorf("mismatched floorplans: err = %v, want ErrCore", err)
	}
	if _, err := NewSessionModel(m, spec.Profile(), -1); !errors.Is(err, ErrCore) {
		t.Errorf("negative scale: err = %v, want ErrCore", err)
	}
}

func TestEquivalentRBounds(t *testing.T) {
	// Property: Rth(i) is at most the vertical resistance (the parallel
	// combination can only reduce it) and strictly positive.
	_, m, sm := alphaSetup(t)
	n := sm.NumCores()
	for i := 0; i < n; i++ {
		active := make([]bool, n)
		for j := range active {
			active[j] = true // worst case: every neighbour active
		}
		r, err := sm.EquivalentR(i, active)
		if err != nil {
			t.Fatal(err)
		}
		vert := m.VerticalR(i)
		limit := vert
		if rim, ok := m.RimR(i); ok {
			limit = 1 / (1/vert + 1/rim)
		}
		if r <= 0 || r > limit+1e-12 {
			t.Errorf("core %d: Rth = %g outside (0, %g]", i, r, limit)
		}
		// Solo (all passive) must not exceed the all-active value.
		solo := make([]bool, n)
		solo[i] = true
		rs, err := sm.EquivalentR(i, solo)
		if err != nil {
			t.Fatal(err)
		}
		if rs > r+1e-12 {
			t.Errorf("core %d: solo Rth %g exceeds all-active Rth %g", i, rs, r)
		}
	}
}

func TestEquivalentRMonotoneInActivation(t *testing.T) {
	// Activating any additional core never decreases anyone's Rth (it can
	// only remove heat-release paths). Property-based over random masks.
	_, _, sm := alphaSetup(t)
	n := sm.NumCores()
	rng := rand.New(rand.NewSource(17))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		active := make([]bool, n)
		for i := range active {
			active[i] = r.Intn(2) == 0
		}
		core := r.Intn(n)
		extra := r.Intn(n)
		before, err := sm.EquivalentR(core, active)
		if err != nil {
			return false
		}
		grown := append([]bool(nil), active...)
		grown[extra] = true
		after, err := sm.EquivalentR(core, grown)
		if err != nil {
			return false
		}
		return after >= before-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestEquivalentRArgErrors(t *testing.T) {
	_, _, sm := alphaSetup(t)
	if _, err := sm.EquivalentR(-1, make([]bool, sm.NumCores())); !errors.Is(err, ErrCore) {
		t.Errorf("negative index: err = %v, want ErrCore", err)
	}
	if _, err := sm.EquivalentR(0, make([]bool, 3)); !errors.Is(err, ErrCore) {
		t.Errorf("short mask: err = %v, want ErrCore", err)
	}
}

func TestSTCBasics(t *testing.T) {
	_, _, sm := alphaSetup(t)
	if stc, err := sm.STC(nil, nil); err != nil || stc != 0 {
		t.Errorf("empty session STC = %g, %v; want 0, nil", stc, err)
	}
	if _, err := sm.STC([]int{99}, nil); !errors.Is(err, ErrCore) {
		t.Errorf("bad index: err = %v, want ErrCore", err)
	}
	if _, err := sm.STC([]int{0}, []float64{1}); !errors.Is(err, ErrCore) {
		t.Errorf("short weights: err = %v, want ErrCore", err)
	}
}

func TestSTCMonotoneInSessionGrowth(t *testing.T) {
	// Adding a core never lowers STC: existing terms can only grow (Rth
	// monotone) and the max runs over a superset.
	_, _, sm := alphaSetup(t)
	n := sm.NumCores()
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		perm := rng.Perm(n)
		size := 1 + rng.Intn(n-1)
		session := perm[:size]
		extra := perm[size]
		before, err := sm.STC(session, nil)
		if err != nil {
			t.Fatal(err)
		}
		after, err := sm.STC(append(append([]int(nil), session...), extra), nil)
		if err != nil {
			t.Fatal(err)
		}
		if after < before-1e-12 {
			t.Fatalf("STC dropped from %g to %g when adding core %d to %v",
				before, after, extra, session)
		}
	}
}

func TestSTCMonotoneInWeights(t *testing.T) {
	_, _, sm := alphaSetup(t)
	n := sm.NumCores()
	session := []int{0, 3, 8}
	w1 := make([]float64, n)
	w2 := make([]float64, n)
	for i := range w1 {
		w1[i], w2[i] = 1, 1
	}
	w2[3] = 1.5
	s1, err := sm.STC(session, w1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sm.STC(session, w2)
	if err != nil {
		t.Fatal(err)
	}
	if s2 < s1 {
		t.Errorf("raising a weight lowered STC: %g -> %g", s1, s2)
	}
	// Weighting a core not in the session changes nothing.
	w3 := append([]float64(nil), w1...)
	w3[1] = 99
	s3, err := sm.STC(session, w3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s3-s1) > 1e-12 {
		t.Errorf("weight on absent core changed STC: %g -> %g", s1, s3)
	}
}

func TestSTCScaleDivides(t *testing.T) {
	spec := testspec.Alpha21364()
	m, err := thermal.NewModel(spec.Floorplan(), thermal.DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewSessionModel(m, spec.Profile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSessionModel(m, spec.Profile(), 50)
	if err != nil {
		t.Fatal(err)
	}
	session := []int{2, 5, 9}
	ra, err := a.STC(session, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.STC(session, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ra/50-rb) > 1e-9*ra {
		t.Errorf("scale not a pure divisor: raw %g, scaled %g", ra, rb)
	}
	if b.scale != 50 {
		t.Errorf("scale = %g, want 50", b.scale)
	}
}

func TestSTCDominatedByDensestCore(t *testing.T) {
	// The paper's intent: at equal power, a dense (small) core must carry a
	// larger STC term than a sparse (large) one, making it less packable.
	spec := testspec.Figure1()
	m, err := thermal.NewModel(spec.Floorplan(), thermal.DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewSessionModel(m, spec.Profile(), 0)
	if err != nil {
		t.Fatal(err)
	}
	fp := spec.Floorplan()
	c2, _ := fp.IndexOf("C2") // 5 mm², 15 W
	c5, _ := fp.IndexOf("C5") // 20 mm², 15 W
	s2, err := sm.STC([]int{c2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s5, err := sm.STC([]int{c5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !(s2 > s5) {
		t.Errorf("dense core STC %g not above sparse core STC %g", s2, s5)
	}
}

func TestSoloTCAndAccessors(t *testing.T) {
	spec, _, sm := alphaSetup(t)
	if sm.NumCores() != spec.NumCores() {
		t.Errorf("NumCores = %d, want %d", sm.NumCores(), spec.NumCores())
	}
	for i := 0; i < sm.NumCores(); i++ {
		if sm.SoloTC(i) <= 0 {
			t.Errorf("SoloTC(%d) = %g, want > 0", i, sm.SoloTC(i))
		}
		if sm.power[i] != spec.Test(i).Power {
			t.Errorf("power[%d] mismatch", i)
		}
	}
}

func TestSessionModelConsistentWithFullSim(t *testing.T) {
	// Fidelity (ablation A3 in miniature): STC must rank-correlate with the
	// full simulation's peak temperature across random sessions. The model
	// guides, so it only needs ordinal agreement, not absolute accuracy.
	spec, m, sm := alphaSetup(t)
	oracle := NewSimOracle(m, spec.Profile())
	rng := rand.New(rand.NewSource(31))
	n := spec.NumCores()
	type point struct{ stc, temp float64 }
	var pts []point
	for trial := 0; trial < 40; trial++ {
		perm := rng.Perm(n)
		size := 1 + rng.Intn(6)
		session := append([]int(nil), perm[:size]...)
		stc, err := sm.STC(session, nil)
		if err != nil {
			t.Fatal(err)
		}
		temps, err := oracle.BlockTemps(session)
		if err != nil {
			t.Fatal(err)
		}
		mx := math.Inf(-1)
		for _, c := range session {
			mx = math.Max(mx, temps[c])
		}
		pts = append(pts, point{stc, mx})
	}
	// Kendall-style concordance over all pairs.
	var concordant, discordant float64
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			ds := pts[i].stc - pts[j].stc
			dt := pts[i].temp - pts[j].temp
			switch {
			case ds*dt > 0:
				concordant++
			case ds*dt < 0:
				discordant++
			}
		}
	}
	tau := (concordant - discordant) / (concordant + discordant)
	if tau < 0.4 {
		t.Errorf("STC vs simulated peak concordance tau = %.2f, want >= 0.4", tau)
	}
}

func TestSessionModelOnRandomFloorplan(t *testing.T) {
	// The model must behave on arbitrary generated layouts, not just the
	// builtins.
	fp, err := floorplan.Random(floorplan.RandomOptions{Blocks: 24, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := thermal.NewModel(fp, thermal.DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	functional := make([]float64, fp.NumBlocks())
	factors := make([]float64, fp.NumBlocks())
	for i := range functional {
		functional[i] = 2 + float64(i%5)
		factors[i] = 2
	}
	prof, err := power.FromFactors(fp, functional, factors)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewSessionModel(m, prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, fp.NumBlocks())
	for i := range all {
		all[i] = i
	}
	stc, err := sm.STC(all, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !(stc > 0) || math.IsInf(stc, 0) || math.IsNaN(stc) {
		t.Errorf("STC on random floorplan = %g, want finite positive", stc)
	}
}
