package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/testspec"
	"repro/internal/thermal"
)

func alphaSessionModel(t *testing.T) *SessionModel {
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
	return sm
}

// TestSessionBuilderMatchesSTC cross-checks the incremental O(degree) STC
// maintenance against the from-scratch SessionModel.STC on random greedy
// packings, with and without weights.
func TestSessionBuilderMatchesSTC(t *testing.T) {
	sm := alphaSessionModel(t)
	rng := rand.New(rand.NewSource(3))
	n := sm.NumCores()
	for trial := 0; trial < 200; trial++ {
		limit := 20 + 80*rng.Float64()
		var weights []float64
		if trial%2 == 1 {
			weights = make([]float64, n)
			for i := range weights {
				weights[i] = 1 + rng.Float64()
			}
		}
		b := newSessionBuilder(sm)
		for _, c := range rng.Perm(n) {
			added := b.tryAdd(c, weights, limit)
			// Cross-check the builder's decision against the from-scratch
			// model on the would-be session.
			candidate := append(append([]int(nil), b.members...), c)
			if added {
				candidate = b.members
			}
			stc, err := sm.STC(candidate, weights)
			if err != nil {
				t.Fatal(err)
			}
			if added && stc > limit*(1+1e-12) {
				t.Fatalf("trial %d: builder accepted %v at STC %.12f > limit %.12f",
					trial, candidate, stc, limit)
			}
			if !added && stc <= limit*(1-1e-12) {
				t.Fatalf("trial %d: builder rejected %v at STC %.12f <= limit %.12f",
					trial, candidate, stc, limit)
			}
		}
		if len(b.members) == 0 {
			continue
		}
		want, err := sm.STC(b.members, weights)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(b.maxTerm-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("trial %d: incremental STC %.12f != from-scratch %.12f for %v",
				trial, b.maxTerm, want, b.members)
		}
	}
}

func TestSessionBuilderReset(t *testing.T) {
	sm := alphaSessionModel(t)
	b := newSessionBuilder(sm)
	for c := 0; c < sm.NumCores(); c++ {
		b.tryAdd(c, nil, 1e9)
	}
	if len(b.members) != sm.NumCores() {
		t.Fatalf("unbounded limit packed %d of %d cores", len(b.members), sm.NumCores())
	}
	b.reset()
	if len(b.members) != 0 || b.maxTerm != 0 {
		t.Fatal("reset left members or maxTerm behind")
	}
	for i, a := range b.active {
		if a {
			t.Fatalf("reset left core %d active", i)
		}
	}
	// A fresh singleton after reset must match the solo STC exactly.
	if !b.tryAdd(3, nil, 1e9) {
		t.Fatal("singleton rejected at huge limit")
	}
	want, err := sm.STC([]int{3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.maxTerm-want) > 1e-12*want {
		t.Fatalf("post-reset singleton STC %.12f != %.12f", b.maxTerm, want)
	}
}

// TestForcedSingletonTinySTCL exercises the liveness guard end to end with an
// STCL so small that every session must be forced to a singleton, and checks
// the recorded STC values come from the forced path (above STCL).
func TestForcedSingletonTinySTCL(t *testing.T) {
	spec, sm, oracle := alphaGenSetup(t)
	res, err := Generate(spec, sm, NewCachedOracle(oracle), Config{TL: 185, STCL: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	n := spec.NumCores()
	if res.Schedule.NumSessions() != n {
		t.Fatalf("NumSessions = %d, want %d singletons", res.Schedule.NumSessions(), n)
	}
	if res.ForcedSingletons != n {
		t.Errorf("ForcedSingletons = %d, want %d", res.ForcedSingletons, n)
	}
	for i, rec := range res.Records {
		if rec.Session.Size() != 1 {
			t.Errorf("session %d has %d cores, want 1", i, rec.Session.Size())
		}
		if rec.STC <= 1e-6 {
			t.Errorf("forced session %d recorded STC %g, expected the (over-limit) solo STC", i, rec.STC)
		}
	}
	// The forced order must pick ascending weighted solo STC: each committed
	// singleton's STC is the smallest among the cores still unscheduled, so
	// the recorded sequence is non-decreasing (weights never grow here —
	// singletons are TL-safe after phase 1).
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i].STC < res.Records[i-1].STC-1e-9 {
			t.Errorf("forced singletons out of order: STC[%d]=%.4f < STC[%d]=%.4f",
				i, res.Records[i].STC, i-1, res.Records[i-1].STC)
		}
	}
}

// TestSessionBuilderRescoreMatchesRebuild checks the rule that lets the
// generator skip a rebuild after a violation: once a random subset of a
// candidate's members has its weight grown by 1.1, a fresh scan over the
// same remaining cores returns the same members in the same order with the
// same maxTerm bits when rescore is within STCL, and something else (other
// members, or a forced singleton) when it is not.
func TestSessionBuilderRescoreMatchesRebuild(t *testing.T) {
	reused, rebuilt := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		_, sm, _ := randomGenSetup(t, []int{10, 20, 40, 80}[seed%4], seed)
		n := sm.NumCores()
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 60; trial++ {
			weights := make([]float64, n)
			remaining := make([]bool, n)
			for i := range weights {
				weights[i] = 1 + rng.Float64()
				remaining[i] = rng.Intn(4) > 0
			}
			remaining[rng.Intn(n)] = true
			order := rng.Perm(n)
			g := &Generator{cfg: Config{STCL: 20 + 80*rng.Float64()}}

			b := newSessionBuilder(sm)
			session, _, forced, err := g.buildSession(b, order, remaining, weights)
			if err != nil {
				t.Fatal(err)
			}
			prev := slices.Clone(session)
			weights[prev[rng.Intn(len(prev))]] *= 1.1
			for _, c := range prev {
				if rng.Intn(2) == 0 {
					weights[c] *= 1.1
				}
			}
			stc := b.rescore(weights)
			if forced && stc <= g.cfg.STCL {
				t.Fatalf("seed %d trial %d: forced singleton %v rescored %v <= STCL %v",
					seed, trial, prev, stc, g.cfg.STCL)
			}

			fresh, freshSTC, freshForced, err := g.buildSession(newSessionBuilder(sm), order, remaining, weights)
			if err != nil {
				t.Fatal(err)
			}
			same := !freshForced && slices.Equal(fresh, prev)
			if stc <= g.cfg.STCL {
				reused++
				if !same || math.Float64bits(freshSTC) != math.Float64bits(stc) {
					t.Fatalf("seed %d trial %d: rescore %v <= STCL %v, but the rebuild gave %v (STC %v, forced %v), not %v",
						seed, trial, stc, g.cfg.STCL, fresh, freshSTC, freshForced, prev)
				}
			} else {
				rebuilt++
				if same {
					t.Fatalf("seed %d trial %d: rescore %v > STCL %v, but the rebuild gave the same %v",
						seed, trial, stc, g.cfg.STCL, prev)
				}
			}
		}
	}
	if reused == 0 || rebuilt == 0 {
		t.Fatalf("%d reusable and %d rebuilt candidates; want both cases covered", reused, rebuilt)
	}
	t.Logf("%d reusable, %d rebuilt", reused, rebuilt)
}
