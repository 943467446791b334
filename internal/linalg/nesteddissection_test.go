package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkPerm asserts perm is a valid permutation of [0, n).
func checkPerm(t *testing.T, perm []int, n int) {
	t.Helper()
	if len(perm) != n {
		t.Fatalf("perm has %d entries, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			t.Fatalf("invalid permutation of [0,%d): %v", n, perm)
		}
		seen[p] = true
	}
}

func TestNestedDissectionGridPermutation(t *testing.T) {
	for _, c := range []struct{ nx, ny, layers int }{
		{0, 5, 1}, {5, 0, 2}, {1, 1, 1}, {1, 1, 3}, {4, 4, 1},
		{7, 3, 2}, {16, 16, 2}, {9, 31, 1}, {12, 12, 4},
	} {
		perm := NestedDissectionGrid(c.nx, c.ny, c.layers)
		checkPerm(t, perm, c.nx*c.ny*c.layers)
	}
}

// solveOrderings are the elimination orders the solve-identity tests factor
// under: the nil-perm default (hub-aware RCM) and the geometric
// nested-dissection order of an n×1 strip, a bisection-shaped permutation
// whose bushy elimination tree differs from RCM's long chains.
var solveOrderings = []struct {
	name string
	perm func(n int) []int
}{
	{"rcm", func(int) []int { return nil }},
	{"nd", func(n int) []int { return NestedDissectionGrid(n, 1, 1) }},
}

// factorWith analyses s under perm and factorizes it with the scalar kernel.
func factorWith(t *testing.T, s *Sparse, perm []int) *SparseCholesky {
	t.Helper()
	sym, err := NewCholSymbolic(s, perm)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := sym.Factorize(s)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestSolveSparseIntoBitIdenticalToSolveInto(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, ord := range solveOrderings {
		for trial := 0; trial < 6; trial++ {
			n := 40 + rng.Intn(300)
			s := randConductance(n, rng)
			ch := factorWith(t, s, ord.perm(n))
			// A sparse right-hand side touching a handful of entries, with a
			// duplicated index to exercise idempotent scatter.
			b := make([]float64, n)
			var nz []int
			for j := 0; j < 4; j++ {
				i := rng.Intn(n)
				b[i] = 10 * rng.Float64()
				nz = append(nz, i)
			}
			nz = append(nz, nz[0])
			want := make([]float64, n)
			if err := ch.SolveInto(want, b); err != nil {
				t.Fatal(err)
			}
			got := make([]float64, n)
			if err := ch.SolveSparseInto(got, b, nz); err != nil {
				t.Fatal(err)
			}
			checkClosure(t, fmt.Sprintf("%s trial %d", ord.name, trial), ch, nz, got, want)
			// Second solve reuses the pooled scratch — the zero invariant
			// must hold.
			b2 := make([]float64, n)
			b2[nz[0]], b2[nz[1]] = b[nz[0]], b[nz[1]]
			if err := ch.SolveSparseInto(got, b2, nz[:2]); err != nil {
				t.Fatal(err)
			}
			if err := ch.SolveInto(want, b2); err != nil {
				t.Fatal(err)
			}
			checkClosure(t, fmt.Sprintf("%s trial %d pooled re-solve", ord.name, trial), ch, nz[:2], got, want)
		}
	}
	// A clustered footprint on a large grid keeps the closure far below the
	// full-solve threshold, pinning the closure loops themselves (the
	// random-graph trials above mostly exercise the masked full solve).
	big := buildLaplacian(40, 40)
	ch := factorWith(t, big, NestedDissectionGrid(40, 40, 1))
	b := make([]float64, 1600)
	nz := []int{5, 6, 45, 46} // a 2×2 corner patch
	for _, i := range nz {
		b[i] = 7.5
	}
	want := make([]float64, 1600)
	if err := ch.SolveInto(want, b); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 1600)
	if err := ch.SolveSparseInto(got, b, nz); err != nil {
		t.Fatal(err)
	}
	if sh := closureShareOf(ch, nz); sh > closureShare {
		t.Fatalf("clustered footprint: closure holds %.2f of L, past the gate", sh)
	}
	checkClosure(t, "clustered footprint", ch, nz, got, want)
	// Out-of-range nz must be rejected before any scratch is dirtied.
	s := buildLaplacian(4, 4)
	small, err := NewSparseCholesky(s)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 16)
	if err := small.SolveSparseInto(buf, buf, []int{16}); err == nil {
		t.Error("out-of-range nz index should fail")
	}
}

// TestSpilledSolveIntoNDGridBitIdentical: the out-of-core solve streams each
// panel and runs its columns at segment offsets, so on two-layer
// nested-dissection grids with a hub, over uniform and padded panels, a
// spilled factor must answer bit for bit like the in-core factor.
func TestSpilledSolveIntoNDGridBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, d := range []int{24, 64} {
		s, perm := layeredGrid(d, d, 2, rng)
		sym, err := NewCholSymbolic(s, perm)
		if err != nil {
			t.Fatal(err)
		}
		ss := sym.Supernodes()
		uniform := 0
		for _, u := range ss.uniform {
			if u {
				uniform++
			}
		}
		if uniform == 0 || uniform == ss.ns {
			t.Fatalf("%d²: %d of %d panels uniform, want both kinds", d, uniform, ss.ns)
		}
		inCore, err := ss.Factorize(s)
		if err != nil {
			t.Fatal(err)
		}
		budget := spillFixedBytes(ss) + 2*spillMaxSegBytes(ss)
		spilled, err := ss.FactorizeSpill(s, SpillPolicy{BudgetBytes: budget, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if spilled.SpillStats().SpilledPanels == 0 {
			t.Fatalf("%d²: budget %d spilled nothing", d, budget)
		}
		n := s.n
		b, want, got := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		if err := inCore.SolveInto(want, b); err != nil {
			t.Fatal(err)
		}
		if err := spilled.SolveInto(got, b); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%d²: spilled SolveInto differs from in core at %d: %v vs %v",
					d, i, got[i], want[i])
			}
		}
		if err := spilled.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
