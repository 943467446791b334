package linalg

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// randConductance assembles a random connected conductance network of
// dimension n — SPD and diagonally dominant by construction, like every
// matrix the thermal models produce.
func randConductance(n int, rng *rand.Rand) *Sparse {
	b := NewSparseBuilder(n)
	// A spanning chain keeps the graph connected, extra random edges add
	// irregular structure.
	for i := 1; i < n; i++ {
		b.AddConductance(i-1, i, rng.Float64()+0.05)
	}
	for k := 0; k < 4*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			b.AddConductance(i, j, rng.Float64()+0.01)
		}
	}
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.3 {
			b.AddGround(i, rng.Float64()+0.05)
		}
	}
	b.AddGround(0, 1) // at least one ground tie keeps it non-singular
	return b.Build()
}

func maxAbsDiff(a, b []float64) float64 {
	var mx float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > mx {
			mx = d
		}
	}
	return mx
}

func TestRCMIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 17, 60} {
		s := randConductance(n, rng)
		perm := RCM(s)
		if len(perm) != n {
			t.Fatalf("n=%d: perm has %d entries", n, len(perm))
		}
		seen := make([]bool, n)
		for _, p := range perm {
			if p < 0 || p >= n || seen[p] {
				t.Fatalf("n=%d: invalid permutation %v", n, perm)
			}
			seen[p] = true
		}
	}
}

// bandwidth returns the half-bandwidth of s under the ordering perm
// (perm[k] = original index placed k-th; nil means the identity): the
// largest |pos(i) − pos(j)| over stored entries.
func bandwidth(s *Sparse, perm []int) int {
	pos := make([]int, s.n)
	for k := range pos {
		pos[k] = k
	}
	for k, old := range perm {
		pos[old] = k
	}
	band := 0
	for i := 0; i < s.n; i++ {
		cols, _ := s.RowNZ(i)
		for _, j := range cols {
			band = max(band, pos[i]-pos[j], pos[j]-pos[i])
		}
	}
	return band
}

func TestRCMReducesLaplacianBandwidth(t *testing.T) {
	// Scramble a grid Laplacian's natural order, then check RCM recovers a
	// bandwidth close to the grid width (natural order gives nx).
	nx, ny := 12, 12
	base := buildLaplacian(nx, ny)
	rng := rand.New(rand.NewSource(7))
	shuffle := rng.Perm(nx * ny)
	b := NewSparseBuilder(nx * ny)
	for i := 0; i < base.n; i++ {
		cols, vals := base.RowNZ(i)
		for k, j := range cols {
			b.Add(shuffle[i], shuffle[j], vals[k])
		}
	}
	s := b.Build()
	before := bandwidth(s, nil)
	after := bandwidth(s, RCM(s))
	if after >= before {
		t.Fatalf("RCM bandwidth %d did not improve on scrambled %d", after, before)
	}
	if after > 3*nx {
		t.Errorf("RCM bandwidth %d far above grid width %d", after, nx)
	}
}

func TestRCMHandlesDisconnectedComponents(t *testing.T) {
	b := NewSparseBuilder(6)
	b.AddConductance(0, 1, 1)
	b.AddConductance(3, 4, 1)
	b.AddGround(2, 1)
	b.AddGround(5, 1)
	perm := RCM(b.Build())
	seen := make(map[int]bool)
	for _, p := range perm {
		seen[p] = true
	}
	if len(perm) != 6 || len(seen) != 6 {
		t.Fatalf("disconnected graph: perm = %v", perm)
	}
}

func TestSparseCholeskyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 5, 24, 75} {
		s := randConductance(n, rng)
		rhs := randomVec(n, rng)
		ch, err := NewSparseCholesky(s)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		xs, err := ch.Solve(rhs)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		xd, err := SolveSPD(s.Dense(), rhs)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := maxAbsDiff(xs, xd); d > 1e-8 {
			t.Errorf("n=%d: sparse/dense solutions differ by %g", n, d)
		}
		if ch.NNZ() < n {
			t.Errorf("n=%d: factor NNZ %d below n", n, ch.NNZ())
		}
	}
}

func TestSparseCholeskyLaplacianResidual(t *testing.T) {
	s := buildLaplacian(20, 20)
	ch, err := NewSparseCholesky(s)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, s.n)
	rhs[210] = 1
	x, err := ch.Solve(rhs)
	if err != nil {
		t.Fatal(err)
	}
	ax, err := s.MulVec(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := maxAbsDiff(ax, rhs); r > 1e-10 {
		t.Errorf("residual %g too large", r)
	}
}

func TestSparseCholeskySolveIntoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := randConductance(30, rng)
	ch, err := NewSparseCholesky(s)
	if err != nil {
		t.Fatal(err)
	}
	rhs := randomVec(30, rng)
	want, err := ch.Solve(rhs)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]float64(nil), rhs...)
	if err := ch.SolveInto(got, got); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, want); d > 1e-14 {
		t.Errorf("aliased SolveInto differs by %g", d)
	}
	if err := ch.SolveInto(got, rhs[:3]); !errors.Is(err, ErrShape) {
		t.Errorf("short rhs: err = %v, want ErrShape", err)
	}
}

func TestSparseCholeskySolveIntoAllocFree(t *testing.T) {
	s := buildLaplacian(16, 16)
	ch, err := NewSparseCholesky(s)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, s.n)
	rhs[7] = 1
	dst := make([]float64, s.n)
	if err := ch.SolveInto(dst, rhs); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := ch.SolveInto(dst, rhs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("SolveInto allocates %.1f objects per call, want 0", allocs)
	}
}

func TestSparseCholeskyConcurrentSolves(t *testing.T) {
	s := buildLaplacian(16, 16)
	ch, err := NewSparseCholesky(s)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, s.n)
	rhs[100] = 2
	want, err := ch.Solve(rhs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, s.n)
			for it := 0; it < 50; it++ {
				if err := ch.SolveInto(dst, rhs); err != nil {
					t.Error(err)
					return
				}
				if maxAbsDiff(dst, want) > 1e-14 {
					t.Error("concurrent solve corrupted result")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestSparseCholeskyRejectsNonSPD(t *testing.T) {
	// Asymmetric pattern.
	b := NewSparseBuilder(2)
	b.Add(0, 1, 3)
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	if _, err := NewSparseCholesky(b.Build()); !errors.Is(err, ErrNotSPD) {
		t.Errorf("asymmetric: err = %v, want ErrNotSPD", err)
	}
	// Symmetric but indefinite: off-diagonal dominates the diagonal.
	b2 := NewSparseBuilder(2)
	b2.Add(0, 0, 1)
	b2.Add(1, 1, 1)
	b2.Add(0, 1, -3)
	b2.Add(1, 0, -3)
	if _, err := NewSparseCholesky(b2.Build()); !errors.Is(err, ErrNotSPD) {
		t.Errorf("indefinite: err = %v, want ErrNotSPD", err)
	}
	b3 := NewSparseBuilder(2)
	b3.Add(0, 0, -1)
	b3.Add(1, 1, 1)
	if _, err := NewSparseCholesky(b3.Build()); !errors.Is(err, ErrNotSPD) {
		t.Errorf("negative diagonal: err = %v, want ErrNotSPD", err)
	}
}

func TestCholSymbolicFactorizeReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := randConductance(40, rng)
	sym, err := NewCholSymbolic(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sym.LNNZ() <= 0 {
		t.Fatal("LNNZ not positive")
	}
	// Same pattern, different values — the Crank–Nicolson use case.
	scaled := s.MapValues(func(i, j int, v float64) float64 {
		if i == j {
			return 3*v + 1
		}
		return 3 * v
	})
	for _, m := range []*Sparse{s, scaled} {
		ch, err := sym.Factorize(m)
		if err != nil {
			t.Fatal(err)
		}
		rhs := randomVec(40, rng)
		got, err := ch.Solve(rhs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SolveSPD(m.Dense(), rhs)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(got, want); d > 1e-8 {
			t.Errorf("symbolic-reuse solve differs from dense by %g", d)
		}
	}
	// A different pattern must be rejected.
	other := randConductance(40, rng)
	if _, err := sym.Factorize(other); !errors.Is(err, ErrShape) {
		t.Errorf("pattern mismatch: err = %v, want ErrShape", err)
	}
	if _, err := sym.Factorize(buildLaplacian(3, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("dimension mismatch: err = %v, want ErrShape", err)
	}
}

func TestCholSymbolicExplicitPermutation(t *testing.T) {
	s := buildLaplacian(6, 6)
	n := s.n
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	sym, err := NewCholSymbolic(s, identity)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := sym.Factorize(s)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, n)
	rhs[n/2] = 1
	got, err := ch.Solve(rhs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SolveSPD(s.Dense(), rhs)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, want); d > 1e-9 {
		t.Errorf("identity-permutation solve differs by %g", d)
	}
	if _, err := NewCholSymbolic(s, identity[:3]); !errors.Is(err, ErrShape) {
		t.Errorf("short perm: err = %v, want ErrShape", err)
	}
}

func TestRCMOrderingReducesFill(t *testing.T) {
	// On a grid Laplacian in scrambled order, the RCM symbolic fill must not
	// exceed the scrambled-identity fill (it is typically far lower).
	nx, ny := 14, 14
	base := buildLaplacian(nx, ny)
	rng := rand.New(rand.NewSource(23))
	shuffle := rng.Perm(nx * ny)
	b := NewSparseBuilder(nx * ny)
	for i := 0; i < base.n; i++ {
		cols, vals := base.RowNZ(i)
		for k, j := range cols {
			b.Add(shuffle[i], shuffle[j], vals[k])
		}
	}
	s := b.Build()
	identity := make([]int, s.n)
	for i := range identity {
		identity[i] = i
	}
	symID, err := NewCholSymbolic(s, identity)
	if err != nil {
		t.Fatal(err)
	}
	symRCM, err := NewCholSymbolic(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if symRCM.LNNZ() >= symID.LNNZ() {
		t.Errorf("RCM fill %d not below scrambled fill %d", symRCM.LNNZ(), symID.LNNZ())
	}
}

func TestIC0PreconditionerAcceleratesCG(t *testing.T) {
	s := buildLaplacian(30, 30)
	ic, err := NewIC0(s)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, s.n)
	rhs[450] = 1
	rhs[10] = -0.5

	xJac := make([]float64, s.n)
	itJac, err := s.SolveCGInto(xJac, rhs, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	xIC := make([]float64, s.n)
	itIC, err := s.SolveCGInto(xIC, rhs, CGOptions{Tol: 1e-10, Precond: ic})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(xJac, xIC); d > 1e-7 {
		t.Errorf("Jacobi and IC0 solutions differ by %g", d)
	}
	if itIC >= itJac {
		t.Errorf("IC0 iterations %d not below Jacobi %d", itIC, itJac)
	}
	// The factor must reproduce A approximately: on the Laplacian pattern
	// with no fill the relative residual of L·Lᵀ vs A stays moderate.
	if _, err := NewIC0(buildLaplacian(2, 2)); err != nil {
		t.Errorf("tiny IC0: %v", err)
	}
}

func TestIC0RejectsIndefinite(t *testing.T) {
	b := NewSparseBuilder(2)
	b.Add(0, 0, -1)
	b.Add(1, 1, 1)
	if _, err := NewIC0(b.Build()); !errors.Is(err, ErrNotSPD) {
		t.Errorf("indefinite: err = %v, want ErrNotSPD", err)
	}
}

func TestSolveCGIntoScratchReuse(t *testing.T) {
	s := buildLaplacian(20, 20)
	rhs := make([]float64, s.n)
	rhs[210] = 1
	want, err := s.SolveCG(rhs, CGOptions{Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	var sc CGScratch
	dst := make([]float64, s.n)
	for call := 0; call < 3; call++ { // scratch reuse must not perturb results
		iters, err := s.SolveCGInto(dst, rhs, CGOptions{Tol: 1e-11, Scratch: &sc})
		if err != nil {
			t.Fatal(err)
		}
		if iters <= 0 {
			t.Fatalf("call %d: iteration count %d", call, iters)
		}
		if d := maxAbsDiff(dst, want); d > 1e-12 {
			t.Fatalf("call %d: scratch solve differs by %g", call, d)
		}
	}
}

func TestSolveCGIntoScratchAllocFree(t *testing.T) {
	s := buildLaplacian(12, 12)
	rhs := make([]float64, s.n)
	rhs[60] = 1
	dst := make([]float64, s.n)
	var sc CGScratch
	if _, err := s.SolveCGInto(dst, rhs, CGOptions{Tol: 1e-8, Scratch: &sc}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.SolveCGInto(dst, rhs, CGOptions{Tol: 1e-8, Scratch: &sc}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("SolveCGInto with scratch allocates %.1f objects per call, want 0", allocs)
	}
}
