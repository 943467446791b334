package linalg

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// shape is one supernode-partition shape, as supernodes takes it; procs is
// the GOMAXPROCS the numeric factorization runs under (0 leaves it as is).
type shape struct {
	width, zeros int
	ratio        float64
	procs        int
}

// oneShape is the shape Supernodes builds.
var oneShape = shape{width: panelWidth, zeros: relaxZeros, ratio: relaxRatio}

func (sh shape) of(sym *CholSymbolic) *SuperSymbolic {
	return sym.supernodes(sh.width, sh.zeros, sh.ratio)
}

// factorPair builds the scalar and supernodal factors of s under perm and
// fails the test unless both succeed.
func factorPair(t *testing.T, s *Sparse, perm []int, sh shape) (*SparseCholesky, *SparseCholesky) {
	t.Helper()
	sym, err := NewCholSymbolic(s, perm)
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := sym.Factorize(s)
	if err != nil {
		t.Fatal(err)
	}
	if sh.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(sh.procs))
	}
	super, err := sh.of(sym).Factorize(s)
	if err != nil {
		t.Fatal(err)
	}
	return scalar, super
}

// requireSameFactor asserts the two factors match bit for bit.
func requireSameFactor(t *testing.T, scalar, super *SparseCholesky) {
	t.Helper()
	if len(scalar.lx) != len(super.lx) {
		t.Fatalf("factor nnz differs: scalar %d, supernodal %d", len(scalar.lx), len(super.lx))
	}
	for p := range scalar.li {
		if scalar.li[p] != super.li[p] {
			t.Fatalf("li[%d] differs: scalar %d, supernodal %d", p, scalar.li[p], super.li[p])
		}
	}
	for p := range scalar.lx {
		if math.Float64bits(scalar.lx[p]) != math.Float64bits(super.lx[p]) {
			t.Fatalf("lx[%d] differs: scalar %g (%#x), supernodal %g (%#x)",
				p, scalar.lx[p], math.Float64bits(scalar.lx[p]),
				super.lx[p], math.Float64bits(super.lx[p]))
		}
	}
}

func TestSupernodalBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		name string
		s    *Sparse
		perm []int
	}{
		{"rand100-rcm", randConductance(100, rng), nil},
		{"rand257-rcm", randConductance(257, rng), nil},
		{"grid16x16-nd", buildLaplacian(16, 16), NestedDissectionGrid(16, 16, 1)},
		{"grid31x9-nd", buildLaplacian(31, 9), NestedDissectionGrid(31, 9, 1)},
		{"grid24x24-rcm", buildLaplacian(24, 24), nil},
		{"grid40x40-nd", buildLaplacian(40, 40), NestedDissectionGrid(40, 40, 1)},
	}
	optsList := []shape{
		oneShape,                                // the one shape
		{panelWidth, relaxZeros, relaxRatio, 4}, // parallel schedule
		{4, relaxZeros, relaxRatio, 2},          // tiny panels
		{panelWidth, 0, 0, 0},                   // relaxation off
		{64, 64, relaxRatio, 3},                 // aggressive merging
	}
	for _, c := range cases {
		for oi, opts := range optsList {
			scalar, super := factorPair(t, c.s, c.perm, opts)
			requireSameFactor(t, scalar, super)
			_ = oi

			// Solves must match bit for bit too: scalar factor vs supernodal factor.
			n := c.s.n
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			xScalar := make([]float64, n)
			xSuper := make([]float64, n)
			if err := scalar.SolveInto(xScalar, b); err != nil {
				t.Fatal(err)
			}
			if err := super.SolveInto(xSuper, b); err != nil {
				t.Fatal(err)
			}
			for i := range xScalar {
				if math.Float64bits(xScalar[i]) != math.Float64bits(xSuper[i]) {
					t.Fatalf("%s opts[%d]: SolveInto differs at %d: %g vs %g",
						c.name, oi, i, xScalar[i], xSuper[i])
				}
			}
		}
	}
}

// checkPartition asserts the structural invariants of a supernode partition:
// panels tile the columns in order, each panel's columns form one etree
// chain, below rows are ascending and past the block, the quotient tree
// points upward, and relaxed padding respects sh's bound.
func checkPartition(t *testing.T, ss *SuperSymbolic, sh shape) {
	t.Helper()
	sym := ss.sym
	n := sym.n
	if ss.first[0] != 0 || ss.first[ss.ns] != n {
		t.Fatalf("panels do not tile [0,%d): first=%v", n, ss.first)
	}
	var padTotal int64
	for s := 0; s < ss.ns; s++ {
		f, l := ss.first[s], ss.first[s+1]
		if l <= f {
			t.Fatalf("panel %d empty: [%d,%d)", s, f, l)
		}
		if l-f > sh.width {
			t.Fatalf("panel %d width %d exceeds width %d", s, l-f, sh.width)
		}
		for j := f; j < l; j++ {
			if int(ss.snode[j]) != s {
				t.Fatalf("snode[%d] = %d, want %d", j, ss.snode[j], s)
			}
			if j+1 < l && sym.parent[j] != j+1 {
				t.Fatalf("panel %d columns are not an etree chain: parent[%d]=%d", s, j, sym.parent[j])
			}
		}
		rows := ss.rows[ss.rptr[s]:ss.rptr[s+1]]
		prev := l - 1
		for _, r := range rows {
			if int(r) <= prev {
				t.Fatalf("panel %d below rows not ascending past the block: %v", s, rows)
			}
			prev = int(r)
		}
		// Recompute padding from the factor structure and check the relax
		// bound and the uniform flag.
		var genuine int64
		for j := f; j < l; j++ {
			genuine += int64(sym.colPtr[j+1] - sym.colPtr[j])
		}
		w := int64(l - f)
		packed := w*int64(len(rows)) + w*(w+1)/2
		pad := packed - genuine
		if pad < 0 {
			t.Fatalf("panel %d: packed %d < genuine %d", s, packed, genuine)
		}
		bound := int64(sh.zeros)
		if rb := int64(sh.ratio * float64(packed)); rb > bound {
			bound = rb
		}
		if pad > 0 && pad > bound {
			t.Fatalf("panel %d: padding %d exceeds relax bound %d", s, pad, bound)
		}
		if ss.uniform[s] != (pad == 0) {
			t.Fatalf("panel %d: uniform=%v but pad=%d", s, ss.uniform[s], pad)
		}
		if p := ss.sparent[s]; p != -1 && (p <= s || p >= ss.ns) {
			t.Fatalf("sparent[%d] = %d not upward", s, p)
		}
		padTotal += pad
	}
	if padTotal != ss.PaddedZeros() {
		t.Fatalf("PaddedZeros() = %d, recomputed %d", ss.PaddedZeros(), padTotal)
	}
}

func TestSupernodePartitionProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(300)
		s := randConductance(n, rng)
		sh := shape{
			width: 1 + rng.Intn(48),
			zeros: rng.Intn(40) - 1,
			ratio: float64(rng.Intn(30)-1) / 100,
		}
		sym, err := NewCholSymbolic(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, sh.of(sym), sh)
	}
	for _, d := range [][2]int{{1, 1}, {1, 17}, {13, 13}, {32, 32}} {
		s := buildLaplacian(d[0], d[1])
		sym, err := NewCholSymbolic(s, NestedDissectionGrid(d[0], d[1], 1))
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, sym.Supernodes(), oneShape)
	}
}

func FuzzSupernodeDetection(f *testing.F) {
	f.Add(int64(1), 50, 16, 8, 10)
	f.Add(int64(2), 120, 4, -1, -1)
	f.Add(int64(3), 200, 64, 64, 25)
	f.Fuzz(func(t *testing.T, seed int64, n, maxPanel, relaxZeros, relaxPct int) {
		if n < 1 || n > 400 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		s := randConductance(n, rng)
		sym, err := NewCholSymbolic(s, nil)
		if err != nil {
			t.Skip()
		}
		sh := shape{width: 1 + (maxPanel%64+64)%64, zeros: relaxZeros, ratio: float64(relaxPct) / 100}
		ss := sh.of(sym)
		checkPartition(t, ss, sh)
		scalar, err := sym.Factorize(s)
		if err != nil {
			t.Skip()
		}
		super, err := ss.Factorize(s)
		if err != nil {
			t.Fatalf("scalar factored but supernodal failed: %v", err)
		}
		requireSameFactor(t, scalar, super)
	})
}

// TestSupernodalParallelDeterminism factors the same matrix repeatedly with a
// parallel schedule under different GOMAXPROCS and demands byte-identical
// factors — the run-to-run schedule varies, the bits must not. Under -race
// this also exercises the etree-parallel scheduling for data races.
func TestSupernodalParallelDeterminism(t *testing.T) {
	s := buildLaplacian(40, 40)
	sym, err := NewCholSymbolic(s, NestedDissectionGrid(40, 40, 1))
	if err != nil {
		t.Fatal(err)
	}
	ss := sym.Supernodes()
	ref, err := ss.Factorize(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 5; rep++ {
			ch, err := ss.Factorize(s)
			if err != nil {
				runtime.GOMAXPROCS(old)
				t.Fatal(err)
			}
			for p := range ch.lx {
				if math.Float64bits(ch.lx[p]) != math.Float64bits(ref.lx[p]) {
					runtime.GOMAXPROCS(old)
					t.Fatalf("GOMAXPROCS=%d rep %d: lx[%d] differs", procs, rep, p)
				}
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// TestSupernodalRejectsNonSPD checks the supernodal path reports the same
// first failing pivot as the scalar path, serial and parallel.
func TestSupernodalRejectsNonSPD(t *testing.T) {
	// An indefinite matrix: a Laplacian with a strongly negative diagonal tie.
	b := NewSparseBuilder(30)
	for i := 0; i+1 < 30; i++ {
		b.AddConductance(i, i+1, 1)
	}
	b.AddGround(0, 1)
	b.Add(17, 17, -5)
	s := b.Build()
	sym, err := NewCholSymbolic(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, scalarErr := sym.Factorize(s)
	if !errors.Is(scalarErr, ErrNotSPD) {
		t.Fatalf("scalar: got %v, want ErrNotSPD", scalarErr)
	}
	for _, workers := range []int{1, 4} {
		old := runtime.GOMAXPROCS(workers)
		_, superErr := sym.Supernodes().Factorize(s)
		runtime.GOMAXPROCS(old)
		if !errors.Is(superErr, ErrNotSPD) {
			t.Fatalf("workers=%d: got %v, want ErrNotSPD", workers, superErr)
		}
		if superErr.Error() != scalarErr.Error() {
			t.Fatalf("workers=%d: error %q differs from scalar %q", workers, superErr, scalarErr)
		}
	}
}

// TestSupernodal512Acceptance runs the 512×512 (262k-node) symbolic analysis
// and supernode partition — the resolution rung the supernodal kernel exists
// for. Pure arithmetic at scale, so it skips under -race and -short.
func TestSupernodal512Acceptance(t *testing.T) {
	if raceEnabled {
		t.Skip("pure-arithmetic scale test; skipped under -race")
	}
	if testing.Short() {
		t.Skip("262k-node symbolic analysis; skipped in -short")
	}
	const nx, ny = 512, 512
	s := buildLaplacian(nx, ny)
	sym, err := NewCholSymbolic(s, NestedDissectionGrid(nx, ny, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := sym.LNNZ(); got > 60<<20 {
		t.Fatalf("512×512 ND fill %d exceeds the 60M-entry budget", got)
	}
	ss := sym.Supernodes()
	checkPartition(t, ss, oneShape)
	n := nx * ny
	if ss.Panels() >= n/2 {
		t.Fatalf("supernode detection barely merged: %d panels for %d columns", ss.Panels(), n)
	}
	mean := float64(n) / float64(ss.Panels())
	t.Logf("512×512: nnz(L)=%d, panels=%d (mean width %.2f, max %d), padded=%d, workspace=%d bytes",
		sym.LNNZ(), ss.Panels(), mean, ss.MaxPanelWidth(), ss.PaddedZeros(), ss.WorkspaceBytes())
	if mean < 2 {
		t.Fatalf("mean panel width %.2f < 2; supernodes are not forming", mean)
	}
}
