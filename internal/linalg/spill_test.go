package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
)

// spillTestGrid builds an nx×ny five-point Laplacian with per-node ground
// conductance — the same structure class as the thermal grids, strictly
// diagonally dominant so it is SPD.
func spillTestGrid(nx, ny int, rng *rand.Rand) *Sparse {
	b := NewSparseBuilder(nx * ny)
	g := func() float64 {
		if rng == nil {
			return 1.0
		}
		return 0.5 + rng.Float64()
	}
	for i := 0; i < ny; i++ {
		for j := 0; j < nx; j++ {
			a := i*nx + j
			if j+1 < nx {
				b.AddConductance(a, a+1, g())
			}
			if i+1 < ny {
				b.AddConductance(a, a+nx, g())
			}
			b.AddGround(a, 0.25+g())
		}
	}
	return b.Build()
}

// spillFixedBytes mirrors FactorizeSpill's unspillable floor.
func spillFixedBytes(ss *SuperSymbolic) int64 {
	return int64(len(ss.li))*8 + int64(len(ss.sym.colPtr))*8 + ss.WorkspaceBytes()
}

func spillMaxSegBytes(ss *SuperSymbolic) int64 {
	mx := 0
	for s := 0; s < ss.ns; s++ {
		if n := ss.pbase[s+1] - ss.pbase[s]; n > mx {
			mx = n
		}
	}
	return int64(mx) * 8
}

// TestSpilledSolveBitIdentical is the tentpole contract: a factor computed
// under a budget tight enough to force spilling must hold the same bits as
// the in-core factor, and every solve entry point must answer byte-for-byte
// identically while streaming spilled panels from disk.
func TestSpilledSolveBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := spillTestGrid(48, 48, rng)
	n := 48 * 48
	sym, err := NewCholSymbolic(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := sym.Supernodes(SupernodalOptions{MaxPanel: 8, Workers: 1})
	inCore, err := ss.Factorize(s)
	if err != nil {
		t.Fatal(err)
	}
	budget := spillFixedBytes(ss) + 2*spillMaxSegBytes(ss)
	spilled, err := ss.FactorizeSpill(s, SpillPolicy{BudgetBytes: budget, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer spilled.Close()

	st := spilled.SpillStats()
	if st.SpilledPanels == 0 {
		t.Fatalf("budget %d did not force any spilling (panels=%d, factor=%d bytes)",
			budget, ss.ns, int64(sym.LNNZ())*8)
	}
	if st.Degraded {
		t.Fatal("unexpected degraded run on a healthy filesystem")
	}
	if st.PeakResidentBytes > budget {
		t.Fatalf("peak resident %d exceeds budget %d", st.PeakResidentBytes, budget)
	}
	t.Logf("panels=%d spilled=%d (%d bytes) reloaded=%d peak=%d budget=%d",
		ss.ns, st.SpilledPanels, st.SpilledBytes, st.ReloadedPanels, st.PeakResidentBytes, budget)

	// The factor's value segments are bit-identical to the in-core lx.
	buf := make([]float64, int(spillMaxSegBytes(ss)/8))
	for sn := 0; sn < ss.ns; sn++ {
		vals, off, err := spilled.panelVals(sn, &buf)
		if err != nil {
			t.Fatalf("panel %d: %v", sn, err)
		}
		for p := ss.pbase[sn]; p < ss.pbase[sn+1]; p++ {
			if got, want := vals[p-off], inCore.lx[p]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("panel %d entry %d: spilled %x, in-core %x",
					sn, p, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}

	// SolveInto, SolveManyInto and SolveSparseInto all stream identically.
	rhs := make([][]float64, 4)
	for r := range rhs {
		rhs[r] = make([]float64, n)
		for i := range rhs[r] {
			rhs[r][i] = rng.NormFloat64()
		}
	}
	for r, b := range rhs {
		want := make([]float64, n)
		got := make([]float64, n)
		if err := inCore.SolveInto(want, b); err != nil {
			t.Fatal(err)
		}
		if err := spilled.SolveInto(got, b); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("SolveInto rhs %d entry %d: %x vs %x", r, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	wantM := make([][]float64, len(rhs))
	gotM := make([][]float64, len(rhs))
	for r := range rhs {
		wantM[r] = make([]float64, n)
		gotM[r] = make([]float64, n)
	}
	if err := inCore.SolveManyInto(wantM, rhs); err != nil {
		t.Fatal(err)
	}
	if err := spilled.SolveManyInto(gotM, rhs); err != nil {
		t.Fatal(err)
	}
	for r := range rhs {
		for i := range gotM[r] {
			if math.Float64bits(gotM[r][i]) != math.Float64bits(wantM[r][i]) {
				t.Fatalf("SolveManyInto rhs %d entry %d differs", r, i)
			}
		}
	}
	sparseB := make([]float64, n)
	nz := []int{3, 7, 100, n - 1}
	for _, i := range nz {
		sparseB[i] = 1.0
	}
	want := make([]float64, n)
	got := make([]float64, n)
	if err := inCore.SolveSparseInto(want, sparseB, nz); err != nil {
		t.Fatal(err)
	}
	if err := spilled.SolveSparseInto(got, sparseB, nz); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("SolveSparseInto entry %d differs", i)
		}
	}
}

// TestFactorizeSpillBudgetNeverExceeded fuzzes grid shapes, panel widths and
// budget tightness and asserts the accounting invariant: a successful
// non-degraded run's peak resident bytes never exceed the budget, and the
// factor it returns solves correctly.
func TestFactorizeSpillBudgetNeverExceeded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		nx := 8 + rng.Intn(40)
		ny := 8 + rng.Intn(40)
		panel := []int{4, 8, 16, 32}[rng.Intn(4)]
		s := spillTestGrid(nx, ny, rng)
		sym, err := NewCholSymbolic(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		ss := sym.Supernodes(SupernodalOptions{MaxPanel: panel, Workers: 1})
		fixed := spillFixedBytes(ss)
		maxSeg := spillMaxSegBytes(ss)
		// Headroom from just-feasible to roomy; rung 0 is below the floor and
		// must fail cleanly with ErrPeakBudget.
		budgets := []int64{
			fixed - 1,
			fixed + maxSeg,
			fixed + 2*maxSeg + rng.Int63n(maxSeg+1),
			fixed + int64(sym.LNNZ())*4, // ~half the factor resident
		}
		for bi, budget := range budgets {
			ch, err := ss.FactorizeSpill(s, SpillPolicy{BudgetBytes: budget, Dir: t.TempDir()})
			if bi == 0 {
				if !errors.Is(err, ErrPeakBudget) {
					t.Fatalf("trial %d: infeasible budget %d: got err=%v, want ErrPeakBudget", trial, budget, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d (%dx%d panel=%d budget=%d): %v", trial, nx, ny, panel, budget, err)
			}
			st := ch.SpillStats()
			if st.Degraded {
				t.Fatalf("trial %d budget %d: degraded on healthy fs", trial, budget)
			}
			if st.PeakResidentBytes > budget {
				t.Fatalf("trial %d (%dx%d panel=%d): peak %d exceeds budget %d",
					trial, nx, ny, panel, st.PeakResidentBytes, budget)
			}
			// Spot-check the solve: A·x must reproduce b.
			n := nx * ny
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			x := make([]float64, n)
			if err := ch.SolveInto(x, b); err != nil {
				t.Fatal(err)
			}
			ax, err := s.MulVec(x, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range b {
				if math.Abs(ax[i]-b[i]) > 1e-8*(1+math.Abs(b[i])) {
					t.Fatalf("trial %d budget %d: residual %g at %d", trial, budget, ax[i]-b[i], i)
				}
			}
			ch.Close()
		}
	}
}

// keepFS wraps the OS filesystem but refuses Remove, so tests can reach the
// spill file by name after factorization to corrupt or inspect it.
type keepFS struct {
	removed []string
}

func (k *keepFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (k *keepFS) CreateTemp(dir, pattern string) (SpillFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}
func (k *keepFS) Remove(name string) error {
	k.removed = append(k.removed, name)
	return fmt.Errorf("keepFS: refusing to remove %s", name)
}

// TestSpillTornFrameDetected corrupts one byte of an on-disk panel frame and
// requires the next streaming solve to fail with ErrSpill — CRC framing turns
// torn or rotted spill bytes into an error instead of silent numeric garbage.
func TestSpillTornFrameDetected(t *testing.T) {
	s := spillTestGrid(32, 32, nil)
	sym, err := NewCholSymbolic(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := sym.Supernodes(SupernodalOptions{MaxPanel: 8, Workers: 1})
	fs := &keepFS{}
	dir := t.TempDir()
	budget := spillFixedBytes(ss) + 2*spillMaxSegBytes(ss)
	ch, err := ss.FactorizeSpill(s, SpillPolicy{BudgetBytes: budget, Dir: dir, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	if ch.SpillStats().SpilledPanels == 0 {
		t.Fatal("no spilling under tight budget")
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("expected one kept spill file, got %v (err=%v)", ents, err)
	}
	path := dir + "/" + ents[0].Name()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the middle of the file.
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// The factor reads through its (still-open) handle on the same inode.
	n := 32 * 32
	b := make([]float64, n)
	b[0] = 1
	x := make([]float64, n)
	solveErr := ch.SolveInto(x, b)
	if !errors.Is(solveErr, ErrSpill) {
		t.Fatalf("corrupted frame: got err=%v, want ErrSpill", solveErr)
	}
}

// TestSpillCloseRemovesFile verifies Close releases the spill file; with the
// unlink-at-create refused by keepFS, Close must remove it by name.
func TestSpillCloseRemovesFile(t *testing.T) {
	s := spillTestGrid(32, 32, nil)
	sym, err := NewCholSymbolic(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := sym.Supernodes(SupernodalOptions{MaxPanel: 8, Workers: 1})
	dir := t.TempDir()
	budget := spillFixedBytes(ss) + 2*spillMaxSegBytes(ss)
	ch, err := ss.FactorizeSpill(s, SpillPolicy{BudgetBytes: budget, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if ch.SpillStats().SpilledPanels == 0 {
		t.Fatal("no spilling under tight budget")
	}
	// The default OS filesystem unlinks at create: the directory must
	// already be empty while the factor still solves from the open handle.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill file not unlinked at create: %v", ents)
	}
	n := 32 * 32
	b := make([]float64, n)
	b[3] = 1
	x := make([]float64, n)
	if err := ch.SolveInto(x, b); err != nil {
		t.Fatal(err)
	}
	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ch.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := ch.SolveInto(x, b); err == nil {
		t.Fatal("solve after Close should fail for a spilled factor")
	}
}

// TestDefaultPanelWidth pins the static panel widths: 8 for a serial
// factorization (the measured single-core winner), 32 with real parallelism,
// and Canonical resolving a zero or negative width to them.
func TestDefaultPanelWidth(t *testing.T) {
	if got := DefaultPanelWidth(1); got != 8 {
		t.Fatalf("DefaultPanelWidth(1) = %d, want 8", got)
	}
	if got := DefaultPanelWidth(4); got != 32 {
		t.Fatalf("DefaultPanelWidth(4) = %d, want 32", got)
	}
	for _, w := range []int{0, -1} {
		if got := (SupernodalOptions{MaxPanel: w, Workers: 1}).Canonical().MaxPanel; got != 8 {
			t.Fatalf("Canonical MaxPanel %d with 1 worker = %d, want 8", w, got)
		}
	}
}
