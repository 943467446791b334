package oraclestore_test

import (
	"math"
	"syscall"
	"testing"

	"repro/internal/linalg"
	. "repro/internal/oraclestore"
	"repro/internal/oraclestore/faultfs"
)

func spillTestMatrix(t *testing.T, nx int) (*linalg.Sparse, *linalg.CholSymbolic, *linalg.SuperSymbolic) {
	t.Helper()
	b := linalg.NewSparseBuilder(nx * nx)
	for i := 0; i < nx; i++ {
		for j := 0; j < nx; j++ {
			a := i*nx + j
			if j+1 < nx {
				b.AddConductance(a, a+1, 1.0)
			}
			if i+1 < nx {
				b.AddConductance(a, a+nx, 1.0)
			}
			b.AddGround(a, 0.75)
		}
	}
	s := b.Build()
	sym, err := linalg.NewCholSymbolic(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, sym, sym.Supernodes()
}

// spillBudget computes a budget tight enough to force spilling from public
// surface only: the unspillable floor (index arrays + frontal scratch) plus a
// quarter of the factor's values.
func spillBudget(sym *linalg.CholSymbolic, ss *linalg.SuperSymbolic, n int) int64 {
	fixed := int64(sym.LNNZ())*8 + int64(n+1)*8 + ss.WorkspaceBytes()
	return fixed + int64(sym.LNNZ())*2
}

// runSpillThroughFS factors under the given FS seam and returns the factor
// plus the in-core reference solution for one RHS.
func runSpillThroughFS(t *testing.T, fs FS, dir string) (*linalg.SparseCholesky, []float64, []float64) {
	t.Helper()
	const nx = 40
	s, sym, ss := spillTestMatrix(t, nx)
	ref, err := ss.Factorize(s)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := ss.FactorizeSpill(s, linalg.SpillPolicy{
		BudgetBytes: spillBudget(sym, ss, nx*nx),
		Dir:         dir,
		FS:          faultfs.AsSpillFS(fs),
	})
	if err != nil {
		t.Fatal(err)
	}
	n := nx * nx
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%17) - 8
	}
	want := make([]float64, n)
	if err := ref.SolveInto(want, b); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, n)
	if err := ch.SolveInto(got, b); err != nil {
		t.Fatal(err)
	}
	return ch, got, want
}

func requireBitIdentical(t *testing.T, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("entry %d: %x vs %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestSpillEIODegradesToInCore arms a persistent EIO on every spill write:
// once the retries are spent, the out-of-core run drops its segments and
// file and the factor is rebuilt in core by Factorize — bit-identical,
// budget waived, Degraded reported.
func TestSpillEIODegradesToInCore(t *testing.T) {
	fs := faultfs.New(nil)
	fs.Inject(faultfs.Fault{Op: faultfs.OpAppend, Err: syscall.EIO})
	ch, got, want := runSpillThroughFS(t, fs, t.TempDir())
	defer ch.Close()
	st := ch.SpillStats()
	if !st.Degraded {
		t.Fatalf("persistent EIO: expected Degraded, stats=%+v", st)
	}
	if st.SpilledPanels != 0 {
		t.Fatalf("no frame can complete under persistent EIO, yet SpilledPanels=%d", st.SpilledPanels)
	}
	requireBitIdentical(t, got, want)
}

// TestSpillTornWritesDegradeToInCore arms persistent torn appends (partial
// bytes then EIO). The writer's truncate-back healing cannot land a frame, so
// the run gives up spilling and Factorize rebuilds a bit-identical in-core
// factor.
func TestSpillTornWritesDegradeToInCore(t *testing.T) {
	fs := faultfs.New(nil)
	fs.Inject(faultfs.Fault{Op: faultfs.OpAppend, Err: syscall.EIO, TornBytes: 7})
	ch, got, want := runSpillThroughFS(t, fs, t.TempDir())
	defer ch.Close()
	if !ch.SpillStats().Degraded {
		t.Fatalf("persistent torn writes: expected Degraded, stats=%+v", ch.SpillStats())
	}
	requireBitIdentical(t, got, want)
}

// TestSpillTransientEIORetried arms a two-shot EIO: the in-line retries must
// absorb it, spilling proceeds, and the run is NOT degraded.
func TestSpillTransientEIORetried(t *testing.T) {
	fs := faultfs.New(nil)
	fs.Inject(faultfs.Fault{Op: faultfs.OpAppend, Err: syscall.EIO, Count: 2})
	ch, got, want := runSpillThroughFS(t, fs, t.TempDir())
	defer ch.Close()
	st := ch.SpillStats()
	if st.Degraded {
		t.Fatalf("two transient EIOs should be retried, stats=%+v", st)
	}
	if st.SpilledPanels == 0 {
		t.Fatalf("expected spilling under the tight budget, stats=%+v", st)
	}
	if fs.Injected() == 0 {
		t.Fatal("fault never fired")
	}
	requireBitIdentical(t, got, want)
}
