package thermal

import (
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/linalg"
)

// spillBudgetFor derives, from a built unbudgeted model's public stats, a
// peak-bytes budget that is feasible (covers the unspillable floor of index
// arrays + frontal scratch) but forces most factor values out of core.
func spillBudgetFor(g *GridModel) int64 {
	st := g.FactorStats()
	ws := st.PeakFactorBytes - int64(st.FactorNNZ)*16 // frontal workspace
	floor := int64(st.FactorNNZ)*8 + int64(g.NumNodes()+1)*8 + ws
	return floor + int64(st.FactorNNZ)*2 // a quarter of the values resident
}

// TestGridSpillSolveBitIdentical is the end-to-end tentpole contract at the
// thermal layer: a grid model factored under a peak-bytes budget tight enough
// to spill must answer every steady-state query path byte-identically to the
// unbudgeted model, while reporting the spill activity in its factor stats.
func TestGridSpillSolveBitIdentical(t *testing.T) {
	fp := floorplan.Alpha21364()
	cfg := DefaultPackageConfig()
	base, err := NewGridModelWithOptions(fp, cfg, 48, 48, GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	budget := spillBudgetFor(base)
	spill, err := NewGridModelWithOptions(fp, cfg, 48, 48, GridOptions{
		PeakBytesBudget: budget,
		SpillDir:        t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()
	if spill.SolverBackend() != "sparse-cholesky" {
		t.Fatalf("budgeted backend %q, want sparse-cholesky", spill.SolverBackend())
	}
	st := spill.FactorStats()
	if st.SpilledPanels == 0 || st.SpilledBytes == 0 {
		t.Fatalf("budget %d forced no spilling: %+v", budget, st)
	}
	if st.SpillDegraded {
		t.Fatalf("unexpected degraded run: %+v", st)
	}
	if st.PeakResidentBytes > budget {
		t.Fatalf("peak resident %d exceeds budget %d", st.PeakResidentBytes, budget)
	}
	if st.PeakResidentBytes >= st.PeakFactorBytes {
		t.Fatalf("peak resident %d not below the in-core cost %d", st.PeakResidentBytes, st.PeakFactorBytes)
	}

	nb := fp.NumBlocks()
	powers := make([][]float64, 5)
	for i := range powers {
		powers[i] = make([]float64, nb)
		for b := range powers[i] {
			powers[i][b] = float64((i*11+b*5)%23) / 2
		}
	}
	requireSame := func(what string, a, b *GridResult) {
		t.Helper()
		for j := range a.temps {
			if math.Float64bits(a.temps[j]) != math.Float64bits(b.temps[j]) {
				t.Fatalf("%s: node %d differs: %g vs %g", what, j, a.temps[j], b.temps[j])
			}
		}
	}
	for i, pm := range powers {
		rb, err := base.SteadyState(pm)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := spill.SteadyState(pm)
		if err != nil {
			t.Fatal(err)
		}
		requireSame(fmt.Sprintf("SteadyState %d", i), rb, rs)
	}
	active := []int{0, 3}
	pmA := make([]float64, nb)
	for _, b := range active {
		pmA[b] = 12.5
	}
	ra, err := base.SteadyStateActive(pmA, active)
	if err != nil {
		t.Fatal(err)
	}
	rsa, err := spill.SteadyStateActive(pmA, active)
	if err != nil {
		t.Fatal(err)
	}
	requireSame("SteadyStateActive", ra, rsa)
	if err := spill.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGridSpillInfeasibleBudgetDegradesInCore pins the degraded tier: a
// budget below even the out-of-core floor is waived — the model factors in
// core, reports SpillDegraded, and answers bit-identically to the
// unbudgeted model.
func TestGridSpillInfeasibleBudgetDegradesInCore(t *testing.T) {
	fp := floorplan.Alpha21364()
	cfg := DefaultPackageConfig()
	g, err := NewGridModelWithOptions(fp, cfg, 24, 24, GridOptions{PeakBytesBudget: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.SolverBackend() != "sparse-cholesky" {
		t.Fatalf("infeasible budget backend %q, want sparse-cholesky", g.SolverBackend())
	}
	if st := g.FactorStats(); !st.SpillDegraded || st.SpilledPanels != 0 {
		t.Fatalf("infeasible budget: want SpillDegraded with nothing spilled, got %+v", st)
	}
	ref, err := NewGridModelWithOptions(fp, cfg, 24, 24, GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pm := make([]float64, fp.NumBlocks())
	pm[2] = 20
	rg, err := g.SteadyState(pm)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := ref.SteadyState(pm)
	if err != nil {
		t.Fatal(err)
	}
	for j := range rr.temps {
		if math.Float64bits(rg.temps[j]) != math.Float64bits(rr.temps[j]) {
			t.Fatalf("degraded run differs at node %d: %g vs %g", j, rg.temps[j], rr.temps[j])
		}
	}
}

// brokenSpillFS fails every file creation — the whole spill device is gone.
type brokenSpillFS struct{}

func (brokenSpillFS) MkdirAll(string, os.FileMode) error { return nil }
func (brokenSpillFS) Remove(string) error                { return nil }
func (brokenSpillFS) CreateTemp(string, string) (linalg.SpillFile, error) {
	return nil, fmt.Errorf("spill device unavailable")
}

// TestGridSpillBrokenFSDegradesInCore: when the spill filesystem fails, the
// breaker finishes the factorization fully in core (budget waived), the model
// reports SpillDegraded, and answers stay bit-identical.
func TestGridSpillBrokenFSDegradesInCore(t *testing.T) {
	fp := floorplan.Alpha21364()
	cfg := DefaultPackageConfig()
	base, err := NewGridModelWithOptions(fp, cfg, 32, 32, GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGridModelWithOptions(fp, cfg, 32, 32, GridOptions{
		PeakBytesBudget: spillBudgetFor(base),
		SpillFS:         brokenSpillFS{},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := g.FactorStats()
	if !st.SpillDegraded {
		t.Fatalf("broken spill fs: expected SpillDegraded, got %+v", st)
	}
	if g.SolverBackend() != "sparse-cholesky" {
		t.Fatalf("degraded backend %q, want sparse-cholesky", g.SolverBackend())
	}
	pm := make([]float64, fp.NumBlocks())
	pm[1], pm[4] = 15, 9
	rb, err := base.SteadyState(pm)
	if err != nil {
		t.Fatal(err)
	}
	rg, err := g.SteadyState(pm)
	if err != nil {
		t.Fatal(err)
	}
	for j := range rb.temps {
		if math.Float64bits(rb.temps[j]) != math.Float64bits(rg.temps[j]) {
			t.Fatalf("degraded run differs at node %d", j)
		}
	}
}

// TestGridPeakBudgetAcceptance is the out-of-core acceptance rung: a
// 1024×1024 grid (~2.1M nodes) factors and solves within a 3 GiB peak-bytes
// budget by spilling factor panels out of core, and then, with that model
// closed, within the 2 GiB default budget of an unbudgeted model, answering
// the same maximum temperature bit for bit. It takes minutes and only runs
// with THERM_ACCEPT_1024=1 (CI gates it exactly like the fill-acceptance
// step); bit-identity of the spilled solve path is pinned by the smaller
// rungs above, which do run under -race.
func TestGridPeakBudgetAcceptance(t *testing.T) {
	if os.Getenv("THERM_ACCEPT_1024") == "" {
		t.Skip("set THERM_ACCEPT_1024=1 to run the 1024×1024 budget acceptance rung (minutes)")
	}
	if raceEnabled {
		t.Skip("the 1024×1024 rung is a no-race acceptance run")
	}
	const n = 1024
	fp := floorplan.Alpha21364()
	pm := make([]float64, fp.NumBlocks())
	pm[0], pm[7] = 40, 25
	// solve builds the rung under opts, checks that it spilled within
	// budget, and returns its maximum temperature with the model closed.
	solve := func(opts GridOptions, budget int64) float64 {
		t.Helper()
		g, err := NewGridModelWithOptions(fp, DefaultPackageConfig(), n, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		st := g.FactorStats()
		t.Logf("%d×%d: %d nodes, %d factor nnz, %v numeric, %d/%d panels spilled (%d bytes), peak resident %d of budget %d",
			n, n, g.NumNodes(), st.FactorNNZ, st.FactorTime, st.SpilledPanels, st.Panels,
			st.SpilledBytes, st.PeakResidentBytes, budget)
		if st.SpillDegraded {
			t.Fatalf("degraded run: %+v", st)
		}
		if st.SpilledPanels == 0 {
			t.Fatalf("the 1024 rung must not fit the %d budget in core: %+v", budget, st)
		}
		if st.PeakResidentBytes > budget {
			t.Fatalf("peak resident %d exceeds budget %d", st.PeakResidentBytes, budget)
		}
		res, err := g.SteadyState(pm)
		if err != nil {
			t.Fatal(err)
		}
		mt := res.MaxTemp()
		if math.IsNaN(mt) || mt <= DefaultPackageConfig().Ambient || mt > 500 {
			t.Fatalf("implausible max temperature %g °C", mt)
		}
		t.Logf("steady state: max %.2f °C", mt)
		return mt
	}
	const budget = int64(3) << 30
	budgeted := solve(GridOptions{PeakBytesBudget: budget, SpillDir: t.TempDir()}, budget)
	unbudgeted := solve(GridOptions{SpillDir: t.TempDir()}, defaultPeakBudget)
	if math.Float64bits(budgeted) != math.Float64bits(unbudgeted) {
		t.Fatalf("max temperature %v under the default budget, %v under 3 GiB", unbudgeted, budgeted)
	}
}

// TestGridOptionsCanonicalSpill pins the canonicalization of the memory
// knobs: negative budgets clear to zero.
func TestGridOptionsCanonicalSpill(t *testing.T) {
	c := GridOptions{PeakBytesBudget: -5}.Canonical()
	if c.PeakBytesBudget != 0 {
		t.Fatalf("negative budget canonical = %d, want 0", c.PeakBytesBudget)
	}
}
