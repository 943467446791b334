package thermal

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/linalg"
)

// These tests are the solver cross-validation the sparse backend rests on:
// the same grid conductance system solved by dense Cholesky and sparse
// Cholesky must agree to 1e-8 across fuzzed floorplans and package
// configurations. CI runs them under -race (the grid solver shares
// pooled scratch between concurrent queries).

// fuzzConfig perturbs the default package within physically valid ranges.
func fuzzConfig(rng *rand.Rand) PackageConfig {
	cfg := DefaultPackageConfig()
	scale := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	cfg.DieThickness *= scale(0.5, 2)
	cfg.KSilicon *= scale(0.5, 2)
	cfg.TIMThickness *= scale(0.5, 3)
	cfg.KTIM *= scale(0.5, 2)
	cfg.SpreaderThickness *= scale(0.5, 2)
	cfg.KSpreader *= scale(0.5, 1.5)
	cfg.SinkThickness *= scale(0.5, 2)
	cfg.KSink *= scale(0.5, 1.5)
	cfg.ConvectionR *= scale(0.5, 4)
	cfg.Ambient = scale(20, 60)
	return cfg
}

// solveDenseSparse solves sys·x = rhs by dense and by sparse Cholesky and
// returns their largest deviation, scaled for comparison against 1e-8.
func solveDenseSparse(t *testing.T, sys *linalg.Sparse, rhs []float64) float64 {
	t.Helper()
	dense, err := linalg.SolveSPD(sys.Dense(), rhs)
	if err != nil {
		t.Fatalf("dense solve: %v", err)
	}
	ch, err := linalg.NewSparseCholesky(sys)
	if err != nil {
		t.Fatalf("sparse factorization: %v", err)
	}
	sparse, err := ch.Solve(rhs)
	if err != nil {
		t.Fatalf("sparse solve: %v", err)
	}
	var scaleMax, dev float64
	for i := range dense {
		scaleMax = math.Max(scaleMax, math.Abs(dense[i]))
	}
	for i := range dense {
		dev = math.Max(dev, math.Abs(dense[i]-sparse[i]))
	}
	return dev / (1 + scaleMax)
}

func TestGridSolversCrossValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		blocks := 2 + rng.Intn(8)
		fp, err := floorplan.Random(floorplan.RandomOptions{Blocks: blocks, Seed: int64(100 + trial)})
		if err != nil {
			t.Fatal(err)
		}
		cfg := fuzzConfig(rng)
		nx, ny := 2+rng.Intn(7), 2+rng.Intn(7) // nx, ny ≤ 8
		gm, err := NewGridModel(fp, cfg, nx, ny)
		if err != nil {
			t.Fatalf("trial %d (%d blocks, %dx%d): %v", trial, blocks, nx, ny, err)
		}

		// A random power map, deposited the same way SteadyState does.
		rhs := make([]float64, gm.NumNodes())
		for b := 0; b < blocks; b++ {
			p := 30 * rng.Float64()
			for _, cs := range gm.cellPowerWeight[b] {
				rhs[cs.cell] += p * cs.frac
			}
		}
		if dev := solveDenseSparse(t, gm.assemble(), rhs); dev > 1e-8 {
			t.Errorf("trial %d (%d blocks, %dx%d grid): solver deviation %g > 1e-8",
				trial, blocks, nx, ny, dev)
		}
	}
}

func TestBlockModelSolversCrossValidate(t *testing.T) {
	// The block model's conductance system put through the same three-way
	// check, for fuzzed floorplans large enough to exercise irregular
	// adjacency structure.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		fp, err := floorplan.Random(floorplan.RandomOptions{Blocks: 12 + rng.Intn(20), Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewModel(fp, fuzzConfig(rng))
		if err != nil {
			t.Fatal(err)
		}
		rhs := make([]float64, m.NumNodes())
		for i := 0; i < m.NumBlocks(); i++ {
			rhs[i] = 25 * rng.Float64()
		}
		if dev := solveDenseSparse(t, m.gs, rhs); dev > 1e-8 {
			t.Errorf("trial %d: solver deviation %g > 1e-8", trial, dev)
		}
	}
}

func TestGridOrderingsCrossValidate(t *testing.T) {
	// Dense Cholesky vs sparse Cholesky under RCM (the nil-perm default) and
	// under the geometric nested dissection the grid model factors with: all
	// three must agree to 1e-8 on fuzzed grid systems. A permutation bug
	// shows up here before it can corrupt a schedule.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		blocks := 2 + rng.Intn(8)
		fp, err := floorplan.Random(floorplan.RandomOptions{Blocks: blocks, Seed: int64(300 + trial)})
		if err != nil {
			t.Fatal(err)
		}
		cfg := fuzzConfig(rng)
		nx, ny := 3+rng.Intn(8), 3+rng.Intn(8)
		gm, err := NewGridModel(fp, cfg, nx, ny)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rhs := make([]float64, gm.NumNodes())
		for b := 0; b < blocks; b++ {
			p := 30 * rng.Float64()
			for _, cs := range gm.cellPowerWeight[b] {
				rhs[cs.cell] += p * cs.frac
			}
		}
		sys := gm.assemble()
		dense, err := linalg.SolveSPD(sys.Dense(), rhs)
		if err != nil {
			t.Fatal(err)
		}
		var scaleMax float64
		for _, v := range dense {
			scaleMax = math.Max(scaleMax, math.Abs(v))
		}
		solvers := map[string]*linalg.SparseCholesky{}
		if solvers["rcm"], err = linalg.NewSparseCholesky(sys); err != nil {
			t.Fatal(err)
		}
		geoSym, err := linalg.NewCholSymbolic(sys, gm.ndPerm())
		if err != nil {
			t.Fatal(err)
		}
		if solvers["nd-geometric"], err = geoSym.Factorize(sys); err != nil {
			t.Fatal(err)
		}
		for name, ch := range solvers {
			x, err := ch.Solve(rhs)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			var dev float64
			for i := range dense {
				dev = math.Max(dev, math.Abs(dense[i]-x[i]))
			}
			if dev/(1+scaleMax) > 1e-8 {
				t.Errorf("trial %d (%dx%d grid): %s deviates %g > 1e-8 from dense",
					trial, nx, ny, name, dev/(1+scaleMax))
			}
		}
	}
}

func TestGridSteadyStateMatchesDense(t *testing.T) {
	// The factored grid backend must reproduce a dense Cholesky solve of the
	// same system on the stock floorplan.
	g := alphaGrid(t, 12, 12)
	pm := make([]float64, g.Floorplan().NumBlocks())
	pm[0], pm[3] = 20, 35
	res, err := g.SteadyState(pm)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, g.NumNodes())
	for b, p := range pm {
		for _, cs := range g.cellPowerWeight[b] {
			rhs[cs.cell] += p * cs.frac
		}
	}
	rise, err := linalg.SolveSPD(g.assemble().Dense(), rhs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rise {
		want := g.cfg.Ambient + rise[i]
		if got := res.temps[i]; math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("node %d: factored backend %g vs dense %g", i, got, want)
		}
	}
	if got := g.SolverBackend(); got != "sparse-cholesky" {
		t.Errorf("SolverBackend = %q, want sparse-cholesky", got)
	}
	if g.FactorNNZ() <= 0 || g.NNZ() <= 0 {
		t.Errorf("factor/system NNZ not positive: %d, %d", g.FactorNNZ(), g.NNZ())
	}
}

func TestGridSteadyStateConcurrent(t *testing.T) {
	// Pooled scratch must keep concurrent queries independent.
	g := alphaGrid(t, 10, 10)
	nb := g.Floorplan().NumBlocks()
	type query struct {
		pm   []float64
		want float64
	}
	queries := make([]query, 6)
	for q := range queries {
		pm := make([]float64, nb)
		pm[q] = 30
		res, err := g.SteadyState(pm)
		if err != nil {
			t.Fatal(err)
		}
		queries[q] = query{pm: pm, want: res.MaxTemp()}
	}
	done := make(chan error, len(queries)*4)
	for rep := 0; rep < 4; rep++ {
		for _, q := range queries {
			go func(q query) {
				res, err := g.SteadyState(q.pm)
				if err == nil && math.Abs(res.MaxTemp()-q.want) > 1e-9 {
					err = &mismatchError{got: res.MaxTemp(), want: q.want}
				}
				done <- err
			}(q)
		}
	}
	for i := 0; i < len(queries)*4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type mismatchError struct{ got, want float64 }

func (e *mismatchError) Error() string {
	return "concurrent grid query mismatch"
}

// TestNewModelBackendFollowsBlockCount: NewModel factors with the backend
// SolverBackendForBlocks names — the name a block model's store address
// carries — on both sides of the node cutoff: 63 blocks are 128 nodes
// (dense), 64 blocks 130 (sparse).
func TestNewModelBackendFollowsBlockCount(t *testing.T) {
	for _, blocks := range []int{63, 64} {
		fp, err := floorplan.Random(floorplan.RandomOptions{Blocks: blocks, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewModel(fp, DefaultPackageConfig())
		if err != nil {
			t.Fatal(err)
		}
		got := "dense-cholesky"
		if _, sparse := m.solver.(*linalg.SparseCholesky); sparse {
			got = "sparse-cholesky"
		}
		if want := SolverBackendForBlocks(blocks); got != want {
			t.Errorf("%d blocks: NewModel factors %s, SolverBackendForBlocks names %s", blocks, got, want)
		}
	}
}

func TestSparseBackendTransientMatchesSteadyState(t *testing.T) {
	// A floorplan large enough to cross the sparse cutoff, so the
	// Crank–Nicolson cache runs on shared-symbolic sparse factors. The
	// fractional-tail step exercises a second factorization against the same
	// symbolic analysis, and a long horizon must settle onto the steady
	// state (its t→∞ limit).
	fp, err := floorplan.Random(floorplan.RandomOptions{Blocks: 80, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(fp, DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.solver.(*linalg.SparseCholesky); !ok {
		t.Fatalf("80-block model factors with %T, want *linalg.SparseCholesky", m.solver)
	}
	power := make([]float64, m.NumBlocks())
	for i := range power {
		power[i] = 2 + float64(i%5)
	}
	ss, err := m.SteadyState(power)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Transient(power, TransientOptions{Duration: 500, Step: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(tr.FinalMaxTemp() - ss.MaxTemp()); d > 0.5 {
		t.Errorf("CN transient settles %g K away from steady state", d)
	}
	// Fractional tail: 1.0 s at step 0.3 needs a 0.1 s tail operator — a
	// second numeric factorization against the shared symbolic analysis.
	if _, err := m.Transient(power, TransientOptions{Duration: 1.0, Step: 0.3}); err != nil {
		t.Fatalf("fractional-tail transient on sparse backend: %v", err)
	}
}

// FuzzGridSolverAgreement derives a grid configuration from fuzz input and
// checks the dense/sparse agreement property on it. The seed corpus runs
// in regular test invocations; go test -fuzz explores further.
func FuzzGridSolverAgreement(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), uint8(5))
	f.Add(int64(99), uint8(8), uint8(8), uint8(2))
	f.Add(int64(-7), uint8(2), uint8(6), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, nxb, nyb, blocksB uint8) {
		nx := 2 + int(nxb)%7
		ny := 2 + int(nyb)%7
		blocks := 1 + int(blocksB)%10
		fp, err := floorplan.Random(floorplan.RandomOptions{Blocks: blocks, Seed: seed})
		if err != nil {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		gm, err := NewGridModel(fp, fuzzConfig(rng), nx, ny)
		if err != nil {
			t.Skip()
		}
		rhs := make([]float64, gm.NumNodes())
		for b := 0; b < blocks; b++ {
			p := 40 * rng.Float64()
			for _, cs := range gm.cellPowerWeight[b] {
				rhs[cs.cell] += p * cs.frac
			}
		}
		if dev := solveDenseSparse(t, gm.assemble(), rhs); dev > 1e-8 {
			t.Errorf("%d blocks, %dx%d grid: solver deviation %g > 1e-8", blocks, nx, ny, dev)
		}
	})
}
