package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/testspec"
	"repro/internal/thermal"
)

func TestRunGridScale(t *testing.T) {
	if testing.Short() {
		t.Skip("grid ladder in -short mode")
	}
	env, err := NewEnv(testspec.Alpha21364())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunGridScale(env, []int{8, 16}, thermal.GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2 (one per resolution)", len(res.Points))
	}
	if res.Sessions == 0 {
		t.Fatal("no sessions in the Table 1 schedule")
	}
	for _, p := range res.Points {
		if p.Nodes != 2*p.Res*p.Res+2 {
			t.Errorf("res %d: nodes = %d", p.Res, p.Nodes)
		}
		if p.Backend != "sparse-cholesky" {
			t.Errorf("res %d: backend = %q, want sparse-cholesky", p.Res, p.Backend)
		}
		if p.FactorNNZ <= p.Nodes {
			t.Errorf("res %d: factor nnz %d below node count", p.Res, p.FactorNNZ)
		}
		if p.Queries != res.Sessions || p.SolveTime <= 0 || p.PerQuery() <= 0 {
			t.Errorf("res %d: queries %d, solve %v", p.Res, p.Queries, p.SolveTime)
		}
		// Physically plausible: grid peak within the regime the block model
		// schedules against (well above ambient, below silicon meltdown).
		if p.PeakT < 50 || p.PeakT > 400 {
			t.Errorf("res %d: implausible peak %g °C", p.Res, p.PeakT)
		}
	}
	// Finer grids resolve hotter intra-block peaks; the rungs must at least
	// agree loosely on the temperature field.
	if d := res.Points[1].PeakT - res.Points[0].PeakT; d < -20 {
		t.Errorf("peak fell by %g K when refining the grid", -d)
	}
	text := res.Render()
	for _, want := range []string{"Grid-resolution ladder", "sparse-cholesky", "per-query"} {
		if !strings.Contains(text, want) {
			t.Errorf("Render missing %q:\n%s", want, text)
		}
	}
	// A gridcheck run at the same resolution closes its model, so the ladder
	// rung after it times a factorization of its own instead of sharing the
	// gridcheck factor.
	if _, err := RunGridCheck(env, 16); err != nil {
		t.Fatal(err)
	}
	again, err := RunGridScale(env, []int{16}, thermal.GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p := again.Points[0]; p.Shared || p.FactorTime <= 0 {
		t.Errorf("16x16 rung after gridcheck: shared %v, numeric %v; want its own factorization", p.Shared, p.FactorTime)
	}
}

// TestRunGridScaleBudgetedRung: a rung under a peak-bytes budget below the
// out-of-core floor still factors (in core, budget waived) and reports the
// unbudgeted rung's peak bit for bit.
func TestRunGridScaleBudgetedRung(t *testing.T) {
	if testing.Short() {
		t.Skip("grid ladder in -short mode")
	}
	env, err := NewEnv(testspec.Alpha21364())
	if err != nil {
		t.Fatal(err)
	}
	var peaks []float64
	for _, opts := range []thermal.GridOptions{{}, {PeakBytesBudget: 256}} {
		res, err := RunGridScale(env, []int{12}, opts)
		if err != nil {
			t.Fatal(err)
		}
		p := res.Points[0]
		if p.Backend != "sparse-cholesky" || p.FactorNNZ == 0 {
			t.Errorf("%+v: backend %q factor %d, want a sparse-cholesky factor", opts, p.Backend, p.FactorNNZ)
		}
		peaks = append(peaks, p.PeakT)
	}
	if math.Float64bits(peaks[0]) != math.Float64bits(peaks[1]) {
		t.Errorf("budgeted rung peak %v, unbudgeted %v; want bit-identical", peaks[1], peaks[0])
	}
}
