package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/testspec"
)

// The Alpha environment is expensive enough to share across tests; it is
// immutable after construction.
var sharedEnv *Env

// allPass reports whether every claim holds.
func allPass(c *ClaimsResult) bool {
	for _, cl := range c.Claims {
		if !cl.Pass {
			return false
		}
	}
	return true
}

func env(t *testing.T) *Env {
	t.Helper()
	if sharedEnv == nil {
		e, err := NewEnv(testspec.Alpha21364())
		if err != nil {
			t.Fatal(err)
		}
		sharedEnv = e
	}
	return sharedEnv
}

func TestRunFigure1Shape(t *testing.T) {
	res, err := RunFigure1()
	if err != nil {
		t.Fatal(err)
	}
	if !res.PowerOK {
		t.Error("both sessions must pass the 45 W power constraint")
	}
	if math.Abs(res.TS1Power-45) > 1e-9 || math.Abs(res.TS2Power-45) > 1e-9 {
		t.Errorf("session powers %.1f/%.1f, want 45/45", res.TS1Power, res.TS2Power)
	}
	// Paper: 125.5 vs 67.5 °C. Shape requirement: a gap of tens of kelvin
	// between two equal-power sessions, with TS1 the hot one.
	if res.Gap < 40 {
		t.Errorf("temperature gap %.1f K, want >= 40 K", res.Gap)
	}
	if res.TS1MaxT < 110 || res.TS1MaxT > 145 {
		t.Errorf("TS1 maxT %.1f °C outside the paper's regime (~125 °C)", res.TS1MaxT)
	}
	if res.TS2MaxT < 55 || res.TS2MaxT > 95 {
		t.Errorf("TS2 maxT %.1f °C outside the paper's regime (~67 °C)", res.TS2MaxT)
	}
	// The stated 4× density ratio.
	if math.Abs(res.DensityC2/res.DensityC5-4) > 1e-6 {
		t.Errorf("density ratio %.2f, want 4", res.DensityC2/res.DensityC5)
	}
	if !strings.Contains(res.Render(), "paper") {
		t.Error("Render should cite the paper's numbers")
	}
}

func TestRunTable1AndClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 1 grid in -short mode")
	}
	grid, err := RunTable1(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Rows) != len(Table1TLs)*len(STCLs) {
		t.Fatalf("rows = %d, want %d", len(grid.Rows), len(Table1TLs)*len(STCLs))
	}
	claims := CheckClaims(grid)
	if !allPass(claims) {
		t.Errorf("paper claims failed:\n%s", claims.Render())
	}
	if grid.Row(145, 20) == nil || grid.Row(185, 100) == nil {
		t.Error("Row lookup failed for corner cells")
	}
	if grid.Row(9999, 20) != nil {
		t.Error("Row lookup invented a cell")
	}
	if !strings.Contains(grid.Render(), "Table 1") {
		t.Error("Render missing title")
	}
}

func TestRunFigure5(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 5 sweep in -short mode")
	}
	fig, err := RunFigure5(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != len(Figure5TLs) {
		t.Fatalf("series = %d, want %d", len(fig.Series), len(Figure5TLs))
	}
	for _, s := range fig.Series {
		if len(s.STCL) != len(STCLs) || len(s.Length) != len(STCLs) || len(s.Effort) != len(STCLs) {
			t.Fatalf("TL=%g: ragged series", s.TL)
		}
		// Figure-5 shape: the relaxed end must not be longer than the tight
		// end, and must not be cheaper to simulate.
		if s.Length[len(s.Length)-1] > s.Length[0] {
			t.Errorf("TL=%g: length grew from %.0f to %.0f as STCL relaxed",
				s.TL, s.Length[0], s.Length[len(s.Length)-1])
		}
		if s.Effort[len(s.Effort)-1] < s.Effort[0] {
			t.Errorf("TL=%g: effort shrank from %.0f to %.0f as STCL relaxed",
				s.TL, s.Effort[0], s.Effort[len(s.Effort)-1])
		}
	}
	r := fig.Render()
	if !strings.Contains(r, "TL = 145") || !strings.Contains(r, "effort") {
		t.Error("Render missing series")
	}
}

func TestRunWeights(t *testing.T) {
	if testing.Short() {
		t.Skip("weight sweep in -short mode")
	}
	res, err := RunWeights(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5*3 {
		t.Fatalf("rows = %d, want 15", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Length <= 0 || r.Effort < r.Length {
			t.Errorf("factor %.2f TL %.0f: implausible length/effort %f/%f",
				r.Factor, r.TL, r.Length, r.Effort)
		}
	}
	if !strings.Contains(res.Render(), "1.10") {
		t.Error("Render missing the paper's factor")
	}
}

func TestRunOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("ordering sweep in -short mode")
	}
	res, err := RunOrdering(env(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5*3 {
		t.Fatalf("rows = %d, want 15", len(res.Rows))
	}
	if !strings.Contains(res.Render(), "tc-desc") {
		t.Error("Render missing default policy")
	}
}

func TestRunFidelity(t *testing.T) {
	res, err := RunFidelity(env(t), 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	// The cheap model must rank sessions usefully — that is the paper's
	// premise for using it as a guide.
	if res.KendallTau < 0.35 {
		t.Errorf("Kendall tau %.2f, want >= 0.35", res.KendallTau)
	}
	if res.ViolationCount > 0 && res.ViolationRecall < 0.6 {
		t.Errorf("violation recall %.2f, want >= 0.6", res.ViolationRecall)
	}
	if !strings.Contains(res.Render(), "Kendall") {
		t.Error("Render missing tau")
	}
	// Tiny session counts are clamped.
	small, err := RunFidelity(env(t), 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if small.Sessions < 10 {
		t.Errorf("Sessions = %d, want clamped to >= 10", small.Sessions)
	}
}

func TestRunBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline comparison in -short mode")
	}
	res, err := RunBaseline(env(t), 165)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 2 {
		t.Fatal("expected thermal-aware row plus PCTS rows")
	}
	// The paper's thesis, quantified: at least one power-legal PCTS schedule
	// violates the temperature limit.
	anyViolating := false
	for _, r := range res.Rows[1:] {
		if r.Violations > 0 {
			anyViolating = true
		}
	}
	if !anyViolating {
		t.Error("no PCTS budget produced thermal violations; the motivation experiment is vacuous")
	}
	// The thermal-aware schedule itself is safe by construction.
	if res.Rows[0].Violations != 0 {
		t.Error("thermal-aware row must have zero violations")
	}
	if !strings.Contains(res.Render(), "power-constrained") {
		t.Error("Render missing PCTS rows")
	}
}

func TestRunScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep in -short mode")
	}
	res, err := RunScaling([]int{8, 15, 30}, 11, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Length <= 0 || r.Effort < r.Length {
			t.Errorf("cores %d: implausible length %f effort %f", r.Cores, r.Length, r.Effort)
		}
	}
	if !strings.Contains(res.Render(), "cores") {
		t.Error("Render missing header")
	}
}

func TestScalingSpecDeterministic(t *testing.T) {
	a, err := ScalingSpec(12, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScalingSpec(12, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.NumCores(); i++ {
		if a.Test(i).Power != b.Test(i).Power {
			t.Fatal("ScalingSpec not deterministic")
		}
	}
	// Factors must stay inside the paper's envelope.
	for i := 0; i < a.NumCores(); i++ {
		f := a.Profile().Test(i) / a.Profile().Functional(i)
		if f < 1.5 || f > 8 {
			t.Errorf("core %d factor %.2f outside [1.5, 8]", i, f)
		}
	}
}

func TestSparkline(t *testing.T) {
	if s := sparkline("x", []float64{1, 2, 3}); !strings.Contains(s, "▁") || !strings.Contains(s, "█") {
		t.Errorf("sparkline missing extremes: %q", s)
	}
	if s := sparkline("x", []float64{2, 2}); !strings.Contains(s, "▁▁") {
		t.Errorf("flat sparkline wrong: %q", s)
	}
	if s := sparkline("x", nil); s != "" {
		t.Errorf("empty sparkline should be empty, got %q", s)
	}
}

func TestCheckClaimsDetectsBadGrids(t *testing.T) {
	// A grid that violates safety and monotonicity must fail claims.
	bad := &Table1Result{Rows: []Table1Row{
		{TL: 145, STCL: 20, Length: 3, Effort: 10, MaxTemp: 150}, // over TL
		{TL: 145, STCL: 100, Length: 9, Effort: 2, MaxTemp: 140}, // longer + cheaper
		{TL: 185, STCL: 20, Length: 9, Effort: 9, MaxTemp: 184},  // fine
		{TL: 185, STCL: 100, Length: 9, Effort: 20, MaxTemp: 184},
	}}
	claims := CheckClaims(bad)
	if allPass(claims) {
		t.Fatal("claims passed on a corrupt grid")
	}
	failing := map[string]bool{}
	for _, c := range claims.Claims {
		if !c.Pass {
			failing[c.ID] = true
		}
	}
	for _, want := range []string{"safety", "stcl-length", "stcl-effort", "stcl-tradeoff"} {
		if !failing[want] {
			t.Errorf("claim %q should fail on the corrupt grid", want)
		}
	}
	if !strings.Contains(claims.Render(), "FAIL") {
		t.Error("Render should show FAIL markers")
	}
}
