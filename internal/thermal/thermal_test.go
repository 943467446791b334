package thermal

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/linalg"
)

func alphaModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(floorplan.Alpha21364(), DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func uniformPower(n int, w float64) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = w
	}
	return p
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultPackageConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultPackageConfig()
	bad.KSilicon = 0
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Errorf("zero conductivity: err = %v, want ErrConfig", err)
	}
	bad = DefaultPackageConfig()
	bad.ConvectionR = math.NaN()
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Errorf("NaN resistance: err = %v, want ErrConfig", err)
	}
	bad = DefaultPackageConfig()
	bad.Ambient = -300
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Errorf("sub-zero-kelvin ambient: err = %v, want ErrConfig", err)
	}
}

func TestNewModelRejectsSmallSpreader(t *testing.T) {
	cfg := DefaultPackageConfig()
	cfg.SpreaderSide = 1e-3 // 1 mm spreader under a 16 mm die
	if _, err := NewModel(floorplan.Alpha21364(), cfg); !errors.Is(err, ErrModel) {
		t.Errorf("tiny spreader: err = %v, want ErrModel", err)
	}
}

func TestSteadyStateZeroPowerIsAmbient(t *testing.T) {
	m := alphaModel(t)
	res, err := m.SteadyState(make([]float64, m.NumBlocks()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.NumBlocks(); i++ {
		if math.Abs(res.temps[i]-m.Config().Ambient) > 1e-9 {
			t.Fatalf("block %d at %g °C with zero power, want ambient", i, res.temps[i])
		}
	}
	if math.Abs(res.SinkTemp()-m.Config().Ambient) > 1e-9 {
		t.Error("sink not at ambient with zero power")
	}
}

// heatToAmbient returns the steady-state heat flow into the ambient (W),
// computed from the sink temperature and the convection resistance. For a
// correct solution it equals the injected power (energy conservation).
func heatToAmbient(r *SteadyResult) float64 {
	return (r.SinkTemp() - r.model.cfg.Ambient) / r.model.cfg.ConvectionR
}

func TestSteadyStateEnergyConservation(t *testing.T) {
	m := alphaModel(t)
	p := uniformPower(m.NumBlocks(), 4)
	res, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	in := res.TotalPower()
	out := heatToAmbient(res)
	if math.Abs(in-out) > 1e-6*in {
		t.Errorf("energy not conserved: in %.6f W, out to ambient %.6f W", in, out)
	}
}

func TestSteadyStateTemperatureOrdering(t *testing.T) {
	// Physics: silicon runs hotter than its spreader cell, which runs hotter
	// than the sink, which runs hotter than ambient — for any active block.
	m := alphaModel(t)
	p := make([]float64, m.NumBlocks())
	hot, _ := m.Floorplan().IndexOf("IntExec")
	p[hot] = 25
	res, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	amb := m.Config().Ambient
	spreader := res.temps[m.spreaderNode(hot)]
	if !(res.temps[hot] > spreader) {
		t.Errorf("silicon %.3f not hotter than spreader %.3f", res.temps[hot], spreader)
	}
	if !(spreader > res.SinkTemp()) {
		t.Errorf("spreader %.3f not hotter than sink %.3f", spreader, res.SinkTemp())
	}
	if !(res.SinkTemp() > amb) {
		t.Errorf("sink %.3f not above ambient %.3f", res.SinkTemp(), amb)
	}
	// The active block must be the hottest block on the die.
	idx, _ := res.MaxBlock()
	if idx != hot {
		t.Errorf("hottest block is %d, want %d", idx, hot)
	}
}

func TestSteadyStateLinearity(t *testing.T) {
	// The network is linear: rise(a+b) = rise(a) + rise(b).
	m := alphaModel(t)
	n := m.NumBlocks()
	pa := make([]float64, n)
	pb := make([]float64, n)
	pa[0], pa[3] = 10, 5
	pb[7], pb[3] = 8, 2
	sum := make([]float64, n)
	for i := range sum {
		sum[i] = pa[i] + pb[i]
	}
	ra, err := m.SteadyState(pa)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := m.SteadyState(pb)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := m.SteadyState(sum)
	if err != nil {
		t.Fatal(err)
	}
	amb := m.Config().Ambient
	for i := 0; i < n; i++ {
		want := (ra.temps[i] - amb) + (rb.temps[i] - amb)
		got := rs.temps[i] - amb
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("superposition broken at block %d: %g vs %g", i, got, want)
		}
	}
}

func TestSteadyStateMonotonicInPower(t *testing.T) {
	m := alphaModel(t)
	p1 := uniformPower(m.NumBlocks(), 3)
	p2 := uniformPower(m.NumBlocks(), 6)
	r1, err := m.SteadyState(p1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.SteadyState(p2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.NumBlocks(); i++ {
		if !(r2.temps[i] > r1.temps[i]) {
			t.Fatalf("block %d: doubling power did not raise temperature (%g vs %g)",
				i, r1.temps[i], r2.temps[i])
		}
	}
}

func TestPowerDensityDrivesHotSpots(t *testing.T) {
	// Same power into a small block vs a large block: the small one must get
	// hotter. This is the physical effect the whole paper rests on.
	fp := floorplan.Figure1SoC()
	m, err := NewModel(fp, DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := fp.IndexOf("C2") // small, dense
	c5, _ := fp.IndexOf("C5") // 4× larger
	p := make([]float64, fp.NumBlocks())
	p[c2] = 15
	rSmall, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	p = make([]float64, fp.NumBlocks())
	p[c5] = 15
	rLarge, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	if !(rSmall.temps[c2] > rLarge.temps[c5]+5) {
		t.Errorf("dense block %.2f °C not clearly hotter than sparse block %.2f °C",
			rSmall.temps[c2], rLarge.temps[c5])
	}
}

func TestPowerValidation(t *testing.T) {
	m := alphaModel(t)
	if _, err := m.SteadyState([]float64{1, 2}); !errors.Is(err, ErrPowerShape) {
		t.Errorf("short power: err = %v, want ErrPowerShape", err)
	}
	bad := uniformPower(m.NumBlocks(), 1)
	bad[0] = -1
	if _, err := m.SteadyState(bad); !errors.Is(err, ErrPowerShape) {
		t.Errorf("negative power: err = %v, want ErrPowerShape", err)
	}
	bad[0] = math.NaN()
	if _, err := m.SteadyState(bad); !errors.Is(err, ErrPowerShape) {
		t.Errorf("NaN power: err = %v, want ErrPowerShape", err)
	}
}

// diagonallyDominant reports whether |a_ii| >= Σ_{j≠i}|a_ij| for every row
// of the n×n matrix a, strictly in at least one row: the structural property
// that makes an assembled conductance matrix SPD.
func diagonallyDominant(a *linalg.Matrix, n int) bool {
	strict := false
	for i := 0; i < n; i++ {
		var off float64
		for j := 0; j < n; j++ {
			if j != i {
				off += math.Abs(a.At(i, j))
			}
		}
		d := math.Abs(a.At(i, i))
		if d < off-1e-12*(d+off) {
			return false
		}
		if d > off+1e-12*(d+off) {
			strict = true
		}
	}
	return strict
}

func TestConductanceMatrixProperties(t *testing.T) {
	m := alphaModel(t)
	g := m.gs.Dense()
	if !g.IsSymmetric(1e-12) {
		t.Error("conductance matrix not symmetric")
	}
	if !diagonallyDominant(g, m.size) {
		t.Error("conductance matrix not diagonally dominant")
	}
	// Off-diagonals must be non-positive (pure conductance network).
	for i := 0; i < m.size; i++ {
		for j := 0; j < m.size; j++ {
			if i != j && g.At(i, j) > 0 {
				t.Fatalf("positive off-diagonal at (%d,%d): %g", i, j, g.At(i, j))
			}
		}
	}
	if m.NumNodes() != 2*m.NumBlocks()+2 {
		t.Errorf("NumNodes = %d, want %d", m.NumNodes(), 2*m.NumBlocks()+2)
	}
	for i, c := range m.caps {
		if !(c > 0) {
			t.Errorf("capacitance %d = %g, must be > 0", i, c)
		}
	}
}

func TestTransientApproachesSteadyState(t *testing.T) {
	m := alphaModel(t)
	p := uniformPower(m.NumBlocks(), 5)
	ss, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Transient(p, TransientOptions{Duration: 600, Step: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.NumBlocks(); i++ {
		if math.Abs(tr.FinalBlockTemp(i)-ss.temps[i]) > 0.05 {
			t.Fatalf("block %d: transient end %.4f vs steady %.4f", i,
				tr.FinalBlockTemp(i), ss.temps[i])
		}
	}
}

func TestTransientBoundedBySteadyState(t *testing.T) {
	// For constant power from ambient, the transient never overshoots the
	// steady state (monotone RC charging).
	m := alphaModel(t)
	p := uniformPower(m.NumBlocks(), 6)
	ss, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.Transient(p, TransientOptions{Duration: 30, Step: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	limit := ss.MaxTemp() + 1e-6
	for _, s := range tr.Samples {
		if s.MaxTemp > limit {
			t.Fatalf("transient %.4f °C at t=%.2fs exceeds steady state %.4f °C",
				s.MaxTemp, s.Time, ss.MaxTemp())
		}
	}
	if tr.PeakMaxTemp() > limit {
		t.Error("PeakMaxTemp exceeds steady state")
	}
}

func TestTransientIntegratorsAgree(t *testing.T) {
	// Short horizon so RK4 at its stability step stays affordable.
	fp := floorplan.Figure1SoC()
	m, err := NewModel(fp, DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, fp.NumBlocks())
	p[1] = 15
	cn, err := m.Transient(p, TransientOptions{Duration: 0.5, Step: 0.0005, Integrator: CrankNicolson})
	if err != nil {
		t.Fatal(err)
	}
	rk, err := m.Transient(p, TransientOptions{Duration: 0.5, Integrator: RK4})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(cn.FinalMaxTemp() - rk.FinalMaxTemp()); d > 0.05 {
		t.Errorf("integrators disagree by %.4f K (CN %.4f, RK4 %.4f)",
			d, cn.FinalMaxTemp(), rk.FinalMaxTemp())
	}
}

func TestTransientChainingViaInitialRise(t *testing.T) {
	m := alphaModel(t)
	p := uniformPower(m.NumBlocks(), 5)
	whole, err := m.Transient(p, TransientOptions{Duration: 10, Step: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	first, err := m.Transient(p, TransientOptions{Duration: 5, Step: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	second, err := m.Transient(p, TransientOptions{
		Duration: 5, Step: 0.01, InitialRise: first.FinalRise(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(second.FinalMaxTemp() - whole.FinalMaxTemp()); d > 0.02 {
		t.Errorf("chained transient differs from single run by %.4f K", d)
	}
}

func TestTransientOptionValidation(t *testing.T) {
	m := alphaModel(t)
	p := uniformPower(m.NumBlocks(), 1)
	if _, err := m.Transient(p, TransientOptions{Duration: 0}); !errors.Is(err, ErrTransient) {
		t.Errorf("zero duration: err = %v, want ErrTransient", err)
	}
	if _, err := m.Transient(p, TransientOptions{Duration: 1, Step: -1}); !errors.Is(err, ErrTransient) {
		t.Errorf("negative step: err = %v, want ErrTransient", err)
	}
	if _, err := m.Transient(p, TransientOptions{Duration: 1, InitialRise: []float64{1}}); !errors.Is(err, ErrTransient) {
		t.Errorf("short InitialRise: err = %v, want ErrTransient", err)
	}
	if _, err := m.Transient(p, TransientOptions{Duration: 1, Integrator: Integrator(99)}); !errors.Is(err, ErrTransient) {
		t.Errorf("unknown integrator: err = %v, want ErrTransient", err)
	}
	if _, err := m.Transient([]float64{1}, TransientOptions{Duration: 1}); !errors.Is(err, ErrPowerShape) {
		t.Errorf("bad power shape: err = %v, want ErrPowerShape", err)
	}
}

func TestLateralRMatchesFormula(t *testing.T) {
	fp := floorplan.Alpha21364()
	m, err := NewModel(fp, DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	ic, _ := fp.IndexOf("Icache")
	dc, _ := fp.IndexOf("Dcache")
	r, ok := m.LateralR(ic, dc)
	if !ok {
		t.Fatal("Icache/Dcache should be adjacent")
	}
	shared := geom.SharedEdgeBetween(fp.Block(ic).Rect, fp.Block(dc).Rect).Length
	path := geom.CenterDistanceAlong(fp.Block(ic).Rect, fp.Block(dc).Rect)
	want := path / (m.Config().KSilicon * m.Config().DieThickness * shared)
	if math.Abs(r-want) > 1e-12 {
		t.Errorf("LateralR = %g, want %g", r, want)
	}
	// Symmetric.
	r2, ok := m.LateralR(dc, ic)
	if !ok || math.Abs(r-r2) > 1e-15 {
		t.Errorf("LateralR not symmetric: %g vs %g", r, r2)
	}
	// Non-adjacent pair.
	fpAdd, _ := fp.IndexOf("FPAdd")
	l2, _ := fp.IndexOf("L2Base")
	if _, ok := m.LateralR(fpAdd, l2); ok {
		t.Error("non-adjacent pair reported a lateral resistance")
	}
}

func TestVerticalRScalesInverselyWithArea(t *testing.T) {
	fp := floorplan.Alpha21364()
	m, err := NewModel(fp, DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	small, _ := fp.IndexOf("IntReg")
	big, _ := fp.IndexOf("L2Base")
	rs := m.VerticalR(small)
	rb := m.VerticalR(big)
	ratioR := rs / rb
	ratioA := fp.Block(big).Area() / fp.Block(small).Area()
	if math.Abs(ratioR-ratioA) > 1e-9*ratioA {
		t.Errorf("VerticalR ratio %g, want area ratio %g", ratioR, ratioA)
	}
}

func TestRimR(t *testing.T) {
	fp := floorplan.Alpha21364()
	m, err := NewModel(fp, DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Boundary block has a rim path; the centre block does not.
	l2l, _ := fp.IndexOf("L2Left")
	if _, ok := m.RimR(l2l); !ok {
		t.Error("boundary block L2Left should have a rim resistance")
	}
	ir, _ := fp.IndexOf("IntReg")
	if _, ok := m.RimR(ir); ok {
		t.Error("interior block IntReg should not have a rim resistance")
	}
	// A corner block (two contacts in parallel) must beat a single-edge block
	// of comparable geometry; at minimum, parallel paths reduce resistance.
	l2b, _ := fp.IndexOf("L2Base") // south strip: west+south+east contacts
	rCorner, _ := m.RimR(l2b)
	rEdge, _ := m.RimR(l2l)
	if !(rCorner < rEdge) {
		t.Errorf("multi-edge rim %g should be smaller than single-edge-ish %g", rCorner, rEdge)
	}
}

func TestDescribeOutputs(t *testing.T) {
	m := alphaModel(t)
	res, err := m.SteadyState(uniformPower(m.NumBlocks(), 2))
	if err != nil {
		t.Fatal(err)
	}
	d := res.Describe()
	if !strings.Contains(d, "sink") || !strings.Contains(d, "block") {
		t.Error("Describe() missing expected sections")
	}
	if CrankNicolson.String() != "crank-nicolson" || RK4.String() != "rk4" {
		t.Error("Integrator String() wrong")
	}
	if Integrator(42).String() == "" {
		t.Error("unknown integrator String() empty")
	}
}

func TestBlockTempsCopy(t *testing.T) {
	m := alphaModel(t)
	res, err := m.SteadyState(uniformPower(m.NumBlocks(), 1))
	if err != nil {
		t.Fatal(err)
	}
	temps := res.BlockTemps()
	temps[0] = -1000
	if res.temps[0] == -1000 {
		t.Error("BlockTemps leaks internal state")
	}
}

func TestCNOperatorCacheBounded(t *testing.T) {
	fp := floorplan.Alpha21364()
	m, err := NewModel(fp, DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	power := make([]float64, m.NumBlocks())
	power[0] = 10
	// Drive far more distinct step sizes than the cache bound; the map must
	// stay capped and every run must still succeed after evictions.
	for i := 1; i <= 3*maxCNOps; i++ {
		step := 0.001 * float64(i)
		if _, err := m.Transient(power, TransientOptions{Duration: 10 * step, Step: step}); err != nil {
			t.Fatalf("step %g: %v", step, err)
		}
	}
	m.cnMu.Lock()
	n, order := len(m.cnOps), len(m.cnOrder)
	m.cnMu.Unlock()
	if n > maxCNOps {
		t.Errorf("cnOps grew to %d entries, bound is %d", n, maxCNOps)
	}
	if n != order {
		t.Errorf("cnOps has %d entries but cnOrder tracks %d", n, order)
	}
	// An evicted step size must transparently rebuild.
	if _, err := m.Transient(power, TransientOptions{Duration: 0.01, Step: 0.001}); err != nil {
		t.Fatalf("re-running evicted step size: %v", err)
	}
}

func TestTransientTinySampleEvery(t *testing.T) {
	// Regression: a tiny positive SampleEvery must not panic on trace
	// pre-allocation or demand absurd memory; samples stay bounded by the
	// step count.
	fp := floorplan.Alpha21364()
	m, err := NewModel(fp, DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	power := make([]float64, m.NumBlocks())
	power[0] = 10
	res, err := m.Transient(power, TransientOptions{Duration: 1, Step: 0.5, SampleEvery: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) > 4 {
		t.Errorf("got %d samples from 2 steps", len(res.Samples))
	}
}
