package thermal

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/floorplan"
)

// TestThermalReciprocity verifies a deep physical invariant of any passive
// linear thermal network: the temperature rise at block j per watt injected
// at block i equals the rise at i per watt injected at j (reciprocity — the
// thermal resistance matrix G⁻¹ is symmetric). A broken stencil insertion
// (asymmetric conductance assembly) fails this immediately.
func TestThermalReciprocity(t *testing.T) {
	m, err := NewModel(floorplan.Alpha21364(), DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumBlocks()
	amb := m.Config().Ambient
	riseAt := func(src, probe int) float64 {
		p := make([]float64, n)
		p[src] = 1
		res, err := m.SteadyState(p)
		if err != nil {
			t.Fatal(err)
		}
		return res.temps[probe] - amb
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		rij := riseAt(i, j)
		rji := riseAt(j, i)
		if math.Abs(rij-rji) > 1e-9*(1+math.Abs(rij)) {
			t.Fatalf("reciprocity broken between %d and %d: %g vs %g", i, j, rij, rji)
		}
	}
}

// TestSelfHeatingDominates verifies the diagonal dominance of the thermal
// resistance matrix: a block is heated more by its own power than by the
// same power anywhere else.
func TestSelfHeatingDominates(t *testing.T) {
	m, err := NewModel(floorplan.Alpha21364(), DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumBlocks()
	amb := m.Config().Ambient
	for i := 0; i < n; i++ {
		p := make([]float64, n)
		p[i] = 10
		res, err := m.SteadyState(p)
		if err != nil {
			t.Fatal(err)
		}
		self := res.temps[i] - amb
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if other := res.temps[j] - amb; other >= self {
				t.Fatalf("block %d heated block %d (%.3f K) at least as much as itself (%.3f K)",
					i, j, other, self)
			}
		}
	}
}

// TestNeighborsHeatMoreThanStrangers verifies spatial locality: powering a
// block raises adjacent blocks more than the coolest far-away block.
func TestNeighborsHeatMoreThanStrangers(t *testing.T) {
	fp := floorplan.Alpha21364()
	m, err := NewModel(fp, DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumBlocks()
	amb := m.Config().Ambient
	src, err := fp.IndexOf("IntReg")
	if err != nil {
		t.Fatal(err)
	}
	neighbor := make([]bool, n)
	for _, nb := range m.Adjacency().Neighbors(src) {
		neighbor[nb.Index] = true
	}
	p := make([]float64, n)
	p[src] = 20
	res, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	var minNeighbor, minOther = math.Inf(1), math.Inf(1)
	for j := 0; j < n; j++ {
		if j == src {
			continue
		}
		rise := res.temps[j] - amb
		if neighbor[j] {
			minNeighbor = math.Min(minNeighbor, rise)
		} else {
			minOther = math.Min(minOther, rise)
		}
	}
	if !(minNeighbor > minOther) {
		t.Errorf("weakest neighbour rise %.4f K not above weakest stranger rise %.4f K",
			minNeighbor, minOther)
	}
}

// TestRimSpreadingCoolsBoundaryBlocks verifies that the spreader overhang
// matters: shrinking the spreader to the die size (no rim) makes a boundary
// block run hotter at identical power.
func TestRimSpreadingCoolsBoundaryBlocks(t *testing.T) {
	fp := floorplan.Alpha21364()
	big := DefaultPackageConfig()
	small := big
	small.SpreaderSide = fp.Die().W // exactly die-sized: no overhang
	mBig, err := NewModel(fp, big)
	if err != nil {
		t.Fatal(err)
	}
	mSmall, err := NewModel(fp, small)
	if err != nil {
		t.Fatal(err)
	}
	src, err := fp.IndexOf("L2Left") // west-edge block
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, fp.NumBlocks())
	p[src] = 30
	rBig, err := mBig.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	rSmall, err := mSmall.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	if !(rSmall.temps[src] > rBig.temps[src]) {
		t.Errorf("no-rim package %.2f °C not hotter than overhanging package %.2f °C",
			rSmall.temps[src], rBig.temps[src])
	}
}

// TestConvectionResistanceSetsSinkRise verifies the package's outermost
// boundary condition: sink rise = total power × convection resistance.
func TestConvectionResistanceSetsSinkRise(t *testing.T) {
	m, err := NewModel(floorplan.Alpha21364(), DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumBlocks()
	p := make([]float64, n)
	for i := range p {
		p[i] = 7
	}
	res, err := m.SteadyState(p)
	if err != nil {
		t.Fatal(err)
	}
	want := res.TotalPower() * m.Config().ConvectionR
	got := res.SinkTemp() - m.Config().Ambient
	if math.Abs(got-want) > 1e-6*want {
		t.Errorf("sink rise %.6f K, want P·Rconv = %.6f K", got, want)
	}
}
