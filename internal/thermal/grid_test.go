package thermal

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/linalg"
)

func alphaGrid(t *testing.T, nx, ny int) *GridModel {
	t.Helper()
	g, err := NewGridModel(floorplan.Alpha21364(), DefaultPackageConfig(), nx, ny)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGridModelValidation(t *testing.T) {
	fp := floorplan.Alpha21364()
	if _, err := NewGridModel(fp, DefaultPackageConfig(), 1, 8); !errors.Is(err, ErrModel) {
		t.Errorf("tiny grid: err = %v, want ErrModel", err)
	}
	bad := DefaultPackageConfig()
	bad.KSilicon = 0
	if _, err := NewGridModel(fp, bad, 8, 8); !errors.Is(err, ErrConfig) {
		t.Errorf("bad config: err = %v, want ErrConfig", err)
	}
	small := DefaultPackageConfig()
	small.SpreaderSide = 1e-3
	if _, err := NewGridModel(fp, small, 8, 8); !errors.Is(err, ErrModel) {
		t.Errorf("small spreader: err = %v, want ErrModel", err)
	}
}

// totalHeatToAmbient returns the heat flow into the ambient (W), for energy
// conservation checks.
func totalHeatToAmbient(r *GridResult) float64 {
	return (r.temps[r.model.sinkNode()] - r.model.cfg.Ambient) / r.model.cfg.ConvectionR
}

func TestGridEnergyConservation(t *testing.T) {
	g := alphaGrid(t, 16, 16)
	power := make([]float64, g.Floorplan().NumBlocks())
	var total float64
	for i := range power {
		power[i] = 3 + float64(i)
		total += power[i]
	}
	res, err := g.SteadyState(power)
	if err != nil {
		t.Fatal(err)
	}
	if out := totalHeatToAmbient(res); math.Abs(out-total) > 1e-4*total {
		t.Errorf("energy not conserved: in %.4f W, out %.4f W", total, out)
	}
}

func TestGridZeroPowerIsAmbient(t *testing.T) {
	g := alphaGrid(t, 8, 8)
	res, err := g.SteadyState(make([]float64, g.Floorplan().NumBlocks()))
	if err != nil {
		t.Fatal(err)
	}
	amb := DefaultPackageConfig().Ambient
	if math.Abs(res.MaxTemp()-amb) > 1e-9 {
		t.Errorf("MaxTemp = %g with zero power, want ambient %g", res.MaxTemp(), amb)
	}
}

func TestGridHotSpotLocalisation(t *testing.T) {
	// Power only IntReg: the hottest cell must lie inside IntReg's footprint
	// and BlockMaxTemp must agree with the global maximum.
	fp := floorplan.Alpha21364()
	g, err := NewGridModel(fp, DefaultPackageConfig(), 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := fp.IndexOf("IntReg")
	power := make([]float64, fp.NumBlocks())
	power[src] = 20
	res, err := g.SteadyState(power)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.BlockMaxTemp(src)-res.MaxTemp()) > 1e-9 {
		t.Errorf("hottest cell %.3f not inside the powered block (block max %.3f)",
			res.MaxTemp(), res.BlockMaxTemp(src))
	}
	// All other blocks must be cooler.
	for b := 0; b < fp.NumBlocks(); b++ {
		if b == src {
			continue
		}
		if res.BlockMaxTemp(b) >= res.BlockMaxTemp(src) {
			t.Errorf("block %s (%.3f) at least as hot as the source (%.3f)",
				fp.Block(b).Name, res.BlockMaxTemp(b), res.BlockMaxTemp(src))
		}
	}
}

func TestGridAgreesWithBlockModel(t *testing.T) {
	// The central validation: two independent discretisations of the same
	// package must broadly agree — peak temperatures within a small relative
	// band, and the same hottest block, across several sessions.
	fp := floorplan.Alpha21364()
	cfg := DefaultPackageConfig()
	block, err := NewModel(fp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := NewGridModel(fp, cfg, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	sessions := [][]string{
		{"IntExec"},
		{"L2Base"},
		{"IntExec", "IntReg", "Dcache"},
		{"L2Base", "L2Left", "L2Right"},
		{"Icache", "Dcache", "Bpred", "ITB_DTB", "LdStQ"},
	}
	for _, names := range sessions {
		power := make([]float64, fp.NumBlocks())
		for _, nm := range names {
			i, err := fp.IndexOf(nm)
			if err != nil {
				t.Fatal(err)
			}
			power[i] = 25
		}
		rb, err := block.SteadyState(power)
		if err != nil {
			t.Fatal(err)
		}
		rg, err := grid.SteadyState(power)
		if err != nil {
			t.Fatal(err)
		}
		amb := cfg.Ambient
		riseB := rb.MaxTemp() - amb
		riseG := rg.MaxTemp() - amb
		// The two discretisations must agree on the rise within a moderate
		// band: the grid resolves intra-block spreading (reads cooler for
		// blocky sources) and intra-block gradients (reads hotter for
		// skewed ones); ±30–60% of the rise is the expected envelope for a
		// 32×32 grid vs a 15-node block model.
		ratio := riseG / riseB
		if ratio < 0.7 || ratio > 1.6 {
			t.Errorf("session %v: grid/block rise ratio %.2f outside [0.7, 1.6] (%.1f vs %.1f K)",
				names, ratio, riseG, riseB)
		}
	}
}

func TestGridAndBlockRankSessionsIdentically(t *testing.T) {
	// Ordinal agreement matters more than absolute: both models must order
	// these three sessions the same way (dense > medium > sparse).
	fp := floorplan.Alpha21364()
	cfg := DefaultPackageConfig()
	block, err := NewModel(fp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := NewGridModel(fp, cfg, 24, 24)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(names ...string) []float64 {
		power := make([]float64, fp.NumBlocks())
		for _, nm := range names {
			i, _ := fp.IndexOf(nm)
			power[i] = 20
		}
		return power
	}
	cases := [][]float64{
		mk("IntReg", "IntExec"), // dense pair
		mk("Icache", "Dcache"),  // medium pair
		mk("L2Left", "L2Right"), // sparse pair
	}
	var blockT, gridT []float64
	for _, p := range cases {
		rb, err := block.SteadyState(p)
		if err != nil {
			t.Fatal(err)
		}
		rg, err := grid.SteadyState(p)
		if err != nil {
			t.Fatal(err)
		}
		blockT = append(blockT, rb.MaxTemp())
		gridT = append(gridT, rg.MaxTemp())
	}
	for i := 0; i < len(cases)-1; i++ {
		if !(blockT[i] > blockT[i+1]) {
			t.Errorf("block model ordering broken at %d: %v", i, blockT)
		}
		if !(gridT[i] > gridT[i+1]) {
			t.Errorf("grid model ordering broken at %d: %v", i, gridT)
		}
	}
}

func TestGridPowerValidation(t *testing.T) {
	g := alphaGrid(t, 8, 8)
	if _, err := g.SteadyState([]float64{1}); !errors.Is(err, ErrPowerShape) {
		t.Errorf("short power: err = %v, want ErrPowerShape", err)
	}
	bad := make([]float64, g.Floorplan().NumBlocks())
	bad[0] = -2
	if _, err := g.SteadyState(bad); !errors.Is(err, ErrPowerShape) {
		t.Errorf("negative power: err = %v, want ErrPowerShape", err)
	}
}

func TestGridHeatmap(t *testing.T) {
	fp := floorplan.Figure1SoC()
	g, err := NewGridModel(fp, DefaultPackageConfig(), 20, 20)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := fp.IndexOf("C2")
	power := make([]float64, fp.NumBlocks())
	power[c2] = 15
	res, err := g.SteadyState(power)
	if err != nil {
		t.Fatal(err)
	}
	hm := res.Heatmap()
	if !strings.Contains(hm, "@") || !strings.Contains(hm, "legend") {
		t.Errorf("heatmap missing extremes or legend:\n%s", hm)
	}
	// 20 rows of 20 cells plus header and legend.
	lines := strings.Split(strings.TrimRight(hm, "\n"), "\n")
	if len(lines) != 22 {
		t.Errorf("heatmap has %d lines, want 22", len(lines))
	}
	if g.nx != 20 || g.ny != 20 {
		t.Errorf("grid = %d×%d", g.nx, g.ny)
	}
	if g.numCells() != 400 {
		t.Errorf("numCells = %d", g.numCells())
	}
}

// TestGridReadBackBuiltinMaxMatchesMathMax: the read-back's builtin min and
// max give the bits math.Min and math.Max give on finite fields that hold
// ±0 and ±Inf — the only NaN-free cases where the two could differ.
func TestGridReadBackBuiltinMaxMatchesMathMax(t *testing.T) {
	g := alphaGrid(t, 12, 12)
	res, err := g.SteadyState(make([]float64, g.Floorplan().NumBlocks()))
	if err != nil {
		t.Fatal(err)
	}
	cells := res.temps[:g.numCells()]
	fields := map[string]func(i int) float64{
		"signed zeros":   func(i int) float64 { return math.Copysign(0, float64(i%2)-0.5) },
		"negative zeros": func(int) float64 { return math.Copysign(0, -1) },
		"mixed": func(i int) float64 {
			return []float64{-3.5, math.Copysign(0, -1), 0, 41.25, -1e300}[i%5]
		},
		"infinities": func(i int) float64 {
			return []float64{math.Inf(-1), 7, math.Inf(1), math.Copysign(0, -1)}[i%4]
		},
		"all -Inf": func(int) float64 { return math.Inf(-1) },
	}
	same := func(name, what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: %s = %v (%#x), math.Max fold gives %v (%#x)",
				name, what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for name, f := range fields {
		for i := range cells {
			cells[i] = f(i)
		}
		mn, mx := math.Inf(1), math.Inf(-1)
		for _, v := range cells {
			mn, mx = math.Min(mn, v), math.Max(mx, v)
		}
		same(name, "MaxTemp", res.MaxTemp(), mx)
		for b := 0; b < g.Floorplan().NumBlocks(); b++ {
			want := math.Inf(-1)
			for _, id := range g.blockCells[b] {
				want = math.Max(want, res.temps[id])
			}
			same(name, fmt.Sprintf("BlockMaxTemp(%d)", b), res.BlockMaxTemp(b), want)
		}
		if !math.IsInf(mn, 0) && !math.IsInf(mx, 0) {
			head := fmt.Sprintf("die temperature field %.2f–%.2f °C", mn, mx)
			if hm := res.Heatmap(); !strings.HasPrefix(hm, head) {
				t.Errorf("%s: heatmap header %q, want prefix %q", name, strings.SplitN(hm, "\n", 2)[0], head)
			}
		}
	}
}

func TestGridOrderingFillReduction(t *testing.T) {
	// The acceptance bar of the nested-dissection fast path: at 128×128 the
	// ND factor holds at most half the non-zeros of the RCM factor, and the
	// 256×256 factor's values fit in core under the default budget.
	// Both checks run on the symbolic analysis alone — exact fill counts,
	// no numeric factorization — so the test stays fast under -race.
	fp := floorplan.Alpha21364()
	cfg := DefaultPackageConfig()
	die := fp.Die()
	build := func(res int) *GridModel {
		g := &GridModel{
			fp: fp, cfg: cfg, nx: res, ny: res,
			cellW: die.W / float64(res), cellH: die.H / float64(res),
		}
		g.mapBlocks()
		return g
	}

	g := build(128)
	sys := g.assemble()
	ndSym, err := linalg.NewCholSymbolic(sys, g.ndPerm())
	if err != nil {
		t.Fatal(err)
	}
	rcmSym, err := linalg.NewCholSymbolic(sys, nil) // nil perm: hub-aware RCM
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("128×128: nd fill %d, rcm fill %d (%.1fx)",
		ndSym.LNNZ(), rcmSym.LNNZ(), float64(rcmSym.LNNZ())/float64(ndSym.LNNZ()))
	if 2*ndSym.LNNZ() > rcmSym.LNNZ() {
		t.Errorf("128×128 ND fill %d exceeds half the RCM fill %d", ndSym.LNNZ(), rcmSym.LNNZ())
	}

	if testing.Short() || raceEnabled {
		// Pure integer counting with no concurrency: under the race detector
		// the 256×256 analysis costs ~a minute for zero extra coverage.
		t.Skip("256×256 symbolic analysis skipped in -short mode and under -race")
	}
	g256 := build(256)
	nd256, err := linalg.NewCholSymbolic(g256.assemble(), g256.ndPerm())
	if err != nil {
		t.Fatal(err)
	}
	values := int64(nd256.LNNZ()) * 16
	t.Logf("256×256: nd fill %d (%d value bytes, default budget %d)", nd256.LNNZ(), values, defaultPeakBudget)
	if values > defaultPeakBudget {
		t.Errorf("256×256 ND factor values %d B exceed the default budget %d B", values, defaultPeakBudget)
	}
}

// nanBlocks returns an ActiveBlockMax destination for g with every entry
// NaN, so entries the call must leave alone stay recognisable.
func nanBlocks(g *GridModel) []float64 {
	dst := make([]float64, g.Floorplan().NumBlocks())
	for b := range dst {
		dst[b] = math.NaN()
	}
	return dst
}

// blockMaxMismatch reports where an ActiveBlockMax answer got, written into
// nanBlocks, departs from the full field want: each active block must be
// bitwise want.BlockMaxTemp(b), and every other entry still NaN.
func blockMaxMismatch(active []int, got []float64, want *GridResult) error {
	isActive := make(map[int]bool, len(active))
	for _, b := range active {
		isActive[b] = true
		if w := want.BlockMaxTemp(b); math.Float64bits(got[b]) != math.Float64bits(w) {
			return fmt.Errorf("active block %d: %g, want BlockMaxTemp %g", b, got[b], w)
		}
	}
	for b, v := range got {
		if !isActive[b] && !math.IsNaN(v) {
			return fmt.Errorf("passive block %d written: %g", b, v)
		}
	}
	return nil
}

func TestGridActiveBlockMaxBitIdentical(t *testing.T) {
	// The in-place sparse-RHS read-back must reproduce SteadyState's
	// BlockMaxTemp bit for bit at every active block — that identity is
	// what lets the oracle mix them freely without perturbing schedules —
	// and leave every passive entry alone. Several goroutines query at once,
	// as the oracle's batch fan-out does, sharing the model's pooled vectors.
	g := alphaGrid(t, 24, 24)
	nb := g.Floorplan().NumBlocks()
	sessions := [][]int{{0}, {3, 7}, {1, 2, 11}, {0, 5, 8, 14}, {4}, {6, 6}}
	powers := make([][]float64, len(sessions))
	want := make([]*GridResult, len(sessions))
	for i, act := range sessions {
		pm := make([]float64, nb)
		for _, b := range act {
			pm[b] = 12 + float64(b)
		}
		powers[i] = pm
		res, err := g.SteadyState(pm)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, act := range sessions {
				got := nanBlocks(g)
				if err := g.ActiveBlockMax(got, powers[i], act); err != nil {
					t.Error(err)
					return
				}
				if err := blockMaxMismatch(act, got, want[i]); err != nil {
					t.Errorf("session %d: %v", i, err)
				}
			}
		}()
	}
	wg.Wait()
	if err := g.ActiveBlockMax(nanBlocks(g), powers[0], []int{nb}); err == nil {
		t.Error("out-of-range active block should fail")
	}
	if err := g.ActiveBlockMax(make([]float64, nb-1), powers[0], sessions[0]); err == nil {
		t.Error("short destination should fail")
	}
}

// TestGridFactorStats checks the construction-side stats the /metrics
// endpoint and the perf reports consume. Earlier tests' dropped models are
// collected first, so this model factors afresh.
func TestGridFactorStats(t *testing.T) {
	waitLiveGridFactors(t, 0)
	g := alphaGrid(t, 24, 24)
	defer g.Close()
	st := g.FactorStats()
	if st.Mode != "supernodal" {
		t.Fatalf("Mode = %q, want supernodal", st.Mode)
	}
	if st.Shared {
		t.Fatal("Shared = true with no other live model")
	}
	if st.FactorTime <= 0 {
		t.Errorf("FactorTime = %v, want > 0", st.FactorTime)
	}
	if st.Panels <= 0 || st.Panels > g.NumNodes() {
		t.Errorf("Panels = %d out of range", st.Panels)
	}
	if st.FactorNNZ != g.FactorNNZ() {
		t.Errorf("FactorNNZ = %d, want %d", st.FactorNNZ, g.FactorNNZ())
	}
	if st.PeakFactorBytes < int64(st.FactorNNZ)*16 {
		t.Errorf("PeakFactorBytes = %d < factor storage %d", st.PeakFactorBytes, st.FactorNNZ*16)
	}
}

// mapBlocksFullScan is mapBlocks without the bounding-box bound: every block
// tests every cell, in y-then-x order.
func mapBlocksFullScan(g *GridModel) ([][]cellShare, [][]int) {
	n := g.fp.NumBlocks()
	weights := make([][]cellShare, n)
	cells := make([][]int, n)
	for b := 0; b < n; b++ {
		r := g.fp.Block(b).Rect
		area := r.Area()
		for y := 0; y < g.ny; y++ {
			for x := 0; x < g.nx; x++ {
				cx0, cy0, cx1, cy1 := g.cellRect(x, y)
				ox := math.Min(cx1, r.MaxX()) - math.Max(cx0, r.X)
				oy := math.Min(cy1, r.MaxY()) - math.Max(cy0, r.Y)
				if ox <= 0 || oy <= 0 {
					continue
				}
				id := g.cellID(x, y)
				weights[b] = append(weights[b], cellShare{id, ox * oy / area})
				cells[b] = append(cells[b], id)
			}
		}
	}
	return weights, cells
}

// TestGridMapBlocksMatchesFullScan checks the bounded block→cell scan
// against the full-grid scan, bit for bit, on floorplans whose blocks touch
// the die edges (random tilings) or are narrower than one cell, over square
// and non-square grids.
func TestGridMapBlocksMatchesFullScan(t *testing.T) {
	fps := []*floorplan.Floorplan{floorplan.Alpha21364(), floorplan.Figure1SoC()}
	for seed := int64(1); seed <= 4; seed++ {
		fp, err := floorplan.Random(floorplan.RandomOptions{
			Blocks: 10 * int(seed), MinDim: 16e-3 / 400, AreaSkew: 0.8, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp)
	}
	// Slivers narrower than one cell, off the cell lines, one on each die
	// edge and one in the interior.
	mm := func(v float64) float64 { return v * 1e-3 }
	slivers, err := floorplan.New("slivers", geom.Rect{X: mm(1), Y: mm(2), W: mm(10), H: mm(10)}, []floorplan.Block{
		{Name: "west", Rect: geom.Rect{X: mm(1), Y: mm(2), W: mm(0.07), H: mm(10)}},
		{Name: "east", Rect: geom.Rect{X: mm(10.97), Y: mm(5.13), W: mm(0.03), H: mm(0.05)}},
		{Name: "south", Rect: geom.Rect{X: mm(3.31), Y: mm(2), W: mm(4), H: mm(0.011)}},
		{Name: "north", Rect: geom.Rect{X: mm(1.5), Y: mm(11.9), W: mm(9.5), H: mm(0.1)}},
		{Name: "speck", Rect: geom.Rect{X: mm(6.123), Y: mm(7.377), W: mm(0.02), H: mm(0.02)}},
		{Name: "bulk", Rect: geom.Rect{X: mm(2), Y: mm(3), W: mm(3.7), H: mm(4.1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	fps = append(fps, slivers)
	for _, fp := range fps {
		for _, dim := range [][2]int{{2, 2}, {17, 31}, {31, 17}, {64, 64}, {64, 65}, {200, 3}} {
			nx, ny := dim[0], dim[1]
			t.Run(fmt.Sprintf("%s/%dx%d", fp.Name(), nx, ny), func(t *testing.T) {
				die := fp.Die()
				g := &GridModel{fp: fp, nx: nx, ny: ny, cellW: die.W / float64(nx), cellH: die.H / float64(ny)}
				g.mapBlocks()
				weights, cells := mapBlocksFullScan(g)
				if !reflect.DeepEqual(g.cellPowerWeight, weights) {
					t.Error("cellPowerWeight differs from the full-grid scan")
				}
				if !reflect.DeepEqual(g.blockCells, cells) {
					t.Error("blockCells differs from the full-grid scan")
				}
				for b, cs := range g.blockCells {
					if len(cs) == 0 {
						t.Errorf("block %d maps to no cell", b)
					}
				}
			})
		}
	}
}
