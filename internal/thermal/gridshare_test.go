package thermal

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/linalg"
)

// waitLiveGridFactors runs the collector until at most want shared factors
// stay resident, so models that earlier tests dropped release their holds
// and the next build of their key factors afresh.
func waitLiveGridFactors(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for LiveGridFactors() > want {
		if time.Now().After(deadline) {
			t.Fatalf("LiveGridFactors = %d after GC, want <= %d", LiveGridFactors(), want)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// assembled returns the conductance matrix NewGridModelWithOptions would
// assemble for fp under cfg, without factoring it.
func assembled(fp *floorplan.Floorplan, cfg PackageConfig, nx, ny int) *linalg.Sparse {
	die := fp.Die()
	g := &GridModel{fp: fp, cfg: cfg, nx: nx, ny: ny,
		cellW: die.W / float64(nx), cellH: die.H / float64(ny)}
	return g.assemble()
}

// sameSparseBits reports whether a and b have the same pattern and
// bit-identical values.
func sameSparseBits(a, b *linalg.Sparse) bool {
	n := len(a.Diagonal()) // the dimension: one diagonal entry per row
	if len(b.Diagonal()) != n || a.NNZ() != b.NNZ() {
		return false
	}
	for i := 0; i < n; i++ {
		ac, av := a.RowNZ(i)
		bc, bv := b.RowNZ(i)
		if !reflect.DeepEqual(ac, bc) {
			return false
		}
		for k := range av {
			if math.Float64bits(av[k]) != math.Float64bits(bv[k]) {
				return false
			}
		}
	}
	return true
}

// TestGridFactorKeyGuard perturbs every PackageConfig field by reflection:
// the share key must change exactly when the assembled matrix bits change,
// so a field added later cannot slip past it. A 1-ULP change of the die's
// width or height, the resolution and each GridOptions field must change the
// key too; a zero or negative budget is the default budget.
func TestGridFactorKeyGuard(t *testing.T) {
	const n = 8
	fp := floorplan.Alpha21364()
	die := fp.Die()
	base := DefaultPackageConfig()
	baseKey := newGridFactorKey(base, die.W, die.H, n, n, GridOptions{})
	baseSys := assembled(fp, base, n, n)

	rv := reflect.ValueOf(&base).Elem()
	keyed := 0
	for i := 0; i < rv.NumField(); i++ {
		name := rv.Type().Field(i).Name
		if rv.Field(i).Kind() != reflect.Float64 {
			t.Fatalf("PackageConfig.%s is not a float64: extend this guard", name)
		}
		cfg := base
		f := reflect.ValueOf(&cfg).Elem().Field(i)
		f.SetFloat(f.Float() * 1.25)
		keyChanged := newGridFactorKey(cfg, die.W, die.H, n, n, GridOptions{}) != baseKey
		matrixChanged := !sameSparseBits(assembled(fp, cfg, n, n), baseSys)
		if keyChanged != matrixChanged {
			t.Errorf("%s: key changed %v, matrix changed %v", name, keyChanged, matrixChanged)
		}
		if keyChanged {
			keyed++
		}
	}
	if keyed != len(baseKey.pkg) {
		t.Errorf("%d PackageConfig fields change the matrix, key holds %d", keyed, len(baseKey.pkg))
	}

	// A die 1 ULP wider or taller assembles a different matrix and must miss.
	for _, d := range []geom.Rect{
		{X: die.X, Y: die.Y, W: math.Nextafter(die.W, 1), H: die.H},
		{X: die.X, Y: die.Y, W: die.W, H: math.Nextafter(die.H, 1)},
	} {
		wide, err := floorplan.New("ulp", d, fp.Blocks())
		if err != nil {
			t.Fatal(err)
		}
		if sameSparseBits(assembled(wide, base, n, n), baseSys) {
			t.Errorf("die %v: matrix bits unchanged by a 1-ULP die", d)
		}
		if newGridFactorKey(base, d.W, d.H, n, n, GridOptions{}) == baseKey {
			t.Errorf("die %v: key unchanged by a 1-ULP die", d)
		}
	}

	for name, k := range map[string]gridFactorKey{
		"nx": newGridFactorKey(base, die.W, die.H, n+1, n, GridOptions{}),
		"ny": newGridFactorKey(base, die.W, die.H, n, n+1, GridOptions{}),
	} {
		if k == baseKey {
			t.Errorf("%s: key unchanged", name)
		}
	}

	key := func(opts GridOptions) gridFactorKey {
		return newGridFactorKey(base, die.W, die.H, n, n, opts)
	}
	for _, budget := range []int64{-5, defaultPeakBudget} {
		if key(GridOptions{PeakBytesBudget: budget}) != baseKey {
			t.Errorf("budget %d: key differs from the default budget's", budget)
		}
	}
	for name, opts := range map[string]GridOptions{
		"budget":    {PeakBytesBudget: 1 << 20},
		"spill dir": {SpillDir: "spill"},
		"spill fs":  {SpillFS: brokenSpillFS{}},
	} {
		if key(opts) == baseKey {
			t.Errorf("%s: key unchanged", name)
		}
	}
}

// TestGridFactorGeometryIndependentOfGOMAXPROCS: the supernode partition has
// one shape, so a grid factored at GOMAXPROCS 1 and at 2 reports the same
// geometry and memory; only the timing may differ.
func TestGridFactorGeometryIndependentOfGOMAXPROCS(t *testing.T) {
	waitLiveGridFactors(t, 0)
	geometry := func(procs int) GridFactorStats {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		g, err := NewGridModel(floorplan.Alpha21364(), DefaultPackageConfig(), 32, 32)
		if err != nil {
			t.Fatal(err)
		}
		st := g.FactorStats()
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		if st.Shared {
			t.Fatalf("GOMAXPROCS %d: the model reused a factor; want a fresh one", procs)
		}
		st.FactorTime = 0
		return st
	}
	if serial, multi := geometry(1), geometry(2); serial != multi {
		t.Errorf("factor stats differ:\nGOMAXPROCS 1: %+v\nGOMAXPROCS 2: %+v", serial, multi)
	}
}

// gridAnswers are one model's SteadyState node temperatures and
// ActiveBlockMax answers on fixed power maps; each answer is checked against
// the model's own full field.
func gridAnswers(t *testing.T, g *GridModel) [][]float64 {
	t.Helper()
	nb := g.Floorplan().NumBlocks()
	var out [][]float64
	for s := 0; s < 3; s++ {
		pm := make([]float64, nb)
		pa := make([]float64, nb) // two active blocks, the rest idle
		var active []int
		for b := s; b < nb; b += 3 {
			pm[b] = 0.5 + float64(b%7)
			if len(active) < 2 {
				active = append(active, b)
				pa[b] = pm[b]
			}
		}
		r, err := g.SteadyState(pm)
		if err != nil {
			t.Fatal(err)
		}
		full, err := g.SteadyState(pa)
		if err != nil {
			t.Fatal(err)
		}
		ba := nanBlocks(g)
		if err := g.ActiveBlockMax(ba, pa, active); err != nil {
			t.Fatal(err)
		}
		if err := blockMaxMismatch(active, ba, full); err != nil {
			t.Fatalf("%s, map %d: %v", g.Floorplan().Name(), s, err)
		}
		out = append(out, r.temps, ba)
	}
	return out
}

func sameBits(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestGridSharedFactorBitIdentical: a model answering from a shared factor
// and one that factored afresh give bitwise-equal SteadyState and
// ActiveBlockMax results — for alpha, and for a
// random SoC on the same 16 mm die at a different ambient.
func TestGridSharedFactorBitIdentical(t *testing.T) {
	const n = 20
	waitLiveGridFactors(t, 0)
	alpha := floorplan.Alpha21364()
	soc, err := floorplan.Random(floorplan.RandomOptions{Blocks: 24, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if alpha.Die().W != soc.Die().W || alpha.Die().H != soc.Die().H {
		t.Fatalf("dies differ: alpha %v, soc %v", alpha.Die(), soc.Die())
	}
	warm := DefaultPackageConfig()
	warm.Ambient = 52.5
	build := func(fp *floorplan.Floorplan, cfg PackageConfig, wantShared bool) *GridModel {
		t.Helper()
		g, err := NewGridModel(fp, cfg, n, n)
		if err != nil {
			t.Fatal(err)
		}
		if st := g.FactorStats(); st.Shared != wantShared {
			t.Fatalf("%s: Shared = %v, want %v", fp.Name(), st.Shared, wantShared)
		}
		return g
	}

	a1 := build(alpha, DefaultPackageConfig(), false)
	s1 := build(soc, warm, true)
	a2 := build(alpha, DefaultPackageConfig(), true)
	if st := s1.FactorStats(); st.FactorTime != 0 || st.FactorNNZ != a1.FactorStats().FactorNNZ ||
		st.Panels != a1.FactorStats().Panels || st.PeakFactorBytes != a1.FactorStats().PeakFactorBytes {
		t.Errorf("shared stats %+v do not describe the factor %+v", st, a1.FactorStats())
	}
	if got := LiveGridFactors(); got != 1 {
		t.Errorf("LiveGridFactors = %d with three models on one factor, want 1", got)
	}
	alphaFresh, alphaShared, socShared := gridAnswers(t, a1), gridAnswers(t, a2), gridAnswers(t, s1)
	for _, g := range []*GridModel{a1, s1, a2} {
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := LiveGridFactors(); got != 0 {
		t.Fatalf("LiveGridFactors = %d after closing every holder, want 0", got)
	}
	s2 := build(soc, warm, false)
	defer s2.Close()
	if !sameBits(alphaShared, alphaFresh) {
		t.Error("alpha: shared-factor answers differ from the fresh factor's")
	}
	if !sameBits(socShared, gridAnswers(t, s2)) {
		t.Error("random SoC: shared-factor answers differ from the fresh factor's")
	}
}

// TestGridFactorSingleflight: concurrent cold builds of one key factor once;
// closing every holder frees the entry, so the next build factors afresh.
func TestGridFactorSingleflight(t *testing.T) {
	waitLiveGridFactors(t, 0)
	fp := floorplan.Alpha21364()
	models := make([]*GridModel, 8)
	var wg sync.WaitGroup
	for i := range models {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := NewGridModel(fp, DefaultPackageConfig(), 18, 18)
			if err != nil {
				t.Error(err)
				return
			}
			models[i] = g
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	fresh := 0
	for _, g := range models {
		if st := g.FactorStats(); !st.Shared {
			fresh++
			if st.FactorTime <= 0 {
				t.Errorf("fresh factor FactorTime = %v, want > 0", st.FactorTime)
			}
		} else if st.FactorTime != 0 {
			t.Errorf("shared factor FactorTime = %v, want 0", st.FactorTime)
		}
		if g.chol != models[0].chol {
			t.Error("models of one key hold different factors")
		}
	}
	if fresh != 1 {
		t.Errorf("%d of 8 concurrent builds factored, want exactly 1", fresh)
	}
	if got := LiveGridFactors(); got != 1 {
		t.Errorf("LiveGridFactors = %d, want 1", got)
	}
	for _, g := range models {
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		if err := g.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
	}
	if got := LiveGridFactors(); got != 0 {
		t.Errorf("LiveGridFactors = %d after closing every holder, want 0", got)
	}
	g, err := NewGridModel(fp, DefaultPackageConfig(), 18, 18)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if st := g.FactorStats(); st.Shared || st.FactorTime <= 0 {
		t.Errorf("build after closing every holder: Shared %v, FactorTime %v; want a fresh factor", st.Shared, st.FactorTime)
	}
}

// TestGridFactorDroppedWithoutClose: a model dropped without Close frees its
// shared-factor entry once collected.
func TestGridFactorDroppedWithoutClose(t *testing.T) {
	waitLiveGridFactors(t, 0)
	g, err := NewGridModel(floorplan.Alpha21364(), DefaultPackageConfig(), 14, 14)
	if err != nil {
		t.Fatal(err)
	}
	if got := LiveGridFactors(); got != 1 {
		t.Fatalf("LiveGridFactors = %d with one live model, want 1", got)
	}
	runtime.KeepAlive(g)
	waitLiveGridFactors(t, 0)
}

// TestGridBudgetedModelsShareFactor: two models under one explicit budget
// share a factor and answer bit-identically; a model under another budget
// gets its own.
func TestGridBudgetedModelsShareFactor(t *testing.T) {
	const n = 16
	waitLiveGridFactors(t, 0)
	fp, cfg := floorplan.Alpha21364(), DefaultPackageConfig()
	warm := cfg
	warm.Ambient = 52.5
	build := func(cfg PackageConfig, budget int64) *GridModel {
		t.Helper()
		g, err := NewGridModelWithOptions(fp, cfg, n, n, GridOptions{PeakBytesBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		return g
	}
	first := build(cfg, 2<<30)
	second := build(warm, 2<<30)
	if first.FactorStats().Shared || !second.FactorStats().Shared || second.chol != first.chol {
		t.Fatalf("equal budgets: first %+v, second %+v; want the second to share the first's factor",
			first.FactorStats(), second.FactorStats())
	}
	if got := LiveGridFactors(); got != 1 {
		t.Errorf("LiveGridFactors = %d with two models under one budget, want 1", got)
	}
	fresh := build(warm, 1<<40)
	if st := fresh.FactorStats(); st.Shared || fresh.chol == first.chol {
		t.Errorf("another budget: %+v, want a factor of its own", st)
	}
	if got := LiveGridFactors(); got != 2 {
		t.Errorf("LiveGridFactors = %d with two budgets, want 2", got)
	}
	if !sameBits(gridAnswers(t, second), gridAnswers(t, fresh)) {
		t.Error("shared budgeted factor answers differ from a fresh factor's")
	}
}

// TestGridSharedSpilledFactorOutlivesClose: with the default budget lowered
// so an unbudgeted 16×16 grid spills, two models of one key share the
// spilled factor, and closing one leaves the other answering bit-identically
// to an in-core model, also under concurrent queries; the last Close evicts
// the entry.
func TestGridSharedSpilledFactorOutlivesClose(t *testing.T) {
	const n = 16
	waitLiveGridFactors(t, 0)
	fp, cfg := floorplan.Alpha21364(), DefaultPackageConfig()
	inCore, err := NewGridModelWithOptions(fp, cfg, n, n, GridOptions{PeakBytesBudget: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	want := gridAnswers(t, inCore)
	pm := make([]float64, fp.NumBlocks())
	pm[0], pm[6] = 25, 18
	ref, err := inCore.SteadyState(pm)
	if err != nil {
		t.Fatal(err)
	}
	budget := spillBudgetFor(inCore)
	// The reference's factor is shared too: close it so the counts below
	// see only the spilled one.
	if err := inCore.Close(); err != nil {
		t.Fatal(err)
	}

	defer func(b int64) { defaultPeakBudget = b }(defaultPeakBudget)
	defaultPeakBudget = budget
	opts := GridOptions{SpillDir: t.TempDir()}
	first, err := NewGridModelWithOptions(fp, cfg, n, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewGridModelWithOptions(fp, cfg, n, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := first.FactorStats(); st.SpilledPanels == 0 || st.SpillDegraded || st.Shared {
		t.Fatalf("first model under budget %d: %+v, want an unshared spilled factor", defaultPeakBudget, st)
	}
	if st := second.FactorStats(); !st.Shared || st.SpilledPanels == 0 {
		t.Fatalf("second model: %+v, want the shared spilled factor", st)
	}
	if got := LiveGridFactors(); got != 1 {
		t.Fatalf("LiveGridFactors = %d with two holders of one key, want 1", got)
	}
	// Both holders stream the one spill file at once.
	var wg sync.WaitGroup
	for _, g := range []*GridModel{first, second, first, second} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := g.SteadyState(pm)
			if err != nil {
				t.Error(err)
				return
			}
			if !sameBits([][]float64{res.temps}, [][]float64{ref.temps}) {
				t.Error("concurrent spilled solve differs from in core")
			}
		}()
	}
	wg.Wait()
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	if !sameBits(gridAnswers(t, second), want) {
		t.Error("after the first holder's Close, the shared spilled factor answers differently from in core")
	}
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
	if got := LiveGridFactors(); got != 0 {
		t.Errorf("LiveGridFactors = %d after the last Close, want 0", got)
	}
}

// TestGridSharedFactorBackwardLanesBitIdentical: single-query solves on a
// factor shared through the grid factor cache run the lane-paired backward
// pass; they must match a factor forced out of core by a tighter budget
// (whose solves stream panels through per-panel column loops, with no lanes)
// bit for bit, on the model that factored and on the one that reused the
// factor, through both SteadyState and ActiveBlockMax.
func TestGridSharedFactorBackwardLanesBitIdentical(t *testing.T) {
	const n = 48
	waitLiveGridFactors(t, 0)
	alpha := floorplan.Alpha21364()
	warm := DefaultPackageConfig()
	warm.Ambient = 61
	g1, err := NewGridModel(alpha, DefaultPackageConfig(), n, n)
	if err != nil {
		t.Fatal(err)
	}
	defer g1.Close()
	g2, err := NewGridModel(alpha, warm, n, n)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if !g2.FactorStats().Shared || g2.chol != g1.chol {
		t.Fatal("second model did not reuse the first model's factor")
	}
	nb := alpha.NumBlocks()
	budget := spillBudgetFor(g1)
	for _, g := range []*GridModel{g1, g2} {
		ref, err := NewGridModelWithOptions(alpha, g.cfg, n, n, GridOptions{
			PeakBytesBudget: budget,
			SpillDir:        t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if st := ref.FactorStats(); st.Shared || st.SpilledPanels == 0 {
			t.Fatalf("reference model %+v, want a per-model factor with spilled panels", st)
		}
		for b := 0; b < nb; b++ {
			pm := make([]float64, nb)
			pm[b] = 1 + float64(b%5)
			got := nanBlocks(g)
			if err := g.ActiveBlockMax(got, pm, []int{b}); err != nil {
				t.Fatal(err)
			}
			want, err := ref.SteadyState(pm)
			if err != nil {
				t.Fatal(err)
			}
			if err := blockMaxMismatch([]int{b}, got, want); err != nil {
				t.Fatalf("ambient %v, map %d: %v", g.cfg.Ambient, b, err)
			}
		}
		all := make([]float64, nb)
		for b := range all {
			all[b] = 0.25 + float64(b%3)
		}
		r, err := g.SteadyState(all)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.SteadyState(all)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits([][]float64{r.temps}, [][]float64{want.temps}) {
			t.Fatalf("ambient %v: shared-factor solve differs from the out-of-core factor", g.cfg.Ambient)
		}
		if err := ref.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGridReleasedFactorCollected: when Close drops the last hold on a
// factor, its memory is collected without the caller starting a collection,
// because the release starts one in the background. The test never calls
// runtime.GC, and its 21×17 grid is a key no other test builds, so its model
// is the factor's only holder.
func TestGridReleasedFactorCollected(t *testing.T) {
	g, err := NewGridModel(floorplan.Alpha21364(), DefaultPackageConfig(), 21, 17)
	if err != nil {
		t.Fatal(err)
	}
	if g.FactorStats().Shared {
		t.Fatal("the model reused a live factor; want it to be the only holder")
	}
	factor := weak.Make(g.chol)
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	g = nil
	deadline := time.Now().Add(10 * time.Second)
	for factor.Value() != nil {
		if time.Now().After(deadline) {
			t.Fatal("the released factor was still reachable 10 s after Close")
		}
		time.Sleep(time.Millisecond)
	}
}
