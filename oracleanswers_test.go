package thermalsched

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/oraclestore"
	"repro/internal/schedule"
)

// recordingOracle answers like its inner oracle and keeps a private copy of
// every slice it returns, so a test can check afterwards that no layer above
// wrote to an answer it was handed.
type recordingOracle struct {
	inner core.Oracle

	mu    sync.Mutex
	given [][]float64
	kept  [][]float64
}

func (o *recordingOracle) BlockTemps(active []int) ([]float64, error) {
	temps, err := o.inner.BlockTemps(active)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	o.given = append(o.given, temps)
	o.kept = append(o.kept, slices.Clone(temps))
	o.mu.Unlock()
	return temps, nil
}

func (o *recordingOracle) BlockTempsBatch(sessions [][]int) ([][]float64, error) {
	out := make([][]float64, len(sessions))
	for i, s := range sessions {
		temps, err := o.BlockTemps(s)
		if err != nil {
			return nil, err
		}
		out[i] = temps
	}
	return out, nil
}

// TestOracleAnswersNotWritten: the memo and store tiers hand every answer out
// by reference, so no consumer may write to one. Every consumer runs over a
// CachedOracle above a store-wrapped recording leaf — the generator with and
// without batched validation, the baseline checker, the optimal thermal
// schedule and System.SessionMaxTemp, then two generators at once on a fresh
// memo over the warm store — and afterwards every answer the leaf returned
// still equals its private copy bit for bit, NaN passive entries included.
func TestOracleAnswersNotWritten(t *testing.T) {
	sys, err := NewSystem(AlphaWorkload(), DefaultPackage())
	if err != nil {
		t.Fatal(err)
	}
	spec := sys.env.Spec
	st, err := oraclestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sc, err := st.System(oraclestore.DescForModel(sys.env.Model, spec.Profile()))
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingOracle{inner: passiveNaN{sys.env.Sim}}
	stack := sc.Wrap(rec)
	w := withOracle(sys, stack)

	for _, tl := range []float64{100, 150} {
		cfg := core.Config{TL: tl, STCL: 60, AutoRaiseTL: true}
		if _, err := core.Generate(spec, w.env.SM, w.env.Oracle, cfg); err != nil {
			t.Fatalf("TL %g: %v", tl, err)
		}
	}
	var sessions []schedule.Session
	for i := 0; i+1 < spec.NumCores(); i += 2 {
		sessions = append(sessions, schedule.MustSession(i, i+1))
	}
	if _, _, err := (baseline.ThermalChecker{BlockTemps: w.env.Oracle.BlockTemps}).Check(schedule.New(sessions...), 150); err != nil {
		t.Fatal(err)
	}
	if _, err := baseline.OptimalThermal(spec, w.env.Oracle.BlockTemps, 165); err != nil {
		t.Fatal(err)
	}
	for _, active := range [][]int{{0}, {3, 9}, {1, 4, 7, 13}} {
		if _, err := w.SessionMaxTemp(active); err != nil {
			t.Fatal(err)
		}
	}

	// A cold memo over the warm store: both generators read store hits and
	// each other's memo entries concurrently.
	warm := withOracle(sys, stack)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := core.Config{TL: 150, STCL: 60, AutoRaiseTL: true}
			_, errs[g] = core.Generate(spec, warm.env.SM, warm.env.Oracle, cfg)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("concurrent generator %d: %v", g, err)
		}
	}
	if hits, _ := sc.Stats(); hits == 0 {
		t.Error("the store answered nothing, so its hand-outs were never checked")
	}
	if hits, _ := warm.env.Oracle.Stats(); hits == 0 {
		t.Error("the concurrent generators shared no memo entry")
	}

	if len(rec.given) == 0 {
		t.Fatal("the leaf answered nothing")
	}
	for i, temps := range rec.given {
		for b, v := range temps {
			if math.Float64bits(v) != math.Float64bits(rec.kept[i][b]) {
				t.Fatalf("answer %d block %d reads %g, was %g when returned", i, b, v, rec.kept[i][b])
			}
		}
	}
}
