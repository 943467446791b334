package experiments

import (
	"runtime"
	"testing"

	"repro/internal/oraclestore"
	"repro/internal/testspec"
)

func TestDefaultFleetDeterministic(t *testing.T) {
	a, err := DefaultFleet(6, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DefaultFleet(6, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 6 || len(b) != 6 {
		t.Fatalf("fleet sizes %d, %d, want 6", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Errorf("scenario %d name %q vs %q", i, a[i].Name, b[i].Name)
		}
		if a[i].Spec.NumCores() != b[i].Spec.NumCores() {
			t.Errorf("scenario %d cores differ", i)
		}
	}
	if a[0].Name != "alpha21364" || a[1].Name != "figure1-soc" {
		t.Errorf("builtins missing from fleet head: %q, %q", a[0].Name, a[1].Name)
	}
	// Truncated fleets keep the builtin prefix.
	one, err := DefaultFleet(1, 11)
	if err != nil || len(one) != 1 || one[0].Name != "alpha21364" {
		t.Errorf("DefaultFleet(1): %v, %v", one, err)
	}
	if _, err := DefaultFleet(0, 11); err == nil {
		t.Error("DefaultFleet(0) should fail")
	}
}

// TestFleetSerialParallelByteIdentical is the fleet engine's core contract:
// a 32-floorplan sweep renders byte-identically whether the shared pool has
// one worker or GOMAXPROCS (forced to 4 so the parallel path is real even on
// a 1-CPU host). Runs under -race in CI.
func TestFleetSerialParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("32-scenario fleet in -short mode")
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	scens, err := DefaultFleet(32, 11)
	if err != nil {
		t.Fatal(err)
	}
	// One cell per scenario keeps 32 floorplans affordable under -race.
	tls, stcls := []float64{165}, []float64{60}

	serial := &Fleet{Scenarios: scens, TLs: tls, STCLs: stcls}
	sres, err := serial.Run()
	if err != nil {
		t.Fatal(err)
	}
	parallel := &Fleet{Scenarios: scens, TLs: tls, STCLs: stcls, Parallel: true}
	pres, err := parallel.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sres.Render() != pres.Render() {
		t.Errorf("serial and parallel fleet renders differ:\n--- serial ---\n%s--- parallel ---\n%s",
			sres.Render(), pres.Render())
	}
}

func TestFleetWarmStoreSkipsSimulation(t *testing.T) {
	dir := t.TempDir()
	scens, err := DefaultFleet(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	tls, stcls := []float64{165}, []float64{60}

	st, err := oraclestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := &Fleet{Scenarios: scens, TLs: tls, STCLs: stcls, Store: st}
	cres, err := cold.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cres.Scenarios {
		if r.StoreHits != 0 {
			t.Errorf("%s: cold run had %d store hits", r.Name, r.StoreHits)
		}
		if r.StoreMisses != r.Misses {
			t.Errorf("%s: store misses %d != tier-1 misses %d (every distinct set should reach the store)",
				r.Name, r.StoreMisses, r.Misses)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh store handle = fresh process: everything must come from disk.
	st2, err := oraclestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	warm := &Fleet{Scenarios: scens, TLs: tls, STCLs: stcls, Store: st2, Parallel: true}
	wres, err := warm.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range wres.Scenarios {
		if r.StoreMisses != 0 {
			t.Errorf("%s: warm run re-simulated %d sessions", r.Name, r.StoreMisses)
		}
		if r.StoreHits != r.Misses {
			t.Errorf("%s: warm store hits %d != tier-1 misses %d", r.Name, r.StoreHits, r.Misses)
		}
		// Same schedules, cold vs warm, serial vs parallel.
		for j := range r.Rows {
			if r.Rows[j] != cres.Scenarios[i].Rows[j] {
				t.Errorf("%s cell %d: warm row %+v != cold row %+v", r.Name, j, r.Rows[j], cres.Scenarios[i].Rows[j])
			}
		}
	}
}

func TestFleetGridOracleLazyWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("grid-oracle fleet in -short mode")
	}
	dir := t.TempDir()
	scens, err := DefaultFleet(2, 7) // the two builtins
	if err != nil {
		t.Fatal(err)
	}
	tls, stcls := []float64{170}, []float64{60}

	st, err := oraclestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := &Fleet{Scenarios: scens, TLs: tls, STCLs: stcls, Store: st, GridRes: 12}
	cres, err := cold.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := oraclestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	warm := &Fleet{Scenarios: scens, TLs: tls, STCLs: stcls, Store: st2, GridRes: 12}
	wres, err := warm.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range wres.Scenarios {
		// Schedules and temperatures must be bit-identical to the cold run;
		// only the store counters flip (all misses → all hits).
		for j := range r.Rows {
			if r.Rows[j] != cres.Scenarios[i].Rows[j] {
				t.Errorf("%s cell %d: warm row %+v != cold row %+v", r.Name, j, r.Rows[j], cres.Scenarios[i].Rows[j])
			}
		}
		if r.StoreMisses != 0 {
			t.Errorf("%s: warm grid-oracle run re-simulated %d sessions", r.Name, r.StoreMisses)
		}
		if r.StoreHits != cres.Scenarios[i].StoreMisses {
			t.Errorf("%s: warm hits %d != cold misses %d", r.Name, r.StoreHits, cres.Scenarios[i].StoreMisses)
		}
	}
}

func TestEnvWithStoreMatchesPlainEnv(t *testing.T) {
	// The store must be invisible to results: a store-backed Table 1 equals
	// the plain one bit-for-bit, cold and warm.
	dir := t.TempDir()
	plainEnv, err := NewEnv(testspec.Alpha21364())
	if err != nil {
		t.Fatal(err)
	}
	tls, stcls := []float64{165, 175}, []float64{40, 60}
	want, err := RunTable1Grid(plainEnv, tls, stcls)
	if err != nil {
		t.Fatal(err)
	}

	for pass := 0; pass < 2; pass++ { // cold then warm
		st, err := oraclestore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		env, err := NewEnvWithOptions(plainEnv.Spec, plainEnv.Model.Config(), EnvOptions{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunTable1Grid(env, tls, stcls)
		if err != nil {
			t.Fatal(err)
		}
		if got.Render() != want.Render() {
			t.Errorf("pass %d: store-backed Table 1 differs from plain", pass)
		}
		if pass == 1 {
			h, m := env.StoreCache.Stats()
			if m != 0 || h == 0 {
				t.Errorf("warm pass: store stats (%d hits, %d misses), want all hits", h, m)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
