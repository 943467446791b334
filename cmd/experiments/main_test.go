package main

import (
	"path/filepath"
	"testing"

	"repro/internal/thermal"
)

func TestRunSingleExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment regeneration in -short mode")
	}
	// "all" is exercised implicitly by the individual runs; keep the test
	// fast by running the cheap artifacts individually.
	for _, which := range []string{"fig1", "claims", "fidelity", "baseline"} {
		if err := run(which, options{parallel: which == "baseline"}); err != nil {
			t.Errorf("run(%q): %v", which, err)
		}
	}
}

func TestRunGridResLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("grid ladder in -short mode")
	}
	if err := run("gridres", options{gridres: []int{8, 12}}); err != nil {
		t.Errorf("run(gridres): %v", err)
	}
	// A peak-bytes budget below the out-of-core floor must degrade the
	// ladder to an in-core factor, not fail it.
	if err := run("gridres", options{gridres: []int{8}, grid: thermal.GridOptions{PeakBytesBudget: 128}}); err != nil {
		t.Errorf("run(gridres, peak-bytes 128): %v", err)
	}
}

func TestRunFleetWithStore(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet sweep in -short mode")
	}
	dir := filepath.Join(t.TempDir(), "cache")
	opts := options{fleetSize: 3, fleetSeed: 7, cacheDir: dir, parallel: true}
	if err := run("fleet", opts); err != nil {
		t.Fatalf("cold fleet: %v", err)
	}
	// Warm re-run over the same store.
	if err := run("fleet", opts); err != nil {
		t.Fatalf("warm fleet: %v", err)
	}
}

func TestRunTable1WithCacheDir(t *testing.T) {
	if testing.Short() {
		t.Skip("table1 in -short mode")
	}
	dir := filepath.Join(t.TempDir(), "cache")
	if err := run("table1", options{cacheDir: dir}); err != nil {
		t.Fatalf("cold table1: %v", err)
	}
	if err := run("table1", options{cacheDir: dir}); err != nil {
		t.Fatalf("warm table1: %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("bogus", options{}); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestParseGridRes(t *testing.T) {
	if _, err := parseGridRes("16, 32,64"); err != nil {
		t.Errorf("valid ladder rejected: %v", err)
	}
	def, err := parseGridRes("  ")
	if err != nil || len(def) == 0 {
		t.Errorf("empty ladder should yield the default rungs, got %v, %v", def, err)
	}
	for _, bad := range []string{"16,x", "1", "-4", "8,,16"} {
		if _, err := parseGridRes(bad); err == nil {
			t.Errorf("parseGridRes(%q) should fail", bad)
		}
	}
}
