package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/testspec"
)

// forceParallelism raises GOMAXPROCS so the worker-pool paths genuinely run
// concurrent goroutines even on single-CPU machines (the race detector keys
// on happens-before, not physical parallelism, so this keeps `go test -race`
// meaningful everywhere).
func forceParallelism(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestSweepNOrderAndParallelEquality(t *testing.T) {
	forceParallelism(t, 4)
	fn := func(i int) (string, error) { return fmt.Sprintf("cell-%d", i), nil }
	serial, err := sweepN(false, 37, fn)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := sweepN(true, 37, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("index %d: serial %q != parallel %q", i, serial[i], parallel[i])
		}
		if serial[i] != fmt.Sprintf("cell-%d", i) {
			t.Fatalf("index %d out of order: %q", i, serial[i])
		}
	}
}

func TestSweepNLowestIndexError(t *testing.T) {
	forceParallelism(t, 4)
	for _, parallel := range []bool{false, true} {
		_, err := sweepN(parallel, 20, func(i int) (int, error) {
			if i == 7 || i == 13 {
				return 0, fmt.Errorf("cell %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "cell 7 failed" {
			t.Errorf("parallel=%v: err = %v, want lowest-index failure", parallel, err)
		}
	}
}

func TestSweepNRunsEverything(t *testing.T) {
	forceParallelism(t, 4)
	var ran atomic.Int64
	if _, err := sweepN(true, 100, func(i int) (struct{}, error) {
		ran.Add(1)
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 100 {
		t.Errorf("ran %d cells, want 100", ran.Load())
	}
	if _, err := sweepN(true, 0, func(i int) (int, error) {
		return 0, errors.New("must not run")
	}); err != nil {
		t.Errorf("empty sweep: %v", err)
	}
}

// TestTable1SerialParallelByteIdentical is the engine's core guarantee: the
// full Table 1 grid rendered from a serial sweep and from a parallel sweep
// over a shared memoized oracle must match byte for byte.
func TestTable1SerialParallelByteIdentical(t *testing.T) {
	forceParallelism(t, 4)
	if testing.Short() {
		t.Skip("full Table 1 grid twice in -short mode")
	}
	serialEnv, err := NewEnv(testspec.Alpha21364())
	if err != nil {
		t.Fatal(err)
	}
	parallelEnv, err := NewEnv(testspec.Alpha21364())
	if err != nil {
		t.Fatal(err)
	}
	parallelEnv.Parallel = true

	serial, err := RunTable1(serialEnv)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunTable1(parallelEnv)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := serial.Render(), parallel.Render(); s != p {
		t.Errorf("serial and parallel Table 1 differ:\n--- serial ---\n%s--- parallel ---\n%s", s, p)
	}

	// The memoization invariant: misses == distinct sessions, independent of
	// scheduling, so both envs must have simulated the same number of
	// sessions and answered everything else from cache.
	sh, sm := serialEnv.Oracle.Stats()
	ph, pm := parallelEnv.Oracle.Stats()
	if sm != pm {
		t.Errorf("distinct simulated sessions differ: serial %d, parallel %d", sm, pm)
	}
	if sh != ph {
		t.Errorf("cache hits differ: serial %d, parallel %d", sh, ph)
	}
	if sh == 0 {
		t.Error("the 81-cell grid produced zero cache hits; memoization is not working")
	}
	t.Logf("GOMAXPROCS=%d, oracle: %d simulated, %d cached of %d queries",
		runtime.GOMAXPROCS(0), sm, sh, sh+sm)
}

// TestWeightsOrderingParallelIdentical covers the ablation sweeps' parallel
// paths with the same byte-identity contract.
func TestWeightsOrderingParallelIdentical(t *testing.T) {
	forceParallelism(t, 4)
	if testing.Short() {
		t.Skip("ablation sweeps in -short mode")
	}
	e := env(t)
	wasParallel := e.Parallel
	defer func() { e.Parallel = wasParallel }()

	e.Parallel = false
	ws, err := RunWeights(e)
	if err != nil {
		t.Fatal(err)
	}
	os, err := RunOrdering(e)
	if err != nil {
		t.Fatal(err)
	}
	e.Parallel = true
	wp, err := RunWeights(e)
	if err != nil {
		t.Fatal(err)
	}
	op, err := RunOrdering(e)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Render() != wp.Render() {
		t.Error("weights ablation differs between serial and parallel runs")
	}
	if os.Render() != op.Render() {
		t.Error("ordering ablation differs between serial and parallel runs")
	}
}

func TestScalingParallelIdentical(t *testing.T) {
	forceParallelism(t, 4)
	if testing.Short() {
		t.Skip("scaling sweep in -short mode")
	}
	serial, err := RunScaling([]int{8, 12}, 11, false)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunScaling([]int{8, 12}, 11, true)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Render() != parallel.Render() {
		t.Error("scaling sweep differs between serial and parallel runs")
	}
}
