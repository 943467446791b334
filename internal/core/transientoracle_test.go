package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/testspec"
	"repro/internal/thermal"
)

// TestTransientFinalIsPeak pins down the documented equivalence the oracle
// relies on: for constant power applied from ambient, the RC network charges
// monotonically, so the trace's final sample is its peak. TransientOracle
// reports FinalBlockTemp and is therefore reporting the peak.
func TestTransientFinalIsPeak(t *testing.T) {
	spec := testspec.Alpha21364()
	m, err := thermal.NewModel(spec.Floorplan(), thermal.DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	pm, err := spec.Profile().TestPowerMap([]int{0, 3, 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Transient(pm, thermal.TransientOptions{
		Duration:    2,
		Step:        0.002,
		SampleEvery: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) < 50 {
		t.Fatalf("only %d samples; want a well-sampled trace", len(res.Samples))
	}
	// Monotone charging: every sample at or above the previous one.
	for i := 1; i < len(res.Samples); i++ {
		if res.Samples[i].MaxTemp < res.Samples[i-1].MaxTemp-1e-9 {
			t.Fatalf("trace not monotone at t=%.3f: %.6f after %.6f",
				res.Samples[i].Time, res.Samples[i].MaxTemp, res.Samples[i-1].MaxTemp)
		}
	}
	// Final == peak, on the sampled trace and on the final field.
	peak := res.PeakMaxTemp()
	final := res.Samples[len(res.Samples)-1].MaxTemp
	if math.Abs(peak-final) > 1e-9 {
		t.Errorf("peak over trace %.6f != final sample %.6f", peak, final)
	}
	if math.Abs(res.FinalMaxTemp()-peak) > 1e-9 {
		t.Errorf("FinalMaxTemp %.6f != sampled peak %.6f", res.FinalMaxTemp(), peak)
	}
}

// TestTransientOracleMatchesFinalField ties the oracle's answer to the
// underlying transient run.
func TestTransientOracleMatchesFinalField(t *testing.T) {
	spec := testspec.Alpha21364()
	m, err := thermal.NewModel(spec.Floorplan(), thermal.DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewTransientOracle(m, spec.Profile(), 1, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	temps, err := oracle.BlockTemps([]int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := spec.Profile().TestPowerMap([]int{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Transient(pm, thermal.TransientOptions{Duration: 1, Step: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	for i := range temps {
		if math.Abs(temps[i]-res.FinalBlockTemp(i)) > 1e-9 {
			t.Errorf("block %d: oracle %.6f != transient final %.6f", i, temps[i], res.FinalBlockTemp(i))
		}
	}
}

// TestTransientOracleBatchMatchesSingle: the batch path fans single queries
// out across goroutines, so every answer must be bit-identical to BlockTemps
// on its session, in index order, and a failure must be the lowest-index
// one whatever the goroutines finish first. CI runs it under -race.
func TestTransientOracleBatchMatchesSingle(t *testing.T) {
	spec := testspec.Alpha21364()
	m, err := thermal.NewModel(spec.Floorplan(), thermal.DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewTransientOracle(m, spec.Profile(), 0.05, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	sessions := [][]int{{0}, {3}, {1, 4, 9}, {14}, {2, 5}, {7}, {0, 6, 8, 12}, {11}}
	bad := append(slices.Clone(sessions), []int{-1}, []int{99})
	bad[2], bad[5] = []int{spec.NumCores()}, []int{-2}
	for _, width := range []int{1, 4} {
		setGridWidth(t, width)
		got, err := o.BlockTempsBatch(sessions)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if len(got) != len(sessions) {
			t.Fatalf("width %d: %d results for %d sessions", width, len(got), len(sessions))
		}
		for i, s := range sessions {
			want, err := o.BlockTemps(s)
			if err != nil {
				t.Fatal(err)
			}
			for b := range want {
				if math.Float64bits(got[i][b]) != math.Float64bits(want[b]) {
					t.Fatalf("width %d session %d %v block %d: batch %v, BlockTemps %v",
						width, i, s, b, got[i][b], want[b])
				}
			}
		}
		_, wantErr := o.BlockTemps(bad[2])
		if _, err := o.BlockTempsBatch(bad); err == nil || err.Error() != wantErr.Error() {
			t.Errorf("width %d: batch error %v, want the lowest-index one %v", width, err, wantErr)
		}
	}
}
