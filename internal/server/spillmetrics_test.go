package server

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/thermal"
)

// TestMetricsGridSpillStats: a server configured with a peak-bytes budget
// tight enough to spill must answer grid requests with the same schedule as
// an unbudgeted server and expose the spill activity as per-system gauges on
// /metrics.
func TestMetricsGridSpillStats(t *testing.T) {
	// Derive a feasible-but-tight budget from an unbudgeted model of the same
	// system: the unspillable floor (index arrays + frontal scratch) plus a
	// quarter of the factor's values.
	base, err := thermal.NewGridModelWithOptions(floorplan.Alpha21364(),
		thermal.DefaultPackageConfig(), 16, 16, thermal.GridOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := base.FactorStats()
	ws := st.PeakFactorBytes - int64(st.FactorNNZ)*16
	floor := int64(st.FactorNNZ)*8 + int64(base.NumNodes()+1)*8 + ws
	budget := floor + int64(st.FactorNNZ)*2

	_, refHS := newTestServer(t, Config{})
	_, hs := newTestServer(t, Config{Grid: thermal.GridOptions{
		PeakBytesBudget: budget,
		SpillDir:        t.TempDir(),
	}})

	req := table1Request()
	req["grid_res"] = 16
	ref, _ := postSchedule(t, refHS.URL, req)
	sched, _ := postSchedule(t, hs.URL, req)
	if !sched.Cache.GridFactorized {
		t.Fatal("grid request did not factorize")
	}
	if sched.Result.Schedule != ref.Result.Schedule {
		t.Errorf("budgeted schedule differs from unbudgeted:\nref:\n%s\ngot:\n%s",
			ref.Result.Schedule, sched.Result.Schedule)
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)

	key := sched.Result.SystemKey
	gauge := func(name string) int64 {
		t.Helper()
		prefix := fmt.Sprintf("%s{system=%q} ", name, key)
		for _, line := range strings.Split(text, "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				v, err := strconv.ParseInt(rest, 10, 64)
				if err != nil {
					t.Fatalf("%s = %q: %v", name, rest, err)
				}
				return v
			}
		}
		t.Fatalf("metrics missing %s for system %s", name, key)
		return 0
	}
	spilled := gauge("thermserve_grid_factor_spilled_panels")
	if spilled <= 0 {
		t.Errorf("spilled panels = %d, want > 0 under budget %d", spilled, budget)
	}
	if b := gauge("thermserve_grid_factor_spilled_bytes"); b <= 0 {
		t.Errorf("spilled bytes = %d, want > 0", b)
	}
	resident := gauge("thermserve_grid_factor_peak_resident_bytes")
	if resident <= 0 || resident > budget {
		t.Errorf("peak resident %d outside (0, budget %d]", resident, budget)
	}
	if peak := gauge("thermserve_grid_factor_peak_bytes"); resident >= peak {
		t.Errorf("peak resident %d not below in-core peak %d", resident, peak)
	}
}

// TestMetricsBudgetedGridFactorShared: under an explicit peak-bytes budget,
// alpha at two ambients still shares one grid factor.
func TestMetricsBudgetedGridFactorShared(t *testing.T) {
	waitNoGridFactors(t)
	_, hs := newTestServer(t, Config{Grid: thermal.GridOptions{PeakBytesBudget: 2 << 30}})
	for _, ambient := range []float64{45, 50} {
		req := table1Request()
		req["grid_res"] = 32
		req["package"] = map[string]any{"ambient_celsius": ambient}
		postSchedule(t, hs.URL, req)
	}
	if got := fetchMetric(t, hs.URL, "thermserve_grid_factors_live"); got != 1 {
		t.Errorf("thermserve_grid_factors_live = %v for two budgeted alpha grid systems, want 1", got)
	}
}
