package main

import (
	"strings"
	"testing"
)

func TestGateMetricsRegressions(t *testing.T) {
	cases := []struct {
		name     string
		old, new map[string]float64
		wantFail []string // substrings of expected failures, empty = pass
	}{
		{
			name:     "numeric regression past tolerance fails",
			old:      map[string]float64{"numeric_ms": 1000},
			new:      map[string]float64{"numeric_ms": 1400},
			wantFail: []string{"numeric_ms"},
		},
		{
			name: "numeric within tolerance passes",
			old:  map[string]float64{"numeric_ms": 1000},
			new:  map[string]float64{"numeric_ms": 1250},
		},
		{
			name: "warm path needs a 2x regression to fail",
			old:  map[string]float64{"warm_ms": 2.4},
			new:  map[string]float64{"warm_ms": 4.1}, // the observed PR7->PR8 swing
		},
		{
			name:     "warm path past 2x fails",
			old:      map[string]float64{"warm_ms": 2.4},
			new:      map[string]float64{"warm_ms": 5.1},
			wantFail: []string{"warm_ms"},
		},
		{
			name: "both sides under the noise floor are skipped",
			old:  map[string]float64{"warm_job_ms": 0.4},
			new:  map[string]float64{"warm_job_ms": 0.95}, // +138%, but sub-floor
		},
		{
			name: "speedup ratio is informational",
			old:  map[string]float64{"speedup_x": 60.2},
			new:  map[string]float64{"speedup_x": 38.3}, // a faster cold side
		},
		{
			name: "ungated metrics are ignored",
			old:  map[string]float64{"maxT@TL185,STCL100_°C": 100},
			new:  map[string]float64{"maxT@TL185,STCL100_°C": 400},
		},
		{
			name: "metric missing on either side is skipped",
			old:  map[string]float64{},
			new:  map[string]float64{"numeric_ms": 5000},
		},
		{
			name:     "multiple failures all reported",
			old:      map[string]float64{"cold_ms": 100, "numeric_ms": 1000},
			new:      map[string]float64{"cold_ms": 200, "numeric_ms": 2000},
			wantFail: []string{"cold_ms", "numeric_ms"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := gateMetrics("BenchmarkX", tc.old, tc.new)
			if len(got) != len(tc.wantFail) {
				t.Fatalf("failures = %v, want %d matching %v", got, len(tc.wantFail), tc.wantFail)
			}
			for i, sub := range tc.wantFail {
				if !strings.Contains(got[i], sub) {
					t.Errorf("failure[%d] = %q, want it to mention %q", i, got[i], sub)
				}
			}
		})
	}
}

// TestGateEndToEnd drives gate() with full reports: the ns/op gate and the
// metric gates must both contribute failures, and a clean pair must pass.
func TestGateEndToEnd(t *testing.T) {
	oldRep := &Report{Benches: []BenchLine{
		{Name: "BenchmarkGridFactor/n131k/supernodal", NsPerOp: 3e9,
			Metrics: map[string]float64{"numeric_ms": 1500}},
		{Name: "BenchmarkTable1WarmStore", NsPerOp: 5e6,
			Metrics: map[string]float64{"speedup_x": 60, "warm_ms": 2.4, "cold_ms": 160}},
	}}
	clean := &Report{Benches: []BenchLine{
		{Name: "BenchmarkGridFactor/n131k/supernodal", NsPerOp: 3.1e9,
			Metrics: map[string]float64{"numeric_ms": 1550}},
		{Name: "BenchmarkTable1WarmStore", NsPerOp: 6e6,
			Metrics: map[string]float64{"speedup_x": 47, "warm_ms": 4.0, "cold_ms": 190}},
	}}
	if err := gate(oldRep, clean, 0.25, "old", "new"); err != nil {
		t.Fatalf("clean pair failed the gate: %v", err)
	}
	dirty := &Report{Benches: []BenchLine{
		{Name: "BenchmarkGridFactor/n131k/supernodal", NsPerOp: 3.1e9,
			Metrics: map[string]float64{"numeric_ms": 2500}}, // +67% numeric
		{Name: "BenchmarkTable1WarmStore", NsPerOp: 9e6, // +80% ns/op
			Metrics: map[string]float64{"speedup_x": 58, "warm_ms": 2.5, "cold_ms": 170}},
	}}
	err := gate(oldRep, dirty, 0.25, "old", "new")
	if err == nil {
		t.Fatal("dirty pair passed the gate")
	}
	for _, want := range []string{"numeric_ms", "BenchmarkTable1WarmStore"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("gate error does not mention %q:\n%v", want, err)
		}
	}
}
