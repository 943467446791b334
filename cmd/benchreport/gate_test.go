package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// noise is a fixed run-to-run spread of about ±10% (IQR/median ≈ 0.07), so
// the gate's bound on it is minBound.
var noise = []float64{1.00, 1.08, 0.95, 1.03, 0.97, 1.10, 0.92, 1.05, 0.99, 1.02}

// samples builds one run per element of scale: each (row, unit) in base
// times scale[i], with per-unit overrides in shift (a function of the pair
// index and the base value).
func samples(base map[metric]float64, scale []float64, shift map[metric]func(i int, v float64) float64) []run {
	runs := make([]run, len(scale))
	for i, s := range scale {
		r := run{}
		for m, v := range base {
			v *= s
			if f, ok := shift[m]; ok {
				v = f(i, v)
			}
			r[m] = v
		}
		runs[i] = r
	}
	return runs
}

// rotate returns xs shifted left by k, so head runs draw the same spread as
// the parent's but not in the same pairs.
func rotate(xs []float64, k int) []float64 {
	return append(append([]float64(nil), xs[k:]...), xs[:k]...)
}

var (
	warmStore = "BenchmarkTable1WarmStore-2"
	warmMS    = metric{warmStore, "warm_ms"}
	coldMS    = metric{warmStore, "cold_ms"}
	speedup   = metric{warmStore, "speedup_x"}
	warmNs    = metric{warmStore, "ns/op"}
	numericMS = metric{"BenchmarkGridFactor/n33k/supernodal-2", "numeric_ms"}
	steadyNs  = metric{"BenchmarkGridSteady/n1k-2", "ns/op"}
	bytesOp   = metric{"BenchmarkGridSteady/n1k-2", "B/op"}
	base      = map[metric]float64{
		warmMS: 2.0, coldMS: 150, speedup: 75, warmNs: 2.0e6,
		numericMS: 258, steadyNs: 1.4e5, bytesOp: 25216,
	}
)

// without returns base minus one metric.
func without(m metric) map[metric]float64 {
	out := map[metric]float64{}
	for k, v := range base {
		if k != m {
			out[k] = v
		}
	}
	return out
}

func verdictFor(t *testing.T, vs []verdict, m metric) verdict {
	t.Helper()
	for _, v := range vs {
		if v.metric == m {
			return v
		}
	}
	t.Fatalf("no verdict for %v in %+v", m, vs)
	return verdict{}
}

func failures(vs []verdict) []metric {
	var out []metric
	for _, v := range vs {
		if v.failed {
			out = append(out, v.metric)
		}
	}
	return out
}

// TestGateMetricsRegressions runs compare on synthetic samples: ten pairs
// with a ±10% spread, and the head shifted per case.
func TestGateMetricsRegressions(t *testing.T) {
	times := func(k float64) func(int, float64) float64 {
		return func(_ int, v float64) float64 { return k * v }
	}
	shifted := func(k float64, ms ...metric) []run {
		shift := map[metric]func(int, float64) float64{}
		for _, m := range ms {
			shift[m] = times(k)
		}
		return samples(base, rotate(noise, 3), shift)
	}
	cases := []struct {
		name         string
		parent, head []run
		wantFail     []metric // in row, unit order
	}{
		{
			name:   "identical samples pass",
			parent: samples(base, noise, nil),
			head:   samples(base, noise, nil),
		},
		{
			name:   "same spread in other pairs passes",
			parent: samples(base, noise, nil),
			head:   shifted(1),
		},
		{
			name:     "uniform +40% on warm_ms fails, cold_ms gated on its own",
			parent:   samples(base, noise, nil),
			head:     shifted(1.4, warmMS),
			wantFail: []metric{warmMS},
		},
		{
			name:     "numeric regression past tolerance fails",
			parent:   samples(base, noise, nil),
			head:     shifted(1.4, numericMS),
			wantFail: []metric{numericMS},
		},
		{
			name:   "numeric within tolerance passes",
			parent: samples(base, noise, nil),
			head:   shifted(1.1, numericMS),
		},
		{
			name:     "warm path past 2x fails",
			parent:   samples(base, noise, nil),
			head:     shifted(2, warmMS),
			wantFail: []metric{warmMS},
		},
		{
			name:   "a single outlier pair does not fail",
			parent: samples(base, noise, nil),
			head: samples(base, noise, map[metric]func(int, float64) float64{
				warmMS: func(i int, v float64) float64 {
					if i == 4 {
						return 3 * v
					}
					return v
				},
			}),
		},
		{
			name:   "speedup ratio is informational",
			parent: samples(base, noise, nil),
			head:   shifted(0.4, speedup),
		},
		{
			name:   "ungated metrics are ignored",
			parent: samples(base, noise, nil),
			head:   shifted(3, bytesOp),
		},
		{
			name:   "metric missing on either side is skipped",
			parent: samples(base, noise, nil),
			head:   samples(without(numericMS), noise, nil),
		},
		{
			name:     "multiple failures all reported",
			parent:   samples(base, noise, nil),
			head:     shifted(1.5, warmMS, steadyNs),
			wantFail: []metric{steadyNs, warmMS},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := compare(tc.parent, tc.head)
			got := failures(vs)
			if len(got) != len(tc.wantFail) {
				t.Fatalf("failed = %v, want %v", got, tc.wantFail)
			}
			for i := range got {
				if got[i] != tc.wantFail[i] {
					t.Fatalf("failed = %v, want %v", got, tc.wantFail)
				}
			}
			for _, m := range []metric{warmMS, coldMS, warmNs, steadyNs} {
				if v := verdictFor(t, vs, m); !v.gated || v.bound != minBound || v.n != len(noise) {
					t.Errorf("%v: gated %v, bound %v, n %d; want gated at %v over %d pairs",
						m, v.gated, v.bound, v.n, minBound, len(noise))
				}
			}
			for _, m := range []metric{speedup, bytesOp} {
				if v := verdictFor(t, vs, m); v.gated || v.failed {
					t.Errorf("%v is gated: %+v", m, v)
				}
			}
			if v := verdictFor(t, vs, numericMS); v.gated == (v.only != "") {
				t.Errorf("numeric_ms: %+v; want gated unless one-sided", v)
			}
		})
	}
}

// TestCompareShiftInsideParentSpread: a parent row whose runs spread wider
// than minBound (warm_ms 1.8–3.3 ms, as one-iteration runs of
// Table1WarmStore do) gets its own IQR/median as the bound, and a +40% head
// inside that spread passes; past it, the row fails.
func TestCompareShiftInsideParentSpread(t *testing.T) {
	wide := []float64{0.80, 1.30, 1.00, 1.65, 0.90, 1.10, 1.50, 0.85, 1.20, 1.70}
	parent := samples(map[metric]float64{warmMS: 2.0}, wide, nil)
	v := verdictFor(t, compare(parent, samples(map[metric]float64{warmMS: 2.8}, rotate(wide, 5), nil)), warmMS)
	if v.bound <= 0.4 || v.failed {
		t.Fatalf("+40%% inside a wide parent spread: %+v, want bound > 0.4 and a pass", v)
	}
	v = verdictFor(t, compare(parent, samples(map[metric]float64{warmMS: 2.0 * (1 + 2*v.bound)}, wide, nil)), warmMS)
	if !v.failed {
		t.Fatalf("shift of twice the parent's spread passed: %+v", v)
	}
}

// TestCompareOneSidedRows: a row only one side ran is reported with the
// median of that side and never gated.
func TestCompareOneSidedRows(t *testing.T) {
	gone := metric{"BenchmarkOld-2", "ns/op"}
	added := metric{"BenchmarkNew-2", "ns/op"}
	parent := samples(map[metric]float64{steadyNs: 1e5, gone: 1e6}, noise, nil)
	head := samples(map[metric]float64{steadyNs: 1e5, added: 9e9}, noise, nil)
	vs := compare(parent, head)
	if len(vs) != 3 || len(failures(vs)) != 0 {
		t.Fatalf("verdicts %+v", vs)
	}
	if v := verdictFor(t, vs, gone); v.only != "parent" || v.gated || v.parent != 1e6*median(noise) {
		t.Errorf("parent-only row: %+v", v)
	}
	if v := verdictFor(t, vs, added); v.only != "head" || v.gated || v.head != 9e9*median(noise) {
		t.Errorf("head-only row: %+v", v)
	}
	var out bytes.Buffer
	printVerdicts(&out, vs)
	for _, want := range []string{"parent only BenchmarkOld-2", "head only   BenchmarkNew-2", "ok          BenchmarkGridSteady/n1k-2"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
}

// TestGateEndToEnd drives the gate on two stand-in "test binaries" (shell
// scripts printing benchmark lines): equal outputs pass, a slower warm_ms
// fails naming its row, and a failing binary is an error carrying its
// output.
func TestGateEndToEnd(t *testing.T) {
	dir := t.TempDir()
	script := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("#!/bin/sh\n"+body+"\n"), 0o755); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const line = "BenchmarkTable1WarmStore-2 \t 1 \t 2000000 ns/op \t 150 cold_ms \t 75 speedup_x \t %s warm_ms \t 587760 B/op \t 5623 allocs/op"
	parent := script("parent.test", "echo goos: linux\necho '"+strings.Replace(line, "%s", "2.0", 1)+"'\necho PASS")
	same := script("same.test", "echo '"+strings.Replace(line, "%s", "2.0", 1)+"'")
	slow := script("slow.test", "echo '"+strings.Replace(line, "%s", "3.0", 1)+"'")
	broken := script("broken.test", "echo 'bench_test.go:200: store did not warm'\nexit 1")

	var out bytes.Buffer
	if err := gateBinaries(&out, parent, same, defaultBench); err != nil {
		t.Fatalf("equal binaries failed the gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "bench gate: 3 gated metrics within bound over 10 pairs") {
		t.Errorf("pass report:\n%s", out.String())
	}
	err := gateBinaries(&out, parent, slow, defaultBench)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkTable1WarmStore-2 warm_ms: 2 -> 3 (+50.0%") {
		t.Fatalf("slower warm_ms: err = %v", err)
	}
	err = gateBinaries(&out, parent, broken, defaultBench)
	if err == nil || !strings.Contains(err.Error(), "store did not warm") {
		t.Fatalf("failing binary: err = %v", err)
	}
}
