// Command benchreport runs the repository's key benchmarks and persists the
// results as a machine-readable JSON report (BENCH_<n>.json), or compares a
// fresh run against a committed report and fails on regressions — the CI
// bench gate.
//
// Usage:
//
//	benchreport -out BENCH_6.json                 # run + write a report
//	benchreport -against BENCH_6.json             # run + gate against it
//	benchreport -compare BENCH_5.json BENCH_6.json # gate file vs file, no run
//	benchreport -history                          # markdown trend table over BENCH_*.json
//
// The gate only inspects tier-1 benchmarks (see tier1Prefixes): a fresh
// ns/op more than -maxregress above the committed one fails the gate. Key
// custom metrics (numeric_ms, warm_ms, cold_ms, warm_job_ms, ns/query) are
// gated too, each with its own noise floor and tolerance (see
// metricGates) — service-path latencies swing far more between runs than
// factorization times, so one global threshold fits none of them. Metrics
// outside that list (temperatures, claim flags, spill gauges, ...) ride
// along in the report for human inspection only.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// tier1Prefixes are the benchmark families the regression gate enforces —
// the scheduling-service hot paths named in ROADMAP.md. Everything else in a
// report is informational.
var tier1Prefixes = []string{
	"BenchmarkGridFactor/",
	"BenchmarkGridSteady/",
	"BenchmarkGridSteadyBatch",
	"BenchmarkTable1CellGridCold",
	"BenchmarkFleetSweep",
	"BenchmarkTable1WarmStore",
	"BenchmarkJobSubmitWarm",
}

// defaultBench selects exactly the tier-1 families.
const defaultBench = "^(BenchmarkGridFactor|BenchmarkGridSteady|BenchmarkGridSteadyBatch|BenchmarkTable1CellGridCold|BenchmarkFleetSweep|BenchmarkTable1WarmStore|BenchmarkJobSubmitWarm)$"

// Report is the persisted file format.
type Report struct {
	GoVersion string      `json:"go_version"`
	GOOS      string      `json:"goos"`
	GOARCH    string      `json:"goarch"`
	NumCPU    int         `json:"num_cpu"`
	Benchtime string      `json:"benchtime"`
	Benches   []BenchLine `json:"benchmarks"`
}

// BenchLine is one benchmark result. Metrics carries the custom
// b.ReportMetric values (speedup_x, cold_ms, warm_ms, numeric_ms, ...).
type BenchLine struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	var (
		bench = flag.String("bench", defaultBench,
			"benchmark selection regex passed to go test -bench")
		benchtime = flag.String("benchtime", "1x",
			"go test -benchtime; the tier-1 families are macro-benchmarks (seconds per op), so counted runs beat duration targets")
		out        = flag.String("out", "", "write the fresh run's JSON report here")
		against    = flag.String("against", "", "gate the fresh run against this committed report")
		compare    = flag.Bool("compare", false, "positional args are <old.json> <new.json>; gate file against file without running anything")
		history    = flag.Bool("history", false, "print a markdown trend table over the positional report files (default: BENCH_*.json in order) without running anything")
		maxRegress = flag.Float64("maxregress", 0.25,
			"maximum tolerated tier-1 ns/op regression as a fraction (0.25 = +25%)")
		verbose = flag.Bool("v", false, "stream go test output while running")
	)
	flag.Parse()

	if *history {
		if err := runHistory(flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*bench, *benchtime, *out, *against, *compare, *maxRegress, *verbose, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run(bench, benchtime, out, against string, compare bool, maxRegress float64, verbose bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs exactly two file arguments, got %d", len(args))
		}
		oldRep, err := readReport(args[0])
		if err != nil {
			return err
		}
		newRep, err := readReport(args[1])
		if err != nil {
			return err
		}
		return gate(oldRep, newRep, maxRegress, args[0], args[1])
	}

	rep, err := runBenches(bench, benchtime, verbose)
	if err != nil {
		return err
	}
	if len(rep.Benches) == 0 {
		return fmt.Errorf("no benchmarks matched %q", bench)
	}
	for _, b := range rep.Benches {
		fmt.Printf("%-55s %14.0f ns/op\n", b.Name, b.NsPerOp)
	}
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", out, len(rep.Benches))
	}
	if against != "" {
		oldRep, err := readReport(against)
		if err != nil {
			return err
		}
		return gate(oldRep, rep, maxRegress, against, "fresh run")
	}
	return nil
}

// runBenches shells out to go test and parses the benchmark lines.
func runBenches(bench, benchtime string, verbose bool) (*Report, error) {
	cmd := exec.Command("go", "test", "-run=^$", "-bench", bench,
		"-benchtime", benchtime, "-benchmem", ".")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	rep := &Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Benchtime: benchtime,
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if verbose {
			fmt.Println(line)
		}
		if b, ok := parseBenchLine(line); ok {
			rep.Benches = append(rep.Benches, b)
		}
	}
	if err := sc.Err(); err != nil {
		cmd.Wait()
		return nil, err
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	sort.Slice(rep.Benches, func(i, j int) bool { return rep.Benches[i].Name < rep.Benches[j].Name })
	return rep, nil
}

// parseBenchLine decodes one testing-package benchmark output line:
//
//	BenchmarkX/sub-8  100  12345 ns/op  64 B/op  2 allocs/op  3.5 speedup_x
//
// The GOMAXPROCS suffix is stripped from the name so reports from hosts with
// different core counts stay comparable by name.
func parseBenchLine(line string) (BenchLine, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return BenchLine{}, false
	}
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return BenchLine{}, false
	}
	b := BenchLine{Name: name, Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return BenchLine{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = v
		}
	}
	return b, b.NsPerOp > 0
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// metricGate is the regression policy for one gated custom metric.
type metricGate struct {
	// floor is the noise cutoff: when old and new are both below it, the
	// metric is too small to compare meaningfully and is skipped.
	floor float64
	// maxRegress is the tolerated fractional change in the losing direction.
	maxRegress float64
}

// metricGates lists the custom metrics the gate enforces on tier-1
// benchmarks, with per-metric noise floors and tolerances calibrated from
// the committed BENCH_* history: numeric factorization times repeat within a
// few percent, while the warm service paths (store + HTTP + scheduler) have
// swung ±70% between otherwise-identical runs. Ratios such as speedup_x
// (cold / warm) are not gated: a faster cold path would read as a warm
// regression, and cold_ms and warm_ms are each gated on their own.
var metricGates = map[string]metricGate{
	"numeric_ms":  {floor: 1, maxRegress: 0.30},
	"cold_ms":     {floor: 20, maxRegress: 0.75},
	"warm_ms":     {floor: 1, maxRegress: 1.0},
	"warm_job_ms": {floor: 1, maxRegress: 1.0},
	"ns/query":    {floor: 1e5, maxRegress: 0.35},
}

// gateMetrics compares the gated custom metrics of one tier-1 benchmark and
// returns failure descriptions. A metric missing from either side is skipped
// (metrics come and go across PRs, like benchmarks do).
func gateMetrics(name string, oldM, newM map[string]float64) []string {
	keys := make([]string, 0, len(newM))
	for k := range newM {
		if _, gated := metricGates[k]; gated {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var failures []string
	for _, k := range keys {
		g := metricGates[k]
		ov, ok := oldM[k]
		if !ok {
			continue
		}
		nv := newM[k]
		if ov < g.floor && nv < g.floor {
			continue // both in the noise
		}
		if ov <= 0 {
			continue
		}
		if ratio := nv / ov; ratio > 1+g.maxRegress {
			failures = append(failures, fmt.Sprintf("%s %s: %.3g -> %.3g (%+.1f%%)",
				name, k, ov, nv, 100*(ratio-1)))
		}
	}
	return failures
}

// tier1 reports whether a benchmark is under the regression gate.
func tier1(name string) bool {
	for _, p := range tier1Prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// gate compares tier-1 ns/op between two reports. Benchmarks present in only
// one report are reported but never fail the gate (families come and go
// across PRs); a tier-1 benchmark in both whose fresh ns/op exceeds the old
// by more than maxRegress fails it.
func gate(oldRep, newRep *Report, maxRegress float64, oldName, newName string) error {
	oldBy := make(map[string]BenchLine, len(oldRep.Benches))
	for _, b := range oldRep.Benches {
		oldBy[b.Name] = b
	}
	var regressed []string
	checked := 0
	for _, nb := range newRep.Benches {
		if !tier1(nb.Name) {
			continue
		}
		ob, ok := oldBy[nb.Name]
		if !ok {
			fmt.Printf("NEW      %-55s %14.0f ns/op (not in %s)\n", nb.Name, nb.NsPerOp, oldName)
			continue
		}
		checked++
		ratio := nb.NsPerOp / ob.NsPerOp
		status := "ok"
		if ratio > 1+maxRegress {
			status = "REGRESSED"
			regressed = append(regressed, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%)",
				nb.Name, ob.NsPerOp, nb.NsPerOp, 100*(ratio-1)))
		}
		if mf := gateMetrics(nb.Name, ob.Metrics, nb.Metrics); len(mf) > 0 {
			status = "REGRESSED"
			regressed = append(regressed, mf...)
		}
		fmt.Printf("%-9s %-55s %14.0f -> %14.0f ns/op (%+.1f%%)\n",
			status, nb.Name, ob.NsPerOp, nb.NsPerOp, 100*(ratio-1))
	}
	if checked == 0 {
		return fmt.Errorf("no tier-1 benchmarks shared between %s and %s", oldName, newName)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d tier-1 regression(s) past the gate thresholds (ns/op +%.0f%%, metrics per metricGates):\n  %s",
			len(regressed), 100*maxRegress, strings.Join(regressed, "\n  "))
	}
	fmt.Printf("bench gate: %d tier-1 benchmarks within +%.0f%% (and metric gates) of %s\n", checked, 100*maxRegress, oldName)
	return nil
}
