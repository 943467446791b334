// Command benchreport is the CI bench gate. It runs the tier-1 benchmark
// families on two compiled test binaries of the root package, the parent
// commit's and the change's, in alternating pairs on one host, and fails
// when the change is slower than the parent by more than the parent's own
// run-to-run spread.
//
// Usage:
//
//	git worktree add ../parent HEAD^1
//	(cd ../parent && go test -c -o /tmp/parent.test .)
//	go test -c -o /tmp/head.test .
//	go run ./cmd/benchreport /tmp/parent.test /tmp/head.test
//
// Each binary runs the selected benchmarks at -test.benchtime=1x from the
// current directory, pairs times, and the order within a pair alternates
// (parent first, then head first, ...) so that host drift falls on both
// sides alike. For every benchmark row and
// time unit (ns/op, ns/query, *_ms) the gate compares medians: the row
// fails when the head's median is worse than the parent's by more than
// max(minBound, the parent's IQR/median) and the head is worse by more
// than that same bound in most pairs. Other units (speedup_x, B/op, ...)
// are printed, not gated, and so is a row that ran on one side only.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// defaultBench selects the tier-1 families: the scheduling-service hot paths
// named in ROADMAP.md.
const defaultBench = "^(BenchmarkGridFactor|BenchmarkGridSteady|BenchmarkGridSteadyBatch|BenchmarkTable1CellGridCold|BenchmarkFleetSweep|BenchmarkTable1WarmStore|BenchmarkJobSubmitWarm)$"

const (
	// pairs is how many parent/head runs the gate makes of each binary.
	pairs = 10
	// minBound is the smallest tolerated slowdown of a median, as a
	// fraction; a noisier parent row widens it to its own IQR/median.
	minBound = 0.25
)

// metric names one value a benchmark run reports.
type metric struct{ row, unit string }

// run is one binary's output: every (row, unit) value it printed.
type run map[metric]float64

// verdict is the gate's finding on one (row, unit).
type verdict struct {
	metric
	parent, head float64 // medians; 0 on the side the row did not run on
	only         string  // "parent" or "head" for a row that ran on one side
	bound        float64 // tolerated fractional slowdown
	losses, n    int     // pairs the head lost by more than bound, of n
	gated        bool
	failed       bool
}

func main() {
	bench := flag.String("bench", defaultBench, "benchmark selection regex passed to -test.bench")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchreport [-bench regex] <parent.test> <head.test>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	if err := gateBinaries(os.Stdout, flag.Arg(0), flag.Arg(1), *bench); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

// gateBinaries runs both binaries in alternating pairs and gates the head
// against the parent.
func gateBinaries(w io.Writer, parentBin, headBin, bench string) error {
	bins := [2]string{parentBin, headBin}
	var runs [2][]run // parent's, head's
	for i := 0; i < pairs; i++ {
		for k := 0; k < 2; k++ {
			side := k ^ i%2 // parent first in even pairs, head first in odd
			r, err := runBinary(bins[side], bench)
			if err != nil {
				return err
			}
			runs[side] = append(runs[side], r)
		}
		fmt.Fprintf(os.Stderr, "benchreport: pair %d/%d done\n", i+1, pairs)
	}
	verdicts := compare(runs[0], runs[1])
	if len(verdicts) == 0 {
		return fmt.Errorf("no benchmarks matched %q", bench)
	}
	printVerdicts(w, verdicts)
	var failed []string
	gated := 0
	for _, v := range verdicts {
		if v.gated {
			gated++
		}
		if v.failed {
			failed = append(failed, fmt.Sprintf("%s %s: %.4g -> %.4g (%+.1f%%, bound %.0f%%, worse in %d/%d pairs)",
				v.row, v.unit, v.parent, v.head, 100*(v.head/v.parent-1), 100*v.bound, v.losses, v.n))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d gated metrics regressed:\n  %s", len(failed), gated, strings.Join(failed, "\n  "))
	}
	fmt.Fprintf(w, "bench gate: %d gated metrics within bound over %d pairs\n", gated, pairs)
	return nil
}

// runBinary runs one compiled test binary's benchmarks once and parses its
// output.
func runBinary(bin, bench string) (run, error) {
	cmd := exec.Command(bin, "-test.run=^$", "-test.bench="+bench,
		"-test.benchtime=1x", "-test.benchmem", "-test.timeout=30m")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %v\n%s", bin, err, out.Bytes())
	}
	r := run{}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		parseBenchLine(sc.Text(), r)
	}
	return r, nil
}

// parseBenchLine adds the values of one testing-package benchmark line to r:
//
//	BenchmarkX/sub-8  1  12345 ns/op  3.5 speedup_x  64 B/op  2 allocs/op
//
// Other lines are ignored.
func parseBenchLine(line string, r run) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
		return
	}
	if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
		return
	}
	vals := run{}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return
		}
		vals[metric{f[0], f[i+1]}] = v
	}
	for m, v := range vals {
		r[m] = v
	}
}

// timeUnit reports whether a unit is a duration, the only kind the gate
// enforces: ns/op, ns/query and custom *_ms metrics.
func timeUnit(unit string) bool {
	return strings.HasPrefix(unit, "ns/") || strings.HasSuffix(unit, "_ms")
}

// compare gates head against parent, pair by pair: parent[i] and head[i]
// ran back to back. It returns one verdict per (row, unit) seen on either
// side, sorted by row and unit.
func compare(parent, head []run) []verdict {
	seen := map[metric]bool{}
	for _, rs := range [][]run{parent, head} {
		for _, r := range rs {
			for m := range r {
				seen[m] = true
			}
		}
	}
	var out []verdict
	for m := range seen {
		var p, h []float64
		for i := 0; i < len(parent) && i < len(head); i++ {
			pv, pok := parent[i][m]
			hv, hok := head[i][m]
			if pok && hok {
				p, h = append(p, pv), append(h, hv)
			}
		}
		v := verdict{metric: m, n: len(p)}
		if len(p) == 0 {
			var inParent bool
			v.parent, inParent = medianOf(parent, m)
			v.head, _ = medianOf(head, m)
			v.only = "head"
			if inParent {
				v.only = "parent"
			}
			out = append(out, v)
			continue
		}
		v.parent, v.head = median(p), median(h)
		v.gated = timeUnit(m.unit) && v.parent > 0
		if v.gated {
			v.bound = math.Max(minBound, (quantile(p, 0.75)-quantile(p, 0.25))/v.parent)
			for i := range p {
				if h[i] > p[i]*(1+v.bound) {
					v.losses++
				}
			}
			v.failed = v.head > v.parent*(1+v.bound) && 2*v.losses > v.n
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].row != out[j].row {
			return out[i].row < out[j].row
		}
		return out[i].unit < out[j].unit
	})
	return out
}

// medianOf is the median of m over the runs that reported it, and whether
// any did.
func medianOf(runs []run, m metric) (float64, bool) {
	var xs []float64
	for _, r := range runs {
		if v, ok := r[m]; ok {
			xs = append(xs, v)
		}
	}
	if len(xs) == 0 {
		return 0, false
	}
	return median(xs), true
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func printVerdicts(w io.Writer, vs []verdict) {
	for _, v := range vs {
		status := "info"
		switch {
		case v.only != "":
			status = v.only + " only"
		case v.failed:
			status = "REGRESSED"
		case v.gated:
			status = "ok"
		}
		line := fmt.Sprintf("%-11s %-45s %-10s %12.4g -> %12.4g", status, v.row, v.unit, v.parent, v.head)
		if v.gated {
			line += fmt.Sprintf(" (%+.1f%%, bound %.0f%%, worse in %d/%d)",
				100*(v.head/v.parent-1), 100*v.bound, v.losses, v.n)
		}
		fmt.Fprintln(w, line)
	}
}
