// Command schedbench is the schedule service's benchmark. It drives the real
// server.Handler in process (ServeHTTP on a recorder, so the numbers measure
// the program rather than loopback TCP), runs one of three seeded
// closed-loop workloads, checks every answer, and prints the end-to-end
// metrics — or, with --trace 1, the per-layer split measured on a replica of
// the service's oracle stack. See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	// ops overrides the op count derived from seconds (tests use tiny runs).
	ops int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
}

// setups is how many times a run sets up; a single sub-second set-up is
// too noisy to compare across runs.
const setups = 5

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 30, "nominal measured seconds; fixes the op count")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.root, "root", ".", "checkout root; scratch files go under <root>/.bench_build")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace, o.setups = trace != 0, setups
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 {
		fmt.Fprintf(stderr, "schedbench: need --workload %v and --seconds >= 1\n", workloadNames())
		return 2
	}
	rep, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(stderr, "schedbench: %v\n", err)
		return 1
	}
	rep.print(stderr, o)
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.endToEnd,
	}
	if o.trace {
		res.Metrics = rep.perLayer
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "schedbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// report is a finished run.
type report struct {
	attempted, failed int
	firstErrors       []string
	endToEnd          map[string]metric
	perLayer          map[string]metric
	// extra are end-to-end figures that are not in the result line because
	// they are zero or undefined on some workloads (see README.md).
	extra        map[string]metric
	peakRSSReset bool
	recs         []opRecord
}

func (r *report) print(w io.Writer, o options) {
	fmt.Fprintf(w, "schedbench %s seed=%d seconds=%d trace=%v: %d ops, %d failed\n",
		o.workload, o.seed, o.seconds, o.trace, r.attempted, r.failed)
	for _, e := range r.firstErrors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	if !r.peakRSSReset {
		fmt.Fprintln(w, "  note: /proc/self/clear_refs not writable; peak_rss_mb includes set-up")
	}
	for _, group := range []map[string]metric{r.endToEnd, r.extra, r.perLayer} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, group[n].Value, group[n].Unit)
		}
	}
}

// runWorkload sets up (several times), measures, checks the retained state
// and computes the metrics of one run.
func runWorkload(o options) (*report, error) {
	wl := workloads[o.workload]
	nops := o.ops
	if nops <= 0 {
		nops = int(math.Ceil(wl.opsPerSecond * float64(o.seconds)))
	}
	b, err := newBench(wl.kind, o.seed, nops)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	dir, err := filepath.Abs(filepath.Join(o.root, ".bench_build", fmt.Sprintf("run-%s-%d", o.workload, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer b.close()

	var setups []float64
	for k := 0; k < o.setups; k++ {
		sdir := filepath.Join(dir, fmt.Sprintf("setup-%d", k))
		start := time.Now()
		if err := b.setup(sdir); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if k < o.setups-1 {
			b.close()
			if err := os.RemoveAll(sdir); err != nil {
				return nil, err
			}
		}
	}
	if o.trace {
		if b.tr, err = newTracer(filepath.Join(dir, "trace-store"), b); err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		defer b.tr.close()
	}
	runtime.GC()
	debug.FreeOSMemory()
	rssReset := resetPeakRSS()

	samples := b.runOps()
	peak := peakRSSBytes()

	rep := &report{peakRSSReset: rssReset, attempted: len(b.recs), recs: b.recs}
	for _, rec := range b.recs {
		if rec.err != nil {
			rep.failed++
			if len(rep.firstErrors) < 5 {
				rep.firstErrors = append(rep.firstErrors, rec.err.Error())
			}
		}
	}
	if err := b.checkRetained(); err != nil {
		return nil, fmt.Errorf("retained state: %w", err)
	}
	rep.endToEnd, rep.extra = b.endToEnd(samples, peak, median(setups))
	if o.trace {
		rep.perLayer = b.perLayer()
		if err := writeSamples(filepath.Join(o.root, ".bench_build",
			fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed)), b.recs); err != nil {
			return nil, err
		}
	}
	if rep.attempted == 0 {
		return nil, errors.New("no ops attempted")
	}
	return rep, nil
}
