// Benchmarks regenerating every figure and table of the paper's evaluation,
// plus the ablations of internal/experiments/ablations.go and microbenches of
// the hot kernels.
//
//	go test -bench=. -benchmem
//
// Each experiment bench reports the reproduced headline numbers as custom
// metrics (schedule length, simulation effort, temperatures), so a bench run
// doubles as a results table. Shapes, not absolute values, are the
// comparison criterion against the paper — see the internal/experiments
// package documentation.
package thermalsched_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	thermalsched "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/oraclestore"
	"repro/internal/server"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

func mustEnv(b *testing.B) *experiments.Env {
	b.Helper()
	env, err := experiments.NewEnv(testspec.Alpha21364())
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkFigure1 regenerates the motivational example: two 45 W sessions
// with a ~55 K temperature gap (paper: 125.5 °C vs 67.5 °C).
func BenchmarkFigure1(b *testing.B) {
	var last *experiments.Figure1Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure1()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.TS1MaxT, "TS1_°C")
	b.ReportMetric(last.TS2MaxT, "TS2_°C")
	b.ReportMetric(last.Gap, "gap_K")
}

// BenchmarkFigure5 regenerates the length/effort-vs-STCL curves for
// TL ∈ {145, 155, 165}.
func BenchmarkFigure5(b *testing.B) {
	env := mustEnv(b)
	var last *experiments.Figure5Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure5(env)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	s145 := last.Series[0]
	b.ReportMetric(s145.Length[0], "len@TL145,STCL20_s")
	b.ReportMetric(s145.Length[len(s145.Length)-1], "len@TL145,STCL100_s")
	b.ReportMetric(s145.Effort[len(s145.Effort)-1], "effort@TL145,STCL100_s")
}

// BenchmarkTable1 regenerates the full 9×9 TL × STCL grid of Table 1.
func BenchmarkTable1(b *testing.B) {
	env := mustEnv(b)
	var last *experiments.Table1Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(env)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	lo := last.Row(145, 20)
	hi := last.Row(185, 100)
	b.ReportMetric(lo.Length, "len@TL145,STCL20_s")
	b.ReportMetric(hi.Length, "len@TL185,STCL100_s")
	b.ReportMetric(hi.MaxTemp, "maxT@TL185,STCL100_°C")
	claims := experiments.CheckClaims(last)
	pass := 1.0
	for _, c := range claims.Claims {
		if !c.Pass {
			pass = 0
		}
	}
	b.ReportMetric(pass, "claims_pass")
}

// BenchmarkTable1ColdCache regenerates the 9×9 grid with a fresh environment
// (and therefore an empty oracle memo table) every iteration — the honest
// apples-to-apples number against engines without memoization.
func BenchmarkTable1ColdCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := mustEnv(b)
		b.StartTimer()
		if _, err := experiments.RunTable1(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Parallel regenerates the grid with the worker-pool sweep
// from a cold cache each iteration, and reports the wall-clock speedup over
// one cold serial run measured in the same process. On a single-CPU host the
// pool degrades to the serial path and the speedup hovers around 1×.
func BenchmarkTable1Parallel(b *testing.B) {
	serialEnv := mustEnv(b)
	start := time.Now()
	if _, err := experiments.RunTable1(serialEnv); err != nil {
		b.Fatal(err)
	}
	serial := time.Since(start)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := mustEnv(b)
		env.Parallel = true
		b.StartTimer()
		if _, err := experiments.RunTable1(env); err != nil {
			b.Fatal(err)
		}
	}
	perOp := b.Elapsed() / time.Duration(b.N)
	if perOp > 0 {
		b.ReportMetric(float64(serial)/float64(perOp), "speedup_x")
	}
}

// BenchmarkFleetSweep drives the default 8-scenario fleet (two builtins plus
// six random SoCs) through the shared worker pool — one generator run per
// (scenario, TL, STCL) cell, 48 cells total, per-Env tier-1 caches.
func BenchmarkFleetSweep(b *testing.B) {
	scens, err := experiments.DefaultFleet(8, 11)
	if err != nil {
		b.Fatal(err)
	}
	fleet := &experiments.Fleet{Scenarios: scens, Parallel: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fleet.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1WarmStore measures the persistent store's acceptance
// criterion: the full Table 1 flow (fresh process state per iteration —
// fresh store handle, fresh Env, fresh tier-1 cache) against a warm
// content-addressed store, with the grid-resolution oracle whose lazy
// construction a fully warm run skips entirely. The cold flow is timed once
// in the same process and reported as speedup_x = cold / warm; the
// acceptance bar is ≥5×.
func BenchmarkTable1WarmStore(b *testing.B) {
	const gridRes = 48
	dir := b.TempDir()
	spec := thermalsched.AlphaWorkload()
	cfg := thermalsched.DefaultPackage()
	runOnce := func() time.Duration {
		start := time.Now()
		st, err := oraclestore.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		env, err := experiments.NewEnvWithOptions(spec, cfg, experiments.EnvOptions{Store: st, GridRes: gridRes})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.RunTable1(env); err != nil {
			b.Fatal(err)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	cold := runOnce() // empty store: simulates everything, populates the dir
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce()
	}
	perOp := b.Elapsed() / time.Duration(b.N)
	if perOp > 0 {
		b.ReportMetric(float64(cold)/float64(perOp), "speedup_x")
		b.ReportMetric(float64(cold.Microseconds())/1e3, "cold_ms")
		b.ReportMetric(float64(perOp.Microseconds())/1e3, "warm_ms")
	}
}

// BenchmarkJobSubmitWarm measures the durable async job path end to end
// against a warm store: POST /v1/jobs (journal append + admission), the
// queued generation answered from the cache tiers, and the SSE event stream
// followed to the terminal state. Each iteration makes jobTrips such round
// trips; warm_job_ms is their median — the latency a client sees for an
// already-cached problem through the asynchronous API — and ns/op is their
// mean, so both still describe one job while one slow trip of a
// -benchtime=1x run moves warm_job_ms little. B/op and allocs/op stay per
// iteration, covering all jobTrips round trips.
func BenchmarkJobSubmitWarm(b *testing.B) {
	srv, err := server.New(server.Config{CacheDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	body := []byte(`{"workload":"alpha21364","tl_celsius":165,"stcl":60}`)
	resp, err := http.Post(hs.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("warmup request status %d", resp.StatusCode)
	}

	const jobTrips = 15
	trips := make([]time.Duration, 0, jobTrips)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < jobTrips; j++ {
			start := time.Now()
			warmJobRoundTrip(b, hs.URL, body)
			trips = append(trips, time.Since(start))
		}
	}
	b.StopTimer()
	slices.Sort(trips)
	b.ReportMetric(float64(trips[len(trips)/2].Microseconds())/1e3, "warm_job_ms")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(len(trips)), "ns/op")
}

// warmJobRoundTrip submits one job and follows its event stream to the
// terminal state.
func warmJobRoundTrip(b *testing.B, url string, body []byte) {
	b.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var sub server.JobSubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		b.Fatalf("job submit: status %d (%v)", resp.StatusCode, err)
	}
	// The SSE stream closes after the terminal event — following it is the
	// cheapest completion wait and exercises the streaming path.
	resp, err = http.Get(url + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		b.Fatal(err)
	}
	events, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		b.Fatal(err)
	}
	if !bytes.Contains(events, []byte(`"state":"done"`)) {
		b.Fatalf("job %s did not reach done:\n%s", sub.ID, events)
	}
}

// BenchmarkAblationWeights sweeps the weight growth factor (A1).
func BenchmarkAblationWeights(b *testing.B) {
	env := mustEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunWeights(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOrdering sweeps the candidate scan order (A2).
func BenchmarkAblationOrdering(b *testing.B) {
	env := mustEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunOrdering(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFidelity measures the session-model-vs-oracle comparison (A3).
func BenchmarkFidelity(b *testing.B) {
	env := mustEnv(b)
	var tau float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFidelity(env, 60, 7)
		if err != nil {
			b.Fatal(err)
		}
		tau = res.KendallTau
	}
	b.ReportMetric(tau, "kendall_tau")
}

// BenchmarkBaselineComparison runs the thermal-aware vs power-constrained
// comparison (A4).
func BenchmarkBaselineComparison(b *testing.B) {
	env := mustEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunBaseline(env, 165); err != nil {
			b.Fatal(err)
		}
	}
}

// Scaling benches (A5): full generator runs on random SoCs of growing size.
// One untimed run warms the environment's memo, so every timed run answers
// each oracle query from it and times the generator itself. Each iteration
// makes genRuns runs; warm_gen_ms is their median and ns/op their mean, like
// BenchmarkJobSubmitWarm's trips.
func benchScaling(b *testing.B, cores int) {
	spec, err := experiments.ScalingSpec(cores, 11)
	if err != nil {
		b.Fatal(err)
	}
	env, err := experiments.NewEnv(spec)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{TL: 140, STCL: 60, AutoRaiseTL: true}
	if _, err := env.Generate(cfg); err != nil {
		b.Fatal(err)
	}
	const genRuns = 15
	runs := make([]time.Duration, 0, genRuns)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < genRuns; j++ {
			start := time.Now()
			if _, err := env.Generate(cfg); err != nil {
				b.Fatal(err)
			}
			runs = append(runs, time.Since(start))
		}
	}
	b.StopTimer()
	slices.Sort(runs)
	b.ReportMetric(float64(runs[len(runs)/2].Nanoseconds())/1e6, "warm_gen_ms")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(len(runs)), "ns/op")
}

func BenchmarkScaling15(b *testing.B)  { benchScaling(b, 15) }
func BenchmarkScaling40(b *testing.B)  { benchScaling(b, 40) }
func BenchmarkScaling80(b *testing.B)  { benchScaling(b, 80) }
func BenchmarkScaling160(b *testing.B) { benchScaling(b, 160) }

// --- microbenches of the hot kernels ----------------------------------------

// BenchmarkSteadyState measures one full-model steady-state solve (the
// oracle call Algorithm 1 tries to minimise).
func BenchmarkSteadyState(b *testing.B) {
	sys, err := thermalsched.NewSystem(thermalsched.AlphaWorkload(), thermalsched.DefaultPackage())
	if err != nil {
		b.Fatal(err)
	}
	active := []int{0, 3, 5, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.SimulateSession(active); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelBuild measures RC-network assembly plus factorization.
func BenchmarkModelBuild(b *testing.B) {
	fp := thermalsched.Alpha21364Floorplan()
	cfg := thermalsched.DefaultPackage()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := thermalsched.NewThermalModel(fp, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSTC measures one session-thermal-characteristic evaluation — the
// cheap model query that replaces simulations during packing.
func BenchmarkSTC(b *testing.B) {
	sys, err := thermalsched.NewSystem(thermalsched.AlphaWorkload(), thermalsched.DefaultPackage())
	if err != nil {
		b.Fatal(err)
	}
	session := []int{0, 3, 5, 8, 11}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.STC(session); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerator measures one end-to-end Algorithm 1 run at a mid
// operating point.
func BenchmarkGenerator(b *testing.B) {
	sys, err := thermalsched.NewSystem(thermalsched.AlphaWorkload(), thermalsched.DefaultPackage())
	if err != nil {
		b.Fatal(err)
	}
	cfg := thermalsched.ScheduleConfig{TL: 165, STCL: 60}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.GenerateSchedule(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransientCN measures a 1 s Crank–Nicolson transient of one
// session (200 steps). Run with -benchmem: the hot loop reuses the cached
// (A-factorization, sparse B) pair and a single RHS buffer, so allocs/op is
// dominated by the trace and result bookkeeping, not the integrator.
func BenchmarkTransientCN(b *testing.B) {
	sys, err := thermalsched.NewSystem(thermalsched.AlphaWorkload(), thermalsched.DefaultPackage())
	if err != nil {
		b.Fatal(err)
	}
	opts := thermalsched.TransientOptions{Duration: 1, Step: 0.005}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.SimulateSessionTransient([]int{0, 3}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransientRK4 measures the explicit cross-check integrator over a
// short horizon (its stability-limited step makes long horizons impractical).
func BenchmarkTransientRK4(b *testing.B) {
	sys, err := thermalsched.NewSystem(thermalsched.AlphaWorkload(), thermalsched.DefaultPackage())
	if err != nil {
		b.Fatal(err)
	}
	opts := thermalsched.TransientOptions{Duration: 0.02, Integrator: thermalsched.RK4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.SimulateSessionTransient([]int{0, 3}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCachedOracle measures a memoized oracle hit — the cost every
// repeated session query pays after its first simulation.
func BenchmarkCachedOracle(b *testing.B) {
	env, err := experiments.NewEnv(testspec.Alpha21364())
	if err != nil {
		b.Fatal(err)
	}
	active := []int{0, 3, 5, 8}
	if _, err := env.Oracle.BlockTemps(active); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Oracle.BlockTemps(active); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridCheck runs the block-vs-grid validation sweep (A8).
func BenchmarkGridCheck(b *testing.B) {
	env := mustEnv(b)
	var mean float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunGridCheck(env, 32)
		if err != nil {
			b.Fatal(err)
		}
		mean = res.MeanAbsRatioErr
	}
	b.ReportMetric(mean, "mean_ratio_err")
}

// BenchmarkOracleComparison runs the steady vs transient oracle study (A6).
func BenchmarkOracleComparison(b *testing.B) {
	env := mustEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunOracleComparison(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimalityGap runs the exact-DP optimality-gap study (A7).
func BenchmarkOptimalityGap(b *testing.B) {
	env := mustEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunOptimalityGap(env, []float64{165}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridSteadyState measures one 32×32 grid steady-state query
// against the factored sparse backend.
func BenchmarkGridSteadyState(b *testing.B) {
	fp := thermalsched.Alpha21364Floorplan()
	gm, err := thermalsched.NewGridThermalModel(fp, thermalsched.DefaultPackage(), 32, 32)
	if err != nil {
		b.Fatal(err)
	}
	spec := thermalsched.AlphaWorkload()
	pm := make([]float64, fp.NumBlocks())
	for i := range pm {
		pm[i] = spec.Test(i).Power / 3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gm.SteadyState(pm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridFactor is the numeric-kernel ladder: full grid-model
// construction (assembly + symbolic + numeric) per resolution, with the
// supernodal numeric factorization alone reported as numeric_ms; n131k is
// the 256×256 tentpole rung. Each iteration factors a rung runs times;
// numeric_ms is the median of those factorizations and ns/op their mean, so
// a -benchtime=1x run still reports a median, not one sample. The 1024×1024
// rung (n2097k, ~2.1M nodes) factors out of core under a 3 GiB peak-bytes
// budget and takes minutes — it only runs with THERM_BENCH_1024=1, once per
// iteration. Sub-benchmarks keep their historical "/supernodal" suffix: the
// CI bench gate pairs rows by name with the parent commit's, and a renamed
// row is reported, not gated.
func BenchmarkGridFactor(b *testing.B) {
	for _, c := range []struct {
		name string
		res  int
		runs int
		opts thermal.GridOptions
	}{
		{"n33k", 128, 5, thermal.GridOptions{}},
		{"n131k", 256, 3, thermal.GridOptions{}},
		{"n2097k", 1024, 1, thermal.GridOptions{PeakBytesBudget: 3 << 30}},
	} {
		gated := c.res >= 1024
		b.Run(c.name+"/supernodal", func(b *testing.B) {
			if gated && os.Getenv("THERM_BENCH_1024") == "" {
				b.Skip("set THERM_BENCH_1024=1 to run the 1024×1024 rung (minutes)")
			}
			fp := thermalsched.Alpha21364Floorplan()
			opts := c.opts
			if opts.PeakBytesBudget > 0 {
				opts.SpillDir = b.TempDir()
			}
			// Let models dropped by earlier benchmarks release their shared
			// factors, so every factorization below is a fresh one.
			for i := 0; i < 1000 && thermal.LiveGridFactors() > 0; i++ {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			b.ResetTimer()
			numeric := make([]time.Duration, 0, c.runs)
			var fs thermal.GridFactorStats
			for i := 0; i < b.N; i++ {
				for j := 0; j < c.runs; j++ {
					gm, err := thermal.NewGridModelWithOptions(fp, thermalsched.DefaultPackage(),
						c.res, c.res, opts)
					if err != nil {
						b.Fatal(err)
					}
					if got := gm.SolverBackend(); got != "sparse-cholesky" {
						b.Fatalf("backend = %q, want sparse-cholesky", got)
					}
					fs = gm.FactorStats()
					if fs.Shared {
						b.Fatal("model reused a shared factor; this benchmark times real factorizations")
					}
					numeric = append(numeric, fs.FactorTime)
					if err := gm.Close(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			slices.Sort(numeric)
			b.ReportMetric(float64(numeric[len(numeric)/2].Microseconds())/1e3, "numeric_ms")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(len(numeric)), "ns/op")
			if opts.PeakBytesBudget > 0 {
				if fs.SpillDegraded {
					b.Fatalf("spill degraded: %+v", fs)
				}
				if fs.PeakResidentBytes > opts.PeakBytesBudget {
					b.Fatalf("peak resident %d exceeds budget %d", fs.PeakResidentBytes, opts.PeakBytesBudget)
				}
				b.ReportMetric(float64(fs.SpilledPanels), "spilled_panels")
				b.ReportMetric(float64(fs.PeakResidentBytes)/(1<<20), "peak_resident_mb")
			}
		})
	}
}

// BenchmarkGridSteady is the sparse-backend scaling ladder: amortized
// per-query steady-state solves on ~1k/4k/16k-node grid models with the
// factorization built once outside the timed loop (the oracle usage
// pattern). CI smokes the smallest rung; PERF.md records the full ladder.
func BenchmarkGridSteady(b *testing.B) {
	for _, c := range []struct {
		name string
		res  int // grid is res×res cells → 2·res²+2 nodes
	}{
		{"n1k", 22},
		{"n4k", 45},
		{"n16k", 90},
		// 181×181 → 65 524 nodes: ND fill is 4.2M entries where RCM's 16.0M
		// sits a whisker under the budget — this rung (and everything past
		// it) is only comfortable because of the nested-dissection ordering.
		{"n65k", 181},
	} {
		b.Run(c.name, func(b *testing.B) {
			fp := thermalsched.Alpha21364Floorplan()
			gm, err := thermalsched.NewGridThermalModel(fp, thermalsched.DefaultPackage(), c.res, c.res)
			if err != nil {
				b.Fatal(err)
			}
			if got := gm.SolverBackend(); got != "sparse-cholesky" {
				b.Fatalf("backend = %q, want sparse-cholesky", got)
			}
			spec := thermalsched.AlphaWorkload()
			pm := make([]float64, fp.NumBlocks())
			for i := range pm {
				pm[i] = spec.Test(i).Power / 3
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := gm.SteadyState(pm); err != nil {
					b.Fatal(err)
				}
			}
			// After the loop: ResetTimer drops metrics reported before it.
			b.ReportMetric(float64(gm.NumNodes()), "nodes")
			b.ReportMetric(float64(gm.FactorNNZ()), "factor_nnz")
		})
	}
}

// BenchmarkTable1CellGridCold is the acceptance benchmark of the grid-scale
// candidate evaluation: one cold Table 1 cell (TL=165, STCL=60) validated on
// a 96×96 grid-resolution oracle (18 434 nodes) with an empty memo cache per
// iteration; the factorization happens outside the timer, so the
// candidate-scan cost is what moves. Phase 1's solos go to the grid oracle's
// batch path in one call and fan out across GOMAXPROCS; each phase-2
// candidate is one sparse-RHS solve on the generator's goroutine. The
// sub-benchmark keeps its per-candidate name so rows compare across commits.
func BenchmarkTable1CellGridCold(b *testing.B) {
	const gridRes = 96
	spec := thermalsched.AlphaWorkload()
	cfg := thermalsched.DefaultPackage()
	env, err := experiments.NewEnvWithOptions(spec, cfg, experiments.EnvOptions{})
	if err != nil {
		b.Fatal(err)
	}
	gm, err := thermal.NewGridModel(spec.Floorplan(), cfg, gridRes, gridRes)
	if err != nil {
		b.Fatal(err)
	}
	oracle := core.NewGridOracle(gm, spec.Profile())
	b.Run("per-candidate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := core.Generate(env.Spec, env.SM, core.NewCachedOracle(oracle),
				core.Config{TL: 165, STCL: 60})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable1GridOracle sweeps the full 81-cell Table 1 grid on the same
// 96×96 oracle with one shared memo cache per iteration. The cache collapses
// ~1100 generator attempts to ~120 distinct simulations, so the sparse-RHS
// solves of the fresh sessions carry the cost.
func BenchmarkTable1GridOracle(b *testing.B) {
	const gridRes = 96
	spec := thermalsched.AlphaWorkload()
	cfg := thermalsched.DefaultPackage()
	env, err := experiments.NewEnvWithOptions(spec, cfg, experiments.EnvOptions{})
	if err != nil {
		b.Fatal(err)
	}
	gm, err := thermal.NewGridModel(spec.Floorplan(), cfg, gridRes, gridRes)
	if err != nil {
		b.Fatal(err)
	}
	oracle := core.NewGridOracle(gm, spec.Profile())
	b.Run("per-candidate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cache := core.NewCachedOracle(oracle)
			for _, tl := range experiments.Table1TLs {
				for _, stcl := range experiments.STCLs {
					_, err := core.Generate(env.Spec, env.SM, cache, core.Config{TL: tl, STCL: stcl})
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}
