package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/oraclestore"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

// FleetScenario is one workload of a fleet sweep: a named test-scheduling
// problem instance. Scenarios in one fleet should be distinct systems; two
// scenarios sharing a floorplan+package+profile would share a persistent
// store file, which is correct but makes the per-scenario store counters
// scheduling-dependent.
type FleetScenario struct {
	Name string
	Spec *testspec.Spec
}

// FleetSizes is the core-count ladder DefaultFleet cycles through for its
// random scenarios.
var FleetSizes = []int{8, 12, 16, 24, 32, 48}

// DefaultFleet assembles n scenarios: the two built-in workloads (the
// 15-core Alpha 21364 and the 7-core Figure 1 SoC) followed by seeded random
// SoCs walking the FleetSizes ladder — the scenario exploration workload the
// fleet engine exists for. The same (n, seed) always yields the same fleet.
func DefaultFleet(n int, seed int64) ([]FleetScenario, error) {
	if n < 1 {
		return nil, fmt.Errorf("experiments: fleet needs >= 1 scenarios, got %d", n)
	}
	out := []FleetScenario{
		{Name: "alpha21364", Spec: testspec.Alpha21364()},
		{Name: "figure1-soc", Spec: testspec.Figure1()},
	}
	if n < len(out) {
		return out[:n], nil
	}
	for i := len(out); i < n; i++ {
		size := FleetSizes[(i-2)%len(FleetSizes)]
		s := seed + int64(i)
		spec, err := ScalingSpec(size, s)
		if err != nil {
			return nil, fmt.Errorf("experiments: fleet scenario %d: %w", i, err)
		}
		out = append(out, FleetScenario{Name: fmt.Sprintf("random-%02dc-seed%d", size, s), Spec: spec})
	}
	return out, nil
}

// Fleet drives many scheduling environments through one shared bounded
// worker pool: every (scenario, TL, STCL) cell becomes one task, and the
// pool's workers steal tasks from a single queue regardless of which
// scenario they belong to — so a straggler scenario never idles the fleet.
// Each scenario owns its own memoizing oracle (per-Env tier-1 cache), all
// optionally backed by one shared persistent store (tier 2).
//
// Results are slotted by task index, so serial and parallel runs produce
// byte-identical renders — the same contract as the single-Env sweeps.
type Fleet struct {
	Scenarios []FleetScenario
	// Package is the package stack shared by the fleet; the zero value
	// selects thermal.DefaultPackageConfig.
	Package thermal.PackageConfig
	// TLs and STCLs define the per-scenario operating-point grid; nil
	// selects FleetTLs / FleetSTCLs.
	TLs, STCLs []float64
	// Parallel fans the flattened cell list across GOMAXPROCS goroutines.
	Parallel bool
	// Store, when non-nil, backs every scenario's oracle with the
	// persistent content-addressed cache.
	Store *oraclestore.Store
	// GridRes switches every scenario to the grid-resolution validation
	// oracle (lazily built per scenario when a store is attached).
	GridRes int
	// Grid tunes the grid oracles' solver; ignored when GridRes is 0.
	Grid thermal.GridOptions
}

// The default fleet operating-point grid: a compact corner of Table 1 that
// still exercises tight and relaxed packing per scenario.
var (
	FleetTLs   = []float64{150, 165, 180}
	FleetSTCLs = []float64{40, 80}
)

// FleetScenarioResult aggregates one scenario's cells plus its two cache
// tiers' counters (deltas over this run).
type FleetScenarioResult struct {
	Name  string
	Cores int
	Rows  []Table1Row

	// Tier-1 (in-memory memo) counters.
	Hits, Misses int64
	// Tier-2 (persistent store) counters; zero without a store.
	StoreHits, StoreMisses int64
}

// TotalLength sums schedule lengths across the scenario's cells (s).
func (r *FleetScenarioResult) TotalLength() float64 {
	var t float64
	for _, row := range r.Rows {
		t += row.Length
	}
	return t
}

// TotalEffort sums simulation effort across the scenario's cells (s).
func (r *FleetScenarioResult) TotalEffort() float64 {
	var t float64
	for _, row := range r.Rows {
		t += row.Effort
	}
	return t
}

// PeakTemp returns the hottest committed session across the cells (°C).
func (r *FleetScenarioResult) PeakTemp() float64 {
	var mx float64
	for _, row := range r.Rows {
		if row.MaxTemp > mx {
			mx = row.MaxTemp
		}
	}
	return mx
}

// FleetResult is the whole sweep in scenario order.
type FleetResult struct {
	TLs, STCLs []float64
	GridRes    int
	Scenarios  []FleetScenarioResult
}

// Run executes the sweep. Environments are built serially (they are cheap —
// the expensive oracles are lazy); the flattened cell tasks then fan out
// across the shared pool. On failure the lowest-index cell's error is
// returned, matching a serial run.
func (f *Fleet) Run() (*FleetResult, error) {
	if len(f.Scenarios) == 0 {
		return nil, fmt.Errorf("experiments: fleet has no scenarios")
	}
	cfg := f.Package
	if cfg == (thermal.PackageConfig{}) {
		cfg = thermal.DefaultPackageConfig()
	}
	tls, stcls := f.TLs, f.STCLs
	if tls == nil {
		tls = FleetTLs
	}
	if stcls == nil {
		stcls = FleetSTCLs
	}

	envs := make([]*Env, len(f.Scenarios))
	storeBase := make([][2]int64, len(f.Scenarios))
	for i, sc := range f.Scenarios {
		env, err := NewEnvWithOptions(sc.Spec, cfg, EnvOptions{Store: f.Store, GridRes: f.GridRes, Grid: f.Grid})
		if err != nil {
			return nil, fmt.Errorf("experiments: fleet scenario %q: %w", sc.Name, err)
		}
		env.Parallel = f.Parallel
		envs[i] = env
		if env.StoreCache != nil {
			h, m := env.StoreCache.Stats()
			storeBase[i] = [2]int64{h, m}
		}
	}

	cells := len(tls) * len(stcls)
	workers := 1
	if f.Parallel {
		workers = runtime.GOMAXPROCS(0)
	}
	rows, err := conc.Sweep(workers, len(envs)*cells, func(i int) (Table1Row, error) {
		si, ci := i/cells, i%cells
		tl, stcl := tls[ci/len(stcls)], stcls[ci%len(stcls)]
		return fleetCell(envs[si], f.Scenarios[si].Name, tl, stcl)
	})
	if err != nil {
		return nil, err
	}

	out := &FleetResult{TLs: tls, STCLs: stcls, GridRes: f.GridRes}
	for i, sc := range f.Scenarios {
		r := FleetScenarioResult{
			Name:  sc.Name,
			Cores: sc.Spec.NumCores(),
			Rows:  rows[i*cells : (i+1)*cells],
		}
		r.Hits, r.Misses = envs[i].Oracle.Stats()
		if envs[i].StoreCache != nil {
			h, m := envs[i].StoreCache.Stats()
			r.StoreHits, r.StoreMisses = h-storeBase[i][0], m-storeBase[i][1]
		}
		out.Scenarios = append(out.Scenarios, r)
	}
	return out, nil
}

// fleetCell generates one (scenario, TL, STCL) cell — the unit of fleet work.
func fleetCell(env *Env, name string, tl, stcl float64) (Table1Row, error) {
	res, err := env.Generate(core.Config{TL: tl, STCL: stcl, AutoRaiseTL: true})
	if err != nil {
		return Table1Row{}, fmt.Errorf("experiments: fleet %q TL=%g STCL=%g: %w", name, tl, stcl, err)
	}
	return Table1Row{
		TL:         tl,
		STCL:       stcl,
		Length:     res.Length,
		Effort:     res.Effort,
		MaxTemp:    res.MaxTemp,
		Sessions:   res.Schedule.NumSessions(),
		Violations: res.Violations,
		Forced:     res.ForcedSingletons,
	}, nil
}

// Render formats one line per scenario. Every column is deterministic, so
// serial and parallel fleets render byte-identically (asserted under -race
// by TestFleetSerialParallelByteIdentical).
func (f *FleetResult) Render() string {
	var sb strings.Builder
	oracle := "block-model"
	if f.GridRes > 0 {
		oracle = fmt.Sprintf("grid-%dx%d", f.GridRes, f.GridRes)
	}
	fmt.Fprintf(&sb, "Fleet sweep — %d scenarios × %d (TL, STCL) cells, %s oracle\n",
		len(f.Scenarios), len(f.TLs)*len(f.STCLs), oracle)
	fmt.Fprintf(&sb, "%-22s %6s %10s %10s %9s %8s %8s %9s %9s\n",
		"scenario", "cores", "length(s)", "effort(s)", "peak(°C)", "t1 hit", "t1 miss", "store hit", "store miss")
	for i := range f.Scenarios {
		r := &f.Scenarios[i]
		fmt.Fprintf(&sb, "%-22s %6d %10.0f %10.0f %9.2f %8d %8d %9d %9d\n",
			r.Name, r.Cores, r.TotalLength(), r.TotalEffort(), r.PeakTemp(),
			r.Hits, r.Misses, r.StoreHits, r.StoreMisses)
	}
	return sb.String()
}
