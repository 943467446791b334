// Package experiments regenerates every figure and table of the DATE'05
// evaluation plus the ablations in ablations.go. Each experiment returns
// a structured result with a text renderer, so the same code backs the
// cmd/experiments CLI, the root-level benchmarks and the integration tests.
//
// Absolute temperatures depend on the reconstructed package and workload
// (see the calibration note on thermal.DefaultPackageConfig), so the results
// are compared with the paper in *shape*:
// orderings, monotone trends, crossovers and ratios.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/oraclestore"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

// Env bundles the objects every experiment needs for one workload.
//
// All oracle traffic goes through a shared memoizing cache: the sweeps of
// Table 1 / Figure 5 re-pose identical session simulations for every grid
// cell (each of the 81 cells repeats the same 15 phase-1 solo simulations),
// so one Env-wide CachedOracle collapses that to one simulation per distinct
// session. The cache also makes the whole Env safe to share across the
// worker goroutines of a parallel sweep.
//
// With a persistent store attached (EnvOptions.Store) the cache becomes
// two-tier: misses fall through to the content-addressed disk store before
// reaching the simulator, so a repeated run in a fresh process re-simulates
// nothing. With EnvOptions.GridRes the validation oracle is the
// grid-resolution model instead of the compact block model; combined with a
// store it is built lazily, so a fully warm run never pays the grid
// factorization.
type Env struct {
	Spec  *testspec.Spec
	Model *thermal.Model
	SM    *core.SessionModel
	// Sim is the raw, uncached block-model simulation oracle.
	Sim *core.SimOracle
	// Oracle memoizes all validation-oracle traffic; its hit/miss counters
	// are surfaced by the experiments CLI.
	Oracle *core.CachedOracle
	// StoreCache is the persistent tier under Oracle, nil without a store.
	StoreCache *oraclestore.SystemCache
	// Lazy is the deferred grid-oracle builder, nil when the validation
	// oracle is the (eagerly built) block simulator. Lazy.Built() reports
	// whether any query actually paid the grid factorization — false on a
	// fully warm run.
	Lazy *core.LazyOracle
	// GridRes is the validation-oracle grid resolution, 0 for block-model.
	GridRes int
	// Parallel fans experiment sweeps across GOMAXPROCS goroutines. Serial
	// and parallel runs render byte-identical tables.
	Parallel bool
}

// EnvOptions selects the optional oracle plumbing of an Env.
type EnvOptions struct {
	// Store, when non-nil, persists every distinct simulation to disk and
	// answers repeat queries — across processes — without simulating.
	Store *oraclestore.Store
	// GridRes, when > 0, validates sessions on a GridRes×GridRes
	// grid-resolution thermal model instead of the block model.
	GridRes int
	// Grid tunes the grid oracle's solver (peak-bytes budget, spill
	// directory). The zero value is the canonical default: a 2 GiB budget.
	// No option enters the store key — the budget and the spill directory
	// are bit-identical execution strategies of the one factor, so cached
	// results stay shared across them.
	Grid thermal.GridOptions
}

// NewEnv builds the environment for a spec under the default package.
func NewEnv(spec *testspec.Spec) (*Env, error) {
	return NewEnvWithConfig(spec, thermal.DefaultPackageConfig())
}

// NewEnvWithConfig builds the environment with an explicit package config.
func NewEnvWithConfig(spec *testspec.Spec, cfg thermal.PackageConfig) (*Env, error) {
	return NewEnvWithOptions(spec, cfg, EnvOptions{})
}

// NewEnvWithOptions builds the environment with an explicit package config
// and the optional persistent-store / grid-oracle plumbing.
func NewEnvWithOptions(spec *testspec.Spec, cfg thermal.PackageConfig, opts EnvOptions) (*Env, error) {
	m, err := thermal.NewModel(spec.Floorplan(), cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: building thermal model: %w", err)
	}
	sm, err := core.NewSessionModel(m, spec.Profile(), 0)
	if err != nil {
		return nil, fmt.Errorf("experiments: building session model: %w", err)
	}
	sim := core.NewSimOracle(m, spec.Profile())
	env := &Env{
		Spec:    spec,
		Model:   m,
		SM:      sm,
		Sim:     sim,
		GridRes: opts.GridRes,
	}

	// The inner (tier-3) oracle: the block simulator, or a lazily built
	// grid-resolution simulator. Laziness matters with a store: a warm run
	// that answers everything from disk never factors the grid at all.
	var inner core.Oracle = sim
	if opts.GridRes > 0 {
		n, gopts := opts.GridRes, opts.Grid
		// Defer the grid factorization to the first query even without a
		// store, so a fleet's env-construction loop stays cheap and the
		// factorizations happen inside the pooled cell tasks.
		env.Lazy = core.NewLazyOracle(func() (core.Oracle, error) {
			gm, err := thermal.NewGridModelWithOptions(spec.Floorplan(), cfg, n, n, gopts)
			if err != nil {
				return nil, fmt.Errorf("experiments: building %d×%d grid oracle: %w", n, n, err)
			}
			return core.NewGridOracle(gm, spec.Profile()), nil
		})
		inner = env.Lazy
	}

	if opts.Store == nil {
		env.Oracle = core.NewCachedOracle(inner)
		return env, nil
	}

	sc, err := opts.Store.System(OracleDesc(spec, cfg, opts))
	if err != nil {
		return nil, fmt.Errorf("experiments: opening oracle store: %w", err)
	}
	env.StoreCache = sc
	env.Oracle = core.NewCachedOracle(sc.Wrap(inner))
	return env, nil
}

// OracleDesc describes the validation oracle of an Env built from spec, cfg
// and opts — the grid model's at opts.GridRes, else the block model's —
// without building it. Its key is the oracle's store address, so the schedule
// service keys live environments by it before paying for their models. The
// grid options (the budget, the spill directory, the host's panel shape)
// select bit-identical executions of one factor, so they share an address.
func OracleDesc(spec *testspec.Spec, cfg thermal.PackageConfig, opts EnvOptions) oraclestore.SystemDesc {
	if opts.GridRes > 0 {
		return oraclestore.DescForGrid(spec.Floorplan(), cfg, spec.Profile(),
			opts.GridRes, opts.GridRes, opts.Grid)
	}
	return oraclestore.DescForBlockModel(spec.Floorplan(), cfg, spec.Profile())
}

// GridFactorStats returns the factor statistics of the grid oracle, when this
// Env validates on one AND some query has already paid its construction. It
// never forces the lazy build, so metrics exporters can poll it freely.
func (e *Env) GridFactorStats() (thermal.GridFactorStats, bool) {
	if e.Lazy == nil {
		return thermal.GridFactorStats{}, false
	}
	if gro, ok := e.Lazy.Inner().(*core.GridOracle); ok {
		return gro.Grid().FactorStats(), true
	}
	return thermal.GridFactorStats{}, false
}

// Figure1Env is the motivational 7-core SoC environment.
func Figure1Env() (*Env, error) { return NewEnv(testspec.Figure1()) }

// Generate runs the thermal-aware generator in this environment with the
// shared memoized oracle.
func (e *Env) Generate(cfg core.Config) (*core.Result, error) {
	return core.Generate(e.Spec, e.SM, e.Oracle, cfg)
}

// GenerateContext is Generate with a cancellation point: the generator polls
// ctx between candidate simulations and aborts with an error wrapping
// core.ErrInterrupted and ctx.Err() once the context ends — the service's
// per-request deadline path. Everything simulated before the abort stays
// memoized and persisted.
func (e *Env) GenerateContext(ctx context.Context, cfg core.Config) (*core.Result, error) {
	cfg.Interrupt = ctx.Err
	return e.Generate(cfg)
}

// The paper's parameter grids.
var (
	// Table1TLs are the temperature limits of Table 1 (°C).
	Table1TLs = []float64{145, 150, 155, 160, 165, 170, 175, 180, 185}
	// Figure5TLs are the three limits plotted in Figure 5 (°C).
	Figure5TLs = []float64{145, 155, 165}
	// STCLs is the session-thermal-characteristic-limit sweep shared by
	// Figure 5 and Table 1.
	STCLs = []float64{20, 30, 40, 50, 60, 70, 80, 90, 100}
)
