package thermalsched

import (
	"fmt"
	"io"
	"math"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/oraclestore"
	"repro/internal/schedule"
)

// System bundles everything needed to schedule one SoC: the test spec, the
// full thermal model, the reduced session model and the simulation oracle.
// It is safe for concurrent use; the only internal mutability is the
// memoizing oracle cache, which is itself concurrency-safe. Repeated
// GenerateSchedule / SessionMaxTemp calls on one System answer previously
// simulated sessions from the cache.
//
// With SystemOptions.CacheDir set the cache is two-tier: every distinct
// session simulation is also spilled to a persistent, content-addressed
// store in that directory, and a later process building the same system
// (same floorplan geometry, package, powers and solver backend) warm-starts
// from it without re-simulating. Call Close to flush the store.
type System struct {
	env   *experiments.Env
	store *oraclestore.Store
}

// SystemOptions tunes System construction beyond the spec and package.
type SystemOptions struct {
	// CacheDir roots the persistent oracle cache; empty disables the
	// persistent tier (the in-memory memo cache is always on).
	CacheDir string
	// StoreBudget caps the cache directory in bytes: at open, record files
	// are evicted least-recently-used-first until the directory fits (this
	// system's own file is freshly touched, so it is the last candidate).
	// 0 means unbounded. Ignored without CacheDir.
	StoreBudget int64
}

// NewSystem builds a System for a test spec under a package configuration.
func NewSystem(spec *TestSpec, cfg PackageConfig) (*System, error) {
	return NewSystemWithOptions(spec, cfg, SystemOptions{})
}

// NewSystemWithOptions builds a System with explicit options.
//
// The oracle stack is an experiments.Env over the block model. The store is
// opened before the Env claims its system file and evicted to budget after,
// so this system's own file is the last eviction candidate.
func NewSystemWithOptions(spec *TestSpec, cfg PackageConfig, opts SystemOptions) (*System, error) {
	s := &System{}
	if opts.CacheDir != "" {
		store, err := oraclestore.Open(opts.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("thermalsched: opening oracle cache: %w", err)
		}
		s.store = store
	}
	env, err := experiments.NewEnvWithOptions(spec, cfg, experiments.EnvOptions{Store: s.store})
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("thermalsched: %w", err)
	}
	s.env = env
	if s.store != nil && opts.StoreBudget > 0 {
		if _, err := s.store.Evict(opts.StoreBudget); err != nil {
			s.store.Close()
			return nil, fmt.Errorf("thermalsched: evicting oracle cache to budget: %w", err)
		}
	}
	return s, nil
}

// Close flushes and closes the persistent oracle cache, if any. The System
// keeps answering queries afterwards (from memory and fresh simulation);
// only disk spilling stops. Safe to call on a cache-less System.
func (s *System) Close() error {
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}

// OracleStats returns the memoized oracle's (hits, misses) counters — misses
// equal the number of distinct sessions ever simulated by this System.
func (s *System) OracleStats() (hits, misses int64) { return s.env.Oracle.Stats() }

// StoreStats returns the persistent tier's (hits, misses) counters: hits are
// sessions answered from disk instead of simulation. Zero without CacheDir.
func (s *System) StoreStats() (hits, misses int64) {
	if s.env.StoreCache == nil {
		return 0, 0
	}
	return s.env.StoreCache.Stats()
}

// StoreUsage returns the persistent cache directory's record-file count and
// total size in bytes — the quantities SystemOptions.StoreBudget bounds.
// Zero without CacheDir.
func (s *System) StoreUsage() (files int, bytes int64) {
	if s.store == nil {
		return 0, 0
	}
	st, err := s.store.Stats()
	if err != nil {
		return 0, 0
	}
	return st.Files, st.Bytes
}

// Spec returns the test spec.
func (s *System) Spec() *TestSpec { return s.env.Spec }

// Model returns the full RC thermal model.
func (s *System) Model() *ThermalModel { return s.env.Model }

// SessionModel returns the reduced session thermal model.
func (s *System) SessionModel() *SessionModel { return s.env.SM }

// GenerateSchedule runs the paper's Algorithm 1 and returns the thermal-safe
// schedule plus its effort accounting.
func (s *System) GenerateSchedule(cfg ScheduleConfig) (*ScheduleResult, error) {
	return core.Generate(s.env.Spec, s.env.SM, s.env.Oracle, cfg)
}

// SimulateSession returns the steady-state temperature field when exactly
// the cores in active are testing (all others idle).
func (s *System) SimulateSession(active []int) (*SteadyResult, error) {
	pm, err := s.env.Spec.Profile().TestPowerMap(active)
	if err != nil {
		return nil, err
	}
	return s.env.Model.SteadyState(pm)
}

// SimulateSessionTransient integrates the session's thermal transient from
// ambient.
func (s *System) SimulateSessionTransient(active []int, opts TransientOptions) (*TransientResult, error) {
	pm, err := s.env.Spec.Profile().TestPowerMap(active)
	if err != nil {
		return nil, err
	}
	return s.env.Model.Transient(pm, opts)
}

// SessionMaxTemp returns the hottest active-core temperature of a session
// (°C) — the quantity compared against TL. A NaN or ±Inf temperature at an
// active core is an error, as it is to the generator and the baselines.
func (s *System) SessionMaxTemp(active []int) (float64, error) {
	temps, err := s.env.Oracle.BlockTemps(active)
	if err != nil {
		return 0, err
	}
	mx := math.Inf(-1)
	for _, c := range active {
		if t := temps[c]; math.IsNaN(t) || math.IsInf(t, 0) {
			return 0, fmt.Errorf("thermalsched: simulation gave core %d a non-finite temperature %g", c, t)
		}
		mx = math.Max(mx, temps[c])
	}
	return mx, nil
}

// STC evaluates the session thermal characteristic of a candidate session
// with unit weights — the cheap score Algorithm 1 packs against.
func (s *System) STC(active []int) (float64, error) {
	return s.env.SM.STC(active, nil)
}

// SequentialSchedule returns the trivially safe one-core-per-session
// schedule.
func (s *System) SequentialSchedule() Schedule {
	return baseline.Sequential(s.env.Spec)
}

// PowerConstrainedSchedule runs the classic greedy power-capped scheduler
// (first-fit decreasing under a chip power budget in watts).
func (s *System) PowerConstrainedSchedule(budget float64) (Schedule, error) {
	return baseline.GreedyPower(s.env.Spec, budget)
}

// OptimalPowerSchedule returns the minimum-session schedule under the power
// budget (exact subset DP; core count limited, uniform test lengths only).
func (s *System) OptimalPowerSchedule(budget float64) (Schedule, error) {
	return baseline.OptimalPower(s.env.Spec, budget)
}

// CheckSchedule simulates every session of a schedule and reports the ones
// that reach or exceed tl, plus the schedule's peak temperature.
func (s *System) CheckSchedule(sc Schedule, tl float64) ([]SessionViolation, float64, error) {
	checker := baseline.ThermalChecker{BlockTemps: s.env.Oracle.BlockTemps}
	return checker.Check(sc, tl)
}

// NewSession builds a session from core indices (validated).
func NewSession(cores ...int) (Session, error) { return schedule.NewSession(cores...) }

// NewSchedule builds a schedule from sessions.
func NewSchedule(sessions ...Session) Schedule { return schedule.New(sessions...) }

// FormatSchedule renders a schedule in the line-oriented text form
// ParseSchedule reads back ("TS1: C2 C3 C4").
func FormatSchedule(sc Schedule, spec *TestSpec) string { return schedule.Format(sc, spec) }

// ParseSchedule reads the FormatSchedule representation and validates it
// against spec (every core exactly once).
func ParseSchedule(r io.Reader, spec *TestSpec) (Schedule, error) { return schedule.Parse(r, spec) }
