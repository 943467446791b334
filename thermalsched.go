// Package thermalsched is a library for rapid generation of thermal-safe
// SoC test schedules, reproducing Rosinger, Al-Hashimi and Chakrabarty,
// "Rapid generation of thermal-safe test schedules" (DATE 2005).
//
// A system-on-chip is tested core by core; testing several cores at once
// shortens test time but concentrates heat. Classic schedulers cap the
// *chip-level power* of each test session, which — because on-die power
// density is highly non-uniform — does not prevent local hot spots. This
// library embeds thermal awareness into scheduling instead:
//
//   - a compact HotSpot-style RC thermal simulator (steady-state and
//     transient) acts as the accurate-but-expensive oracle;
//   - the paper's reduced *test-session thermal model* scores candidate
//     sessions in microseconds via the session thermal characteristic (STC);
//   - Algorithm 1 packs sessions up to a user-chosen STC limit (STCL),
//     validates each candidate with one oracle simulation, and inflates the
//     weights of violating cores so they land in emptier sessions on retry.
//
// The STCL knob trades schedule length against simulation effort: tight
// limits give longer schedules found on the first attempt; relaxed limits
// give near-minimal schedules at the cost of many more simulations.
//
// # Quick start
//
//	sys, err := thermalsched.NewSystem(thermalsched.AlphaWorkload(), thermalsched.DefaultPackage())
//	if err != nil { ... }
//	res, err := sys.GenerateSchedule(thermalsched.ScheduleConfig{TL: 165, STCL: 60})
//	if err != nil { ... }
//	fmt.Println(res.Schedule.Describe(sys.Spec()))
//
// The subpackages under internal/ hold the implementation; this package is
// the stable public surface and re-exports everything a user needs.
package thermalsched

import (
	"io"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

// Re-exported types. Aliases keep the internal packages and the public API
// interchangeable: values returned here can be passed to any subsystem.
type (
	// Rect is an axis-aligned rectangle (metres).
	Rect = geom.Rect
	// Block is a named core on the die.
	Block = floorplan.Block
	// Floorplan is a validated block placement.
	Floorplan = floorplan.Floorplan
	// RandomFloorplanOptions seeds the synthetic floorplan generator.
	RandomFloorplanOptions = floorplan.RandomOptions

	// PowerProfile holds per-core functional and test powers.
	PowerProfile = power.Profile

	// TestSpec is a complete scheduling problem: floorplan + powers + test
	// lengths.
	TestSpec = testspec.Spec

	// PackageConfig describes the thermal package stack.
	PackageConfig = thermal.PackageConfig
	// ThermalModel is the compact RC model with steady-state and transient
	// solvers.
	ThermalModel = thermal.Model
	// SteadyResult is a steady-state temperature field.
	SteadyResult = thermal.SteadyResult
	// TransientOptions configures transient runs.
	TransientOptions = thermal.TransientOptions
	// TransientResult is a transient temperature trace.
	TransientResult = thermal.TransientResult
	// Integrator selects the transient time-integration scheme.
	Integrator = thermal.Integrator
	// GridModel is the fine-grid discretisation used for validation and
	// heatmaps.
	GridModel = thermal.GridModel
	// GridResult is a grid steady-state field with heatmap rendering.
	GridResult = thermal.GridResult

	// SessionModel is the paper's reduced test-session thermal model.
	SessionModel = core.SessionModel
	// ScheduleConfig parameterises Algorithm 1 (TL, STCL, weights, order).
	ScheduleConfig = core.Config
	// ScheduleResult is the outcome of a generator run, including the
	// simulation-effort accounting of the paper's Table 1.
	ScheduleResult = core.Result
	// OrderPolicy selects the candidate scan order.
	OrderPolicy = core.OrderPolicy
	// Oracle is the accurate-simulation interface consumed by the generator.
	Oracle = core.Oracle
	// CachedOracle memoizes any Oracle by active set, concurrency-safe.
	CachedOracle = core.CachedOracle

	// Session is a set of concurrently tested cores.
	Session = schedule.Session
	// Schedule is an ordered list of sessions.
	Schedule = schedule.Schedule

	// SessionViolation reports a session exceeding a temperature limit.
	SessionViolation = baseline.SessionViolation
)

// Candidate scan orders for ScheduleConfig.Order.
const (
	OrderByTCDesc      = core.OrderByTCDesc
	OrderByDensityDesc = core.OrderByDensityDesc
	OrderByPowerDesc   = core.OrderByPowerDesc
	OrderByAreaAsc     = core.OrderByAreaAsc
	OrderInput         = core.OrderInput
)

// Transient integrators for TransientOptions.Integrator.
const (
	CrankNicolson = thermal.CrankNicolson
	RK4           = thermal.RK4
)

// NewCachedOracle wraps an Oracle with a concurrency-safe memo table keyed
// by active set. Deterministic oracles (all of them, per the Oracle
// contract) answer repeated session queries from the cache.
func NewCachedOracle(inner Oracle) *CachedOracle { return core.NewCachedOracle(inner) }

// DefaultPackage returns the calibrated package stack used by the paper
// reproduction (the calibration note is on thermal.DefaultPackageConfig).
func DefaultPackage() PackageConfig { return thermal.DefaultPackageConfig() }

// AlphaWorkload returns the paper's evaluation workload: the reconstructed
// 15-core Alpha 21364 with test powers 1.5–8× functional and 1 s tests.
func AlphaWorkload() *TestSpec { return testspec.Alpha21364() }

// Figure1Workload returns the paper's motivational 7-core SoC with 15 W
// per-core test power.
func Figure1Workload() *TestSpec { return testspec.Figure1() }

// Alpha21364Floorplan returns the reconstructed 15-core floorplan.
func Alpha21364Floorplan() *Floorplan { return floorplan.Alpha21364() }

// Figure1Floorplan returns the 7-core motivational floorplan.
func Figure1Floorplan() *Floorplan { return floorplan.Figure1SoC() }

// ParseFloorplan reads a HotSpot ".flp" description.
func ParseFloorplan(r io.Reader, name string) (*Floorplan, error) {
	return floorplan.Parse(r, name)
}

// FormatFloorplan renders a floorplan in ".flp" format.
func FormatFloorplan(fp *Floorplan) string { return floorplan.Format(fp) }

// RandomFloorplan generates a deterministic synthetic floorplan.
func RandomFloorplan(opts RandomFloorplanOptions) (*Floorplan, error) {
	return floorplan.Random(opts)
}

// NewPowerProfile builds a power profile from explicit per-core functional
// and test powers (W).
func NewPowerProfile(fp *Floorplan, functional, test []float64) (*PowerProfile, error) {
	return power.NewProfile(fp, functional, test)
}

// PowerFromFactors builds a power profile from functional powers and test
// multipliers (the paper's 1.5–8× style).
func PowerFromFactors(fp *Floorplan, functional, factors []float64) (*PowerProfile, error) {
	return power.FromFactors(fp, functional, factors)
}

// NewTestSpec binds a power profile to per-core test lengths (seconds).
func NewTestSpec(name string, profile *PowerProfile, lengths []float64) (*TestSpec, error) {
	return testspec.New(name, profile, lengths)
}

// UniformTestSpec builds a spec where every test lasts the same time.
func UniformTestSpec(name string, profile *PowerProfile, seconds float64) (*TestSpec, error) {
	return testspec.UniformLength(name, profile, seconds)
}

// ParseTestSpec reads the textual workload format (core, functional W,
// test W, seconds) for the given floorplan.
func ParseTestSpec(r io.Reader, name string, fp *Floorplan) (*TestSpec, error) {
	return testspec.Parse(r, name, fp)
}

// NewThermalModel assembles (and factorizes) the compact RC model of a
// floorplan in a package.
func NewThermalModel(fp *Floorplan, cfg PackageConfig) (*ThermalModel, error) {
	return thermal.NewModel(fp, cfg)
}

// NewGridThermalModel discretises the die into an nx×ny cell grid — the
// fine-grained cross-check of the block model, with heatmap rendering.
func NewGridThermalModel(fp *Floorplan, cfg PackageConfig, nx, ny int) (*GridModel, error) {
	return thermal.NewGridModel(fp, cfg, nx, ny)
}
