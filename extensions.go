package thermalsched

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/thermal"
)

// This file holds the extensions beyond the paper's core algorithm:
// transient-based validation, the exact optimal thermal scheduler, and
// whole-schedule transient simulation with heat carry-over between sessions.

// GenerateScheduleTransient runs Algorithm 1 with a transient oracle: each
// candidate session is validated by integrating the session's actual
// duration from ambient instead of using the steady-state upper bound. For
// short tests this admits more concurrency (the die ends the session before
// heating through); it costs substantially more per validation. step = 0
// picks the integrator default.
//
// This realises the exploration the paper's conclusion proposes: trading
// longer thermal simulations for shorter schedules.
func (s *System) GenerateScheduleTransient(cfg ScheduleConfig, step float64) (*ScheduleResult, error) {
	duration := s.env.Spec.MaxTestLength()
	oracle, err := core.NewTransientOracle(s.env.Model, s.env.Spec.Profile(), duration, step)
	if err != nil {
		return nil, err
	}
	// Memoize within the run: forced singletons re-pose their phase-1 solo
	// query, and transient validations are the most expensive oracle calls
	// in the codebase.
	return core.Generate(s.env.Spec, s.env.SM, core.NewCachedOracle(oracle), cfg)
}

// OptimalThermalSchedule returns the provably minimum-session thermal-safe
// schedule under the steady-state oracle (exact subset DP; exponential in
// core count, capped at baseline.OptimalThermalLimit cores; uniform test
// lengths only). Intended for measuring the heuristic's optimality gap.
func (s *System) OptimalThermalSchedule(tl float64) (Schedule, error) {
	return baseline.OptimalThermal(s.env.Spec, s.env.Oracle.BlockTemps, tl)
}

// ScheduleTransientResult reports a whole-schedule transient: sessions are
// applied back to back and the die state carries over between them.
type ScheduleTransientResult struct {
	// SessionPeaks is the hottest block temperature reached during each
	// session (°C), in schedule order.
	SessionPeaks []float64
	// Peak is the hottest temperature over the whole schedule (°C).
	Peak float64
	// SteadyBound is max over sessions of the per-session steady-state peak
	// (°C) — the bound the scheduler budgets against. For an RC network the
	// carried-over transient never exceeds it.
	SteadyBound float64
}

// SimulateScheduleTransient plays the whole schedule through the transient
// solver, carrying the thermal state from one session into the next (the
// per-session steady-state validation assumes each session starts cold;
// this quantifies how the real back-to-back execution behaves). gap is an
// optional cool-down between sessions in seconds (0 = none). step = 0 picks
// the integrator default per session.
func (s *System) SimulateScheduleTransient(sc Schedule, gap, step float64) (*ScheduleTransientResult, error) {
	if gap < 0 {
		return nil, fmt.Errorf("thermalsched: negative inter-session gap %g", gap)
	}
	res := &ScheduleTransientResult{Peak: math.Inf(-1)}
	var state []float64 // carried rise vector; nil = ambient
	zeroPower := make([]float64, s.env.Spec.NumCores())
	for _, sess := range sc.Sessions() {
		pm, err := s.env.Spec.Profile().TestPowerMap(sess.Cores())
		if err != nil {
			return nil, err
		}
		// Steady bound for this session (cold start assumption).
		ss, err := s.env.Model.SteadyState(pm)
		if err != nil {
			return nil, err
		}
		res.SteadyBound = math.Max(res.SteadyBound, ss.MaxTemp())

		tr, err := s.env.Model.Transient(pm, thermal.TransientOptions{
			Duration:    sess.Length(s.env.Spec),
			Step:        step,
			InitialRise: state,
		})
		if err != nil {
			return nil, err
		}
		peak := tr.PeakMaxTemp()
		res.SessionPeaks = append(res.SessionPeaks, peak)
		res.Peak = math.Max(res.Peak, peak)
		state = tr.FinalRise()

		if gap > 0 {
			cool, err := s.env.Model.Transient(zeroPower, thermal.TransientOptions{
				Duration:    gap,
				Step:        step,
				InitialRise: state,
			})
			if err != nil {
				return nil, err
			}
			state = cool.FinalRise()
		}
	}
	return res, nil
}
