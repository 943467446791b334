package core

import (
	"fmt"

	"repro/internal/power"
	"repro/internal/thermal"
)

// TransientOracle validates sessions with a *transient* simulation over the
// session's actual duration instead of the steady-state bound.
//
// The paper's modification 1 deliberately uses steady-state temperatures as
// a safe upper bound for constant-power sessions (the transient of an RC
// network charging from ambient is monotone and converges to the steady
// state from below). That bound is conservative for short sessions: a 1 s
// test may end long before the die heats through. Swapping this oracle into
// the generator quantifies the conservatism — an extension the paper leaves
// open ("exploration of more efficient solutions at the expense of longer
// thermal simulation times").
//
// Duration semantics: every query integrates from ambient for the given time
// and reports each block's temperature at the *end* of the run
// (FinalBlockTemp). For a constant power map applied from ambient this final
// sample IS the peak over the whole trace: the RC network charges
// monotonically toward its steady state, so temperatures never overshoot.
// (With a non-zero initial state or time-varying power that equivalence would
// break, and the peak would have to be tracked explicitly.)
type TransientOracle struct {
	model    *thermal.Model
	profile  *power.Profile
	duration float64
	step     float64
}

// NewTransientOracle builds a transient oracle for fixed-duration sessions.
// step = 0 picks the integrator default.
func NewTransientOracle(m *thermal.Model, prof *power.Profile, duration, step float64) (*TransientOracle, error) {
	if !(duration > 0) {
		return nil, fmt.Errorf("%w: transient oracle duration %g must be > 0", ErrCore, duration)
	}
	if step < 0 {
		return nil, fmt.Errorf("%w: transient oracle step %g must be >= 0", ErrCore, step)
	}
	return &TransientOracle{model: m, profile: prof, duration: duration, step: step}, nil
}

// BlockTemps implements Oracle: per-block temperatures at the end of a
// session of the configured duration, started from ambient.
func (o *TransientOracle) BlockTemps(active []int) ([]float64, error) {
	pm, err := o.profile.TestPowerMap(active)
	if err != nil {
		return nil, err
	}
	res, err := o.model.Transient(pm, thermal.TransientOptions{
		Duration: o.duration,
		Step:     o.step,
	})
	if err != nil {
		return nil, err
	}
	n := o.model.NumBlocks()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = res.FinalBlockTemp(i)
	}
	return out, nil
}

// BlockTempsBatch implements BatchOracle. A transient run integrates every
// time step of the session and sessions share none of that work, so the
// batch fans out across GOMAXPROCS goroutines (the model's cached
// Crank–Nicolson operators are safe for concurrent use). Results are
// bit-identical to BlockTemps, and a failure reports the lowest-index error.
func (o *TransientOracle) BlockTempsBatch(sessions [][]int) ([][]float64, error) {
	return sweepBlockTemps(o, sessions)
}

var _ BatchOracle = (*TransientOracle)(nil)
