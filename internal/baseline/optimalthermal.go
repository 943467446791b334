package baseline

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/schedule"
	"repro/internal/testspec"
)

// OptimalThermalLimit is the largest core count OptimalThermal accepts. The
// DP enumerates all 2^n subsets and simulates each once, then runs the
// 3^n-time exact cover; n = 20 means ~1M simulations, which is the practical
// ceiling for the compact model.
const OptimalThermalLimit = 20

// BlockTempsFunc is the simulation contract shared with the thermal-aware
// generator: per-block steady-state temperatures for an active set.
type BlockTempsFunc func(active []int) ([]float64, error)

// OptimalThermal returns a schedule with the provably minimum number of
// sessions such that *every* session's simulated peak stays below tl — the
// exact optimum the DATE'05 heuristic approximates. It exists to measure the
// heuristic's optimality gap (ablation A7), not for production use: it
// simulates every subset of cores once (2^n oracle calls) and then solves
// minimum set partition by subset DP.
//
// Uniform test lengths are required, as with OptimalPower, so that minimum
// session count coincides with minimum schedule length.
func OptimalThermal(spec *testspec.Spec, blockTemps BlockTempsFunc, tl float64) (schedule.Schedule, error) {
	n := spec.NumCores()
	if n > OptimalThermalLimit {
		return schedule.Schedule{}, fmt.Errorf("%w: %d cores exceeds OptimalThermalLimit %d",
			ErrBaseline, n, OptimalThermalLimit)
	}
	if blockTemps == nil {
		return schedule.Schedule{}, fmt.Errorf("%w: nil simulation callback", ErrBaseline)
	}
	if !(tl > 0) {
		return schedule.Schedule{}, fmt.Errorf("%w: tl %g must be > 0", ErrBaseline, tl)
	}
	l0 := spec.Test(0).Length
	for i := 1; i < n; i++ {
		if spec.Test(i).Length != l0 {
			return schedule.Schedule{}, fmt.Errorf("%w: OptimalThermal requires uniform test lengths", ErrBaseline)
		}
	}

	full := (1 << n) - 1
	// Feasibility of every subset. Monotonicity prune: if a subset is
	// infeasible, all supersets are too — checked via immediate sub-subsets
	// before paying for a simulation.
	feasible := make([]bool, full+1)
	feasible[0] = true
	cores := make([]int, 0, n)
	for m := 1; m <= full; m++ {
		// If removing any single member leaves an infeasible set, m is
		// infeasible (temperatures are monotone in added power).
		prunable := false
		for rem := m; rem != 0; {
			bit := rem & (-rem)
			rem ^= bit
			if !feasible[m^bit] {
				prunable = true
				break
			}
		}
		if prunable {
			continue
		}
		cores = cores[:0]
		for c := 0; c < n; c++ {
			if m&(1<<c) != 0 {
				cores = append(cores, c)
			}
		}
		temps, err := blockTemps(cores)
		if err != nil {
			return schedule.Schedule{}, fmt.Errorf("baseline: simulating subset %b: %w", m, err)
		}
		ok := true
		for _, c := range cores {
			t := temps[c]
			if math.IsNaN(t) || math.IsInf(t, 0) {
				// A NaN compares false against tl and would read as safe.
				return schedule.Schedule{}, fmt.Errorf("%w: subset %b gave core %s a non-finite temperature %g",
					ErrBaseline, m, spec.Test(c).Name, t)
			}
			ok = ok && t < tl
		}
		feasible[m] = ok
		if bits.OnesCount(uint(m)) == 1 && !ok {
			return schedule.Schedule{}, fmt.Errorf("%w: core %s alone reaches tl=%.1f °C",
				ErrInfeasible, spec.Test(cores[0]).Name, tl)
		}
	}

	// Exact minimum partition into feasible sessions.
	dp := make([]int, full+1)
	choice := make([]int, full+1)
	for m := 1; m <= full; m++ {
		dp[m] = math.MaxInt32
		low := m & (-m)
		rest := m ^ low
		for sub := rest; ; sub = (sub - 1) & rest {
			sess := sub | low
			if feasible[sess] && dp[m^sess]+1 < dp[m] {
				dp[m] = dp[m^sess] + 1
				choice[m] = sess
			}
			if sub == 0 {
				break
			}
		}
	}
	sc := schedule.New()
	for m := full; m != 0; m ^= choice[m] {
		var cs []int
		for c := 0; c < n; c++ {
			if choice[m]&(1<<c) != 0 {
				cs = append(cs, c)
			}
		}
		s, err := schedule.NewSession(cs...)
		if err != nil {
			return schedule.Schedule{}, err
		}
		sc = sc.Append(s)
	}
	return sc, nil
}
