// Package baseline implements the schedulers the DATE'05 paper compares its
// thermal-aware approach against:
//
//   - power-constrained test scheduling (PCTS): the classic system-level
//     approach [Chou et al., TVLSI'97 and successors] that limits session
//     concurrency by a chip-level power budget, with both a greedy first-fit
//     heuristic and an optimal minimum-session partitioner (bitmask dynamic
//     programming) for small systems;
//   - purely sequential scheduling (one core per session), the trivially
//     thermal-safe lower bound on concurrency.
//
// The paper's Figure 1 observation is reproducible with these tools: a power
// cap admits sessions with wildly different peak temperatures because power
// ignores *where* on the die the heat lands.
package baseline

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/schedule"
	"repro/internal/testspec"
)

// ErrBaseline wraps argument errors from this package.
var ErrBaseline = errors.New("baseline: invalid argument")

// ErrInfeasible is returned when a core's own test power exceeds the chip
// power budget, so no session can host it.
var ErrInfeasible = errors.New("baseline: core exceeds the power budget on its own")

// Sequential returns the one-core-per-session schedule in block order. Its
// length is the total test time of the spec.
func Sequential(spec *testspec.Spec) schedule.Schedule {
	sc := schedule.New()
	for i := 0; i < spec.NumCores(); i++ {
		sc = sc.Append(schedule.MustSession(i))
	}
	return sc
}

// GreedyPower builds a schedule with first-fit-decreasing bin packing under
// a chip-level power budget (W): cores are sorted by descending test power
// and placed into the first session with room. This mirrors the classic
// power-constrained test scheduling heuristics the paper cites.
func GreedyPower(spec *testspec.Spec, budget float64) (schedule.Schedule, error) {
	if !(budget > 0) {
		return schedule.Schedule{}, fmt.Errorf("%w: power budget %g must be > 0", ErrBaseline, budget)
	}
	n := spec.NumCores()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := spec.Test(order[a]).Power, spec.Test(order[b]).Power
		if pa != pb {
			return pa > pb
		}
		return order[a] < order[b]
	})
	type bin struct {
		cores []int
		power float64
	}
	var bins []bin
	for _, c := range order {
		p := spec.Test(c).Power
		if p > budget {
			return schedule.Schedule{}, fmt.Errorf("%w: core %s needs %.1f W > budget %.1f W",
				ErrInfeasible, spec.Test(c).Name, p, budget)
		}
		placed := false
		for i := range bins {
			if bins[i].power+p <= budget {
				bins[i].cores = append(bins[i].cores, c)
				bins[i].power += p
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, bin{cores: []int{c}, power: p})
		}
	}
	sc := schedule.New()
	for _, b := range bins {
		s, err := schedule.NewSession(b.cores...)
		if err != nil {
			return schedule.Schedule{}, err
		}
		sc = sc.Append(s)
	}
	return sc, nil
}

// OptimalPowerLimit is the largest core count OptimalPower accepts; the DP
// state space is 3^n in time and 2^n in memory.
const OptimalPowerLimit = 20

// OptimalPower returns a schedule with the provably minimum number of
// sessions under the power budget, via subset dynamic programming over
// feasible sessions. Only uniform-length test sets are supported (session
// count and schedule length are then equivalent objectives); non-uniform
// specs are rejected so callers are not silently given a non-optimal result.
func OptimalPower(spec *testspec.Spec, budget float64) (schedule.Schedule, error) {
	n := spec.NumCores()
	if n > OptimalPowerLimit {
		return schedule.Schedule{}, fmt.Errorf("%w: %d cores exceeds OptimalPowerLimit %d",
			ErrBaseline, n, OptimalPowerLimit)
	}
	if !(budget > 0) {
		return schedule.Schedule{}, fmt.Errorf("%w: power budget %g must be > 0", ErrBaseline, budget)
	}
	l0 := spec.Test(0).Length
	for i := 1; i < n; i++ {
		if spec.Test(i).Length != l0 {
			return schedule.Schedule{}, fmt.Errorf("%w: OptimalPower requires uniform test lengths", ErrBaseline)
		}
	}
	for i := 0; i < n; i++ {
		if spec.Test(i).Power > budget {
			return schedule.Schedule{}, fmt.Errorf("%w: core %s needs %.1f W > budget %.1f W",
				ErrInfeasible, spec.Test(i).Name, spec.Test(i).Power, budget)
		}
	}

	full := (1 << n) - 1
	// feasible[m]: subset m fits in one session under the budget.
	feasible := make([]bool, full+1)
	powerOf := make([]float64, full+1)
	for m := 1; m <= full; m++ {
		low := m & (-m)
		c := bits.TrailingZeros(uint(m))
		powerOf[m] = powerOf[m^low] + spec.Test(c).Power
		feasible[m] = powerOf[m] <= budget+1e-9
	}
	// dp[m]: minimum sessions to schedule subset m; choice[m]: one feasible
	// session achieving it.
	dp := make([]int, full+1)
	choice := make([]int, full+1)
	for m := 1; m <= full; m++ {
		dp[m] = math.MaxInt32
		// Anchor the lowest set bit to halve the subset enumeration: the
		// session containing that core is chosen canonically.
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
		var cores []int
		for c := 0; c < n; c++ {
			if choice[m]&(1<<c) != 0 {
				cores = append(cores, c)
			}
		}
		s, err := schedule.NewSession(cores...)
		if err != nil {
			return schedule.Schedule{}, err
		}
		sc = sc.Append(s)
	}
	return sc, nil
}

// ThermalChecker validates schedules against a temperature limit using any
// oracle with the same contract as the thermal-aware generator's: block
// temperatures for a set of concurrently tested cores.
type ThermalChecker struct {
	// BlockTemps returns per-block steady-state temperatures (°C) for the
	// active set.
	BlockTemps func(active []int) ([]float64, error)
}

// SessionViolation describes one session that exceeds the limit.
type SessionViolation struct {
	Session int     // session index in the schedule
	MaxTemp float64 // hottest active core, °C
	HotCore int     // index of the hottest active core
	Excess  float64 // MaxTemp - TL, > 0
}

// Check simulates every session of the schedule and returns the sessions
// whose peak active-core temperature reaches or exceeds tl. A nil slice
// means the schedule is thermal-safe. The second result is the hottest
// temperature observed anywhere in the schedule.
func (tc ThermalChecker) Check(sc schedule.Schedule, tl float64) ([]SessionViolation, float64, error) {
	if tc.BlockTemps == nil {
		return nil, 0, fmt.Errorf("%w: ThermalChecker without BlockTemps", ErrBaseline)
	}
	var violations []SessionViolation
	peak := math.Inf(-1)
	for si, sess := range sc.Sessions() {
		temps, err := tc.BlockTemps(sess.Cores())
		if err != nil {
			return nil, 0, fmt.Errorf("baseline: simulating session %d: %w", si, err)
		}
		mx, hot := math.Inf(-1), -1
		for _, c := range sess.Cores() {
			t := temps[c]
			if math.IsNaN(t) || math.IsInf(t, 0) {
				// A NaN never exceeds mx and would read as safe.
				return nil, 0, fmt.Errorf("%w: session %d gave core %d a non-finite temperature %g", ErrBaseline, si, c, t)
			}
			if t > mx {
				mx, hot = t, c
			}
		}
		peak = math.Max(peak, mx)
		if mx >= tl {
			violations = append(violations, SessionViolation{
				Session: si, MaxTemp: mx, HotCore: hot, Excess: mx - tl,
			})
		}
	}
	return violations, peak, nil
}
