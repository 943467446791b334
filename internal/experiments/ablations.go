package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/testspec"
)

// --- A1: weight growth factor -----------------------------------------------

// WeightsRow is one (factor, TL, STCL) measurement.
type WeightsRow struct {
	Factor float64
	TL     float64
	STCL   float64
	Length float64
	Effort float64
}

// WeightsResult sweeps Algorithm 1's weight growth factor (the paper fixes
// 1.1 without justification).
type WeightsResult struct {
	Rows []WeightsRow
}

// RunWeights measures the effort/length trade-off of the weight factor.
func RunWeights(env *Env) (*WeightsResult, error) {
	factors := []float64{1.05, 1.1, 1.25, 1.5, 2.0}
	tls := []float64{145, 165, 185}
	rows, err := sweepN(env.Parallel, len(factors)*len(tls), func(i int) (WeightsRow, error) {
		factor, tl := factors[i/len(tls)], tls[i%len(tls)]
		res, err := env.Generate(core.Config{TL: tl, STCL: 60, WeightGrowth: factor})
		if err != nil {
			return WeightsRow{}, fmt.Errorf("experiments: weights factor=%g TL=%g: %w", factor, tl, err)
		}
		return WeightsRow{
			Factor: factor, TL: tl, STCL: 60,
			Length: res.Length, Effort: res.Effort,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &WeightsResult{Rows: rows}, nil
}

// Render formats the sweep.
func (w *WeightsResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablation A1 — weight growth factor (paper: 1.1)\n")
	fmt.Fprintf(&sb, "%8s %6s %6s %10s %10s\n", "factor", "TL", "STCL", "length(s)", "effort(s)")
	for _, r := range w.Rows {
		fmt.Fprintf(&sb, "%8.2f %6.0f %6.0f %10.0f %10.0f\n", r.Factor, r.TL, r.STCL, r.Length, r.Effort)
	}
	return sb.String()
}

// --- A2: candidate ordering --------------------------------------------------

// OrderingRow is one (policy, TL) measurement.
type OrderingRow struct {
	Policy core.OrderPolicy
	TL     float64
	Length float64
	Effort float64
}

// OrderingResult sweeps the candidate scan order, which the paper's
// pseudocode leaves unspecified.
type OrderingResult struct {
	Rows []OrderingRow
}

// RunOrdering measures every order policy.
func RunOrdering(env *Env) (*OrderingResult, error) {
	policies := core.OrderPolicies()
	tls := []float64{145, 165, 185}
	rows, err := sweepN(env.Parallel, len(policies)*len(tls), func(i int) (OrderingRow, error) {
		policy, tl := policies[i/len(tls)], tls[i%len(tls)]
		res, err := env.Generate(core.Config{TL: tl, STCL: 60, Order: policy})
		if err != nil {
			return OrderingRow{}, fmt.Errorf("experiments: ordering %v TL=%g: %w", policy, tl, err)
		}
		return OrderingRow{
			Policy: policy, TL: tl, Length: res.Length, Effort: res.Effort,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &OrderingResult{Rows: rows}, nil
}

// Render formats the sweep.
func (o *OrderingResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablation A2 — candidate scan order (paper: unspecified)\n")
	fmt.Fprintf(&sb, "%14s %6s %10s %10s\n", "order", "TL", "length(s)", "effort(s)")
	for _, r := range o.Rows {
		fmt.Fprintf(&sb, "%14s %6.0f %10.0f %10.0f\n", r.Policy, r.TL, r.Length, r.Effort)
	}
	return sb.String()
}

// --- A3: session-model fidelity ----------------------------------------------

// FidelityResult quantifies how well the cheap session model predicts the
// full simulation: rank correlation of STC with simulated peak temperature,
// and the hit rate of "higher STC ⇒ hotter" on random session pairs.
type FidelityResult struct {
	Sessions   int
	KendallTau float64
	// ViolationRecall: of the sessions that violate TL in full simulation,
	// the fraction the model would have ranked in its hotter half.
	TL               float64
	ViolationRecall  float64
	ViolationCount   int
	MeanAbsTempError float64 // °C, |a·STC+b − simT| after a least-squares fit
}

// RunFidelity samples random sessions and compares model vs oracle.
func RunFidelity(env *Env, sessions int, seed int64) (*FidelityResult, error) {
	if sessions < 10 {
		sessions = 10
	}
	rng := rand.New(rand.NewSource(seed))
	n := env.Spec.NumCores()
	type point struct {
		stc, temp float64
	}
	pts := make([]point, 0, sessions)
	for len(pts) < sessions {
		perm := rng.Perm(n)
		size := 1 + rng.Intn(7)
		sess := append([]int(nil), perm[:size]...)
		stc, err := env.SM.STC(sess, nil)
		if err != nil {
			return nil, err
		}
		temps, err := env.Oracle.BlockTemps(sess)
		if err != nil {
			return nil, err
		}
		mx := math.Inf(-1)
		for _, c := range sess {
			mx = math.Max(mx, temps[c])
		}
		pts = append(pts, point{stc, mx})
	}

	var concordant, discordant float64
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			d := (pts[i].stc - pts[j].stc) * (pts[i].temp - pts[j].temp)
			switch {
			case d > 0:
				concordant++
			case d < 0:
				discordant++
			}
		}
	}
	res := &FidelityResult{Sessions: sessions, TL: 165}
	if concordant+discordant > 0 {
		res.KendallTau = (concordant - discordant) / (concordant + discordant)
	}

	// Violation recall at TL: sort by STC, check violators sit in the upper
	// half of the model's ranking.
	var violators, recalled int
	stcMedian := medianOf(pts, func(p point) float64 { return p.stc })
	for _, p := range pts {
		if p.temp >= res.TL {
			violators++
			if p.stc >= stcMedian {
				recalled++
			}
		}
	}
	res.ViolationCount = violators
	if violators > 0 {
		res.ViolationRecall = float64(recalled) / float64(violators)
	}

	// Least-squares linear fit STC → temp, then mean absolute error.
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		sx += p.stc
		sy += p.temp
		sxx += p.stc * p.stc
		sxy += p.stc * p.temp
	}
	m := float64(len(pts))
	den := m*sxx - sx*sx
	if den != 0 {
		a := (m*sxy - sx*sy) / den
		b := (sy - a*sx) / m
		var mae float64
		for _, p := range pts {
			mae += math.Abs(a*p.stc + b - p.temp)
		}
		res.MeanAbsTempError = mae / m
	}
	return res, nil
}

func medianOf[T any](items []T, key func(T) float64) float64 {
	vals := make([]float64, len(items))
	for i, it := range items {
		vals[i] = key(it)
	}
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	if len(vals) == 0 {
		return 0
	}
	return vals[len(vals)/2]
}

// Render formats the fidelity report.
func (f *FidelityResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablation A3 — session-model fidelity vs full simulation\n")
	fmt.Fprintf(&sb, "random sessions: %d\n", f.Sessions)
	fmt.Fprintf(&sb, "Kendall tau (STC vs simulated peak): %.2f\n", f.KendallTau)
	fmt.Fprintf(&sb, "violators at TL=%.0f °C: %d, recalled in model's hot half: %.0f%%\n",
		f.TL, f.ViolationCount, f.ViolationRecall*100)
	fmt.Fprintf(&sb, "mean |linear-fit error|: %.1f K\n", f.MeanAbsTempError)
	return sb.String()
}

// --- A4: thermal-aware vs power-constrained ----------------------------------

// BaselineRow compares the two paradigms at one operating point.
type BaselineRow struct {
	Label      string
	Length     float64
	Violations int     // thermal violations at TL
	PeakTemp   float64 // °C
}

// BaselineResult is the A4 comparison: equal-length schedules, who violates;
// and the budget PCTS needs to become thermal-safe.
type BaselineResult struct {
	TL   float64
	Rows []BaselineRow
	// SafePowerBudget is the largest swept budget at which greedy PCTS is
	// thermal-safe, and SafePowerLength its schedule length.
	SafePowerBudget float64
	SafePowerLength float64
	// ThermalAwareLength is the generator's length at the same TL.
	ThermalAwareLength float64
}

// RunBaseline compares thermal-aware scheduling with power-constrained
// scheduling on the Alpha workload.
func RunBaseline(env *Env, tl float64) (*BaselineResult, error) {
	out := &BaselineResult{TL: tl}
	checker := baseline.ThermalChecker{BlockTemps: env.Oracle.BlockTemps}

	// Thermal-aware reference point.
	ta, err := env.Generate(core.Config{TL: tl, STCL: 60})
	if err != nil {
		return nil, err
	}
	out.ThermalAwareLength = ta.Length
	out.Rows = append(out.Rows, BaselineRow{
		Label:    "thermal-aware (STCL=60)",
		Length:   ta.Length,
		PeakTemp: ta.MaxTemp,
	})

	// PCTS at budgets that produce comparable schedule lengths.
	for _, budget := range []float64{80, 120, 160, 240, 330} {
		sc, err := baseline.GreedyPower(env.Spec, budget)
		if err != nil {
			return nil, err
		}
		viol, peak, err := checker.Check(sc, tl)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, BaselineRow{
			Label:      fmt.Sprintf("power-constrained (%.0f W)", budget),
			Length:     sc.Length(env.Spec),
			Violations: len(viol),
			PeakTemp:   peak,
		})
		if len(viol) == 0 && budget > out.SafePowerBudget {
			out.SafePowerBudget = budget
			out.SafePowerLength = sc.Length(env.Spec)
		}
	}
	return out, nil
}

// Render formats the comparison.
func (b *BaselineResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation A4 — thermal-aware vs power-constrained scheduling at TL=%.0f °C\n", b.TL)
	fmt.Fprintf(&sb, "%-28s %10s %12s %12s\n", "scheduler", "length(s)", "violations", "peak(°C)")
	for _, r := range b.Rows {
		fmt.Fprintf(&sb, "%-28s %10.0f %12d %12.2f\n", r.Label, r.Length, r.Violations, r.PeakTemp)
	}
	if b.SafePowerBudget > 0 {
		fmt.Fprintf(&sb, "largest thermally safe PCTS budget: %.0f W (length %.0f s) vs thermal-aware %.0f s\n",
			b.SafePowerBudget, b.SafePowerLength, b.ThermalAwareLength)
	} else {
		sb.WriteString("no swept PCTS budget was thermally safe\n")
	}
	return sb.String()
}

// --- A5: scaling with core count ---------------------------------------------

// ScalingRow is one random-floorplan measurement.
type ScalingRow struct {
	Cores   int
	Length  float64
	Effort  float64
	Seconds float64 // wall-clock of the generator run (informational)
}

// ScalingResult measures generator behaviour on growing random SoCs.
type ScalingResult struct {
	Rows []ScalingRow
}

// ScalingSpec builds a deterministic random workload with n cores. Powers
// are assigned so density varies several-fold across cores, mimicking the
// Alpha skew, while per-core test density is capped so every solo test is
// safe below the scaling experiment's TL = 140 °C (no TL auto-raise kicks
// in); every test lasts 1 s.
func ScalingSpec(n int, seed int64) (*testspec.Spec, error) {
	fp, err := floorplan.Random(floorplan.RandomOptions{Blocks: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	functional := make([]float64, n)
	factors := make([]float64, n)
	const maxTestDensity = 2.6e6 // W/m²; keeps solo tests below ~138 °C
	for i := 0; i < n; i++ {
		area := fp.Block(i).Area()
		density := (0.2 + 0.7*rng.Float64()) * 1e6 // 0.2–0.9 W/mm² functional
		functional[i] = density * area
		factor := 2.5 + 4.5*rng.Float64() // 2.5–7× test power
		if density*factor > maxTestDensity {
			factor = maxTestDensity / density
		}
		if factor < 1.5 {
			factor = 1.5
		}
		factors[i] = factor
	}
	prof, err := power.FromFactors(fp, functional, factors)
	if err != nil {
		return nil, err
	}
	return testspec.UniformLength(fmt.Sprintf("random-%d", n), prof, 1)
}

// RunScaling generates schedules for random SoCs of growing size. Each size
// gets its own environment (different floorplans share nothing), so with
// parallel set the sizes fan out across worker goroutines.
func RunScaling(sizes []int, seed int64, parallel bool) (*ScalingResult, error) {
	rows, err := sweepN(parallel, len(sizes), func(i int) (ScalingRow, error) {
		n := sizes[i]
		spec, err := ScalingSpec(n, seed)
		if err != nil {
			return ScalingRow{}, err
		}
		env, err := NewEnv(spec)
		if err != nil {
			return ScalingRow{}, err
		}
		res, err := env.Generate(core.Config{TL: 140, STCL: 60, AutoRaiseTL: true})
		if err != nil {
			return ScalingRow{}, err
		}
		return ScalingRow{Cores: n, Length: res.Length, Effort: res.Effort}, nil
	})
	if err != nil {
		return nil, err
	}
	return &ScalingResult{Rows: rows}, nil
}

// Render formats the scaling table.
func (s *ScalingResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablation A5 — random-SoC scaling (TL=140, STCL=60)\n")
	fmt.Fprintf(&sb, "%6s %10s %10s\n", "cores", "length(s)", "effort(s)")
	for _, r := range s.Rows {
		fmt.Fprintf(&sb, "%6d %10.0f %10.0f\n", r.Cores, r.Length, r.Effort)
	}
	return sb.String()
}
