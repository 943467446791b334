package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
)

// --- A6: steady-state vs transient validation --------------------------------

// OracleRow compares the two validation oracles at one operating point.
type OracleRow struct {
	TL             float64
	STCL           float64
	SteadyLength   float64
	SteadyMaxT     float64
	TransientLen   float64
	TransientMaxT  float64
	LengthSavedPct float64
}

// OracleResult is the A6 extension study: how much schedule length the
// steady-state upper bound costs for short (1 s) tests.
type OracleResult struct {
	Duration float64 // session duration used by the transient oracle, s
	Rows     []OracleRow
}

// RunOracleComparison generates schedules with both oracles across a small
// grid. The transient oracle is memoized per cell like the steady one; cells
// fan out when env.Parallel is set (the underlying thermal model's cached
// Crank–Nicolson operators are shared and concurrency-safe).
func RunOracleComparison(env *Env) (*OracleResult, error) {
	duration := env.Spec.MaxTestLength()
	tOracle, err := core.NewTransientOracle(env.Model, env.Spec.Profile(), duration, 0.002)
	if err != nil {
		return nil, err
	}
	// One memoized transient oracle shared by every cell: all cells repeat
	// the same 15 phase-1 solo transients and overlap heavily on validation
	// sessions, exactly like the steady-state sweeps sharing env.Oracle.
	cachedTransient := core.NewCachedOracle(tOracle)
	tls := []float64{145, 165, 185}
	stcls := []float64{40, 80}
	rows, err := sweepN(env.Parallel, len(tls)*len(stcls), func(i int) (OracleRow, error) {
		tl, stcl := tls[i/len(stcls)], stcls[i%len(stcls)]
		cfg := core.Config{TL: tl, STCL: stcl}
		steady, err := env.Generate(cfg)
		if err != nil {
			return OracleRow{}, fmt.Errorf("experiments: oracle cmp steady TL=%g STCL=%g: %w", tl, stcl, err)
		}
		transient, err := core.Generate(env.Spec, env.SM, cachedTransient, cfg)
		if err != nil {
			return OracleRow{}, fmt.Errorf("experiments: oracle cmp transient TL=%g STCL=%g: %w", tl, stcl, err)
		}
		row := OracleRow{
			TL: tl, STCL: stcl,
			SteadyLength:  steady.Length,
			SteadyMaxT:    steady.MaxTemp,
			TransientLen:  transient.Length,
			TransientMaxT: transient.MaxTemp,
		}
		if steady.Length > 0 {
			row.LengthSavedPct = 100 * (steady.Length - transient.Length) / steady.Length
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &OracleResult{Duration: duration, Rows: rows}, nil
}

// Render formats the comparison.
func (o *OracleResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension A6 — steady-state vs transient validation (sessions last %.1f s)\n", o.Duration)
	fmt.Fprintf(&sb, "%6s %6s | %10s %10s | %10s %10s | %8s\n",
		"TL", "STCL", "len(ss)", "maxT(ss)", "len(tr)", "maxT(tr)", "saved")
	for _, r := range o.Rows {
		fmt.Fprintf(&sb, "%6.0f %6.0f | %10.0f %10.2f | %10.0f %10.2f | %7.0f%%\n",
			r.TL, r.STCL, r.SteadyLength, r.SteadyMaxT, r.TransientLen, r.TransientMaxT, r.LengthSavedPct)
	}
	sb.WriteString("(ss = steady-state oracle, the paper's bound; tr = transient oracle over the real session length)\n")
	return sb.String()
}

// --- A7: optimality gap -------------------------------------------------------

// GapRow is one TL's heuristic-vs-optimal comparison.
type GapRow struct {
	TL            float64
	OptimalLength float64
	BestHeuristic float64 // best length over the STCL sweep
	BestSTCL      float64
	Gap           float64 // BestHeuristic / OptimalLength
}

// GapResult measures the optimality gap of Algorithm 1 against the exact
// subset-DP scheduler.
type GapResult struct {
	Rows []GapRow
}

// RunOptimalityGap computes the gap at several temperature limits.
func RunOptimalityGap(env *Env, tls []float64) (*GapResult, error) {
	out := &GapResult{}
	for _, tl := range tls {
		opt, err := baseline.OptimalThermal(env.Spec, env.Oracle.BlockTemps, tl)
		if err != nil {
			return nil, fmt.Errorf("experiments: optimal thermal at TL=%g: %w", tl, err)
		}
		row := GapRow{TL: tl, OptimalLength: opt.Length(env.Spec), BestHeuristic: -1}
		for _, stcl := range STCLs {
			res, err := env.Generate(core.Config{TL: tl, STCL: stcl})
			if err != nil {
				return nil, err
			}
			if row.BestHeuristic < 0 || res.Length < row.BestHeuristic {
				row.BestHeuristic = res.Length
				row.BestSTCL = stcl
			}
		}
		row.Gap = row.BestHeuristic / row.OptimalLength
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render formats the gap table.
func (g *GapResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Extension A7 — Algorithm 1 vs exact optimum (steady-state oracle)\n")
	fmt.Fprintf(&sb, "%6s %12s %16s %10s %6s\n", "TL", "optimal(s)", "best heuristic(s)", "@STCL", "gap")
	for _, r := range g.Rows {
		fmt.Fprintf(&sb, "%6.0f %12.0f %16.0f %10.0f %5.2f×\n",
			r.TL, r.OptimalLength, r.BestHeuristic, r.BestSTCL, r.Gap)
	}
	return sb.String()
}
