package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/thermal"
)

// GridCheckRow compares the block and grid discretisations on one session.
type GridCheckRow struct {
	Session   []string
	BlockT    float64 // block-model peak, °C
	GridT     float64 // grid-model peak, °C
	RiseRatio float64 // (grid − ambient) / (block − ambient)
}

// GridCheckResult is the A8 validation: the scheduler's block-model oracle
// cross-checked against an independent fine-grid discretisation of the same
// package (HotSpot's grid mode analogue).
type GridCheckResult struct {
	GridDim int
	Rows    []GridCheckRow
	// MeanAbsRatioErr is mean |ratio − 1| across rows.
	MeanAbsRatioErr float64
	// RankAgreement reports whether both models order the sessions
	// identically by peak temperature, ignoring near-ties (block-model
	// difference below 10 K — comparable to the two discretisations'
	// mutual deviation, where either ordering is physically defensible).
	RankAgreement bool
}

// RunGridCheck validates the block model against an n×n grid on a fixed
// session portfolio spanning dense, sparse and mixed power placements.
func RunGridCheck(env *Env, n int) (*GridCheckResult, error) {
	if n < 8 {
		n = 8
	}
	grid, err := thermal.NewGridModel(env.Spec.Floorplan(), env.Model.Config(), n, n)
	if err != nil {
		return nil, err
	}
	defer grid.Close()
	sessions := [][]string{
		{"IntExec"},
		{"IntReg", "IntExec"},
		{"Icache", "Dcache"},
		{"L2Left", "L2Right"},
		{"IntExec", "IntReg", "Dcache"},
		{"L2Base", "L2Left", "L2Right"},
		{"Icache", "Dcache", "Bpred", "ITB_DTB", "LdStQ"},
		{"FPAdd", "FPMul", "FPReg", "FPMapQ"},
	}
	out := &GridCheckResult{GridDim: n}
	fp := env.Spec.Floorplan()
	amb := env.Model.Config().Ambient
	for _, names := range sessions {
		var idx []int
		for _, nm := range names {
			i, err := fp.IndexOf(nm)
			if err != nil {
				return nil, err
			}
			idx = append(idx, i)
		}
		pm, err := env.Spec.Profile().TestPowerMap(idx)
		if err != nil {
			return nil, err
		}
		rb, err := env.Model.SteadyState(pm)
		if err != nil {
			return nil, err
		}
		rg, err := grid.SteadyState(pm)
		if err != nil {
			return nil, err
		}
		row := GridCheckRow{
			Session: names,
			BlockT:  rb.MaxTemp(),
			GridT:   rg.MaxTemp(),
		}
		row.RiseRatio = (row.GridT - amb) / (row.BlockT - amb)
		out.Rows = append(out.Rows, row)
		out.MeanAbsRatioErr += math.Abs(row.RiseRatio - 1)
	}
	out.MeanAbsRatioErr /= float64(len(out.Rows))

	// Rank agreement via pairwise concordance, skipping near-ties.
	out.RankAgreement = true
	for i := 0; i < len(out.Rows); i++ {
		for j := i + 1; j < len(out.Rows); j++ {
			db := out.Rows[i].BlockT - out.Rows[j].BlockT
			dg := out.Rows[i].GridT - out.Rows[j].GridT
			if math.Abs(db) >= 10 && db*dg < 0 {
				out.RankAgreement = false
			}
		}
	}
	return out, nil
}

// Render formats the validation table.
func (g *GridCheckResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension A8 — block model vs %d×%d grid model (independent discretisations)\n",
		g.GridDim, g.GridDim)
	fmt.Fprintf(&sb, "%-44s %10s %10s %8s\n", "session", "block(°C)", "grid(°C)", "ratio")
	for _, r := range g.Rows {
		fmt.Fprintf(&sb, "%-44s %10.2f %10.2f %8.2f\n",
			strings.Join(r.Session, " "), r.BlockT, r.GridT, r.RiseRatio)
	}
	fmt.Fprintf(&sb, "mean |rise ratio − 1|: %.2f; identical session ranking: %v\n",
		g.MeanAbsRatioErr, g.RankAgreement)
	return sb.String()
}
