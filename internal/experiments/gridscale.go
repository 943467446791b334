package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/schedule"
	"repro/internal/thermal"
)

// GridScalePoint is one rung of the grid-resolution ladder: the Table 1
// schedule's sessions re-simulated on an n×n grid discretisation, with the
// solver backend and timing split that tells direct-factor
// amortisation from per-query cost.
type GridScalePoint struct {
	Res        int           // grid is Res×Res cells
	Nodes      int           // total RC nodes (2·Res² + 2)
	NNZ        int           // conductance matrix non-zeros
	FactorNNZ  int           // Cholesky factor non-zeros (0 on the CG fallback)
	Panels     int           // supernodal panel count (0 on the CG fallback)
	Backend    string        // thermal.GridModel.SolverBackend()
	BuildTime  time.Duration // model assembly + symbolic + numeric factorization
	FactorTime time.Duration // numeric factorization alone (inside BuildTime)
	Shared     bool          // the rung reused a live model's factor: no numeric work
	SolveTime  time.Duration // total per-query steady-state solve time across all sessions
	Queries    int           // session count
	PeakT      float64       // hottest cell over all sessions, °C
	// Out-of-core factorization under a peak-bytes budget.
	SpilledPanels int   // factor panels spilled to disk (0 in core)
	SpilledBytes  int64 // bytes written to the spill file
	PeakResident  int64 // peak resident factorization bytes
}

// PerQuery returns the amortized per-session solve time on the per-query
// path.
func (p GridScalePoint) PerQuery() time.Duration {
	if p.Queries == 0 {
		return 0
	}
	return p.SolveTime / time.Duration(p.Queries)
}

// GridScaleResult is the grid-resolution study: the Table 1 flow (generate a
// schedule at the mid operating point, then validate every committed session)
// run against increasingly fine grid models of the same package.
type GridScaleResult struct {
	TL, STCL float64
	Sessions int
	Points   []GridScalePoint
}

// RunGridScale generates the TL=165/STCL=60 Table 1 schedule in env, then
// re-simulates its sessions on each grid resolution, reporting backend
// choice, factorization fill and the per-query solve timing per rung. This
// is the scaling probe for the sparse steady-state backend: per-query time
// should stay near-linear in the node count because the factorization is
// built once and reused. opts builds every rung's grid model: a
// PeakBytesBudget makes every rung factor, out of core (bit-identical) when
// the in-core bytes exceed it.
func RunGridScale(env *Env, resolutions []int, opts thermal.GridOptions) (*GridScaleResult, error) {
	const tl, stcl = 165, 60
	res, err := env.Generate(core.Config{TL: tl, STCL: stcl})
	if err != nil {
		return nil, err
	}
	sessions := res.Schedule.Sessions()
	out := &GridScaleResult{TL: tl, STCL: stcl, Sessions: len(sessions)}
	for _, r := range resolutions {
		if r < 2 {
			return nil, fmt.Errorf("experiments: grid resolution %d too small", r)
		}
		pt, err := runGridRung(env, r, opts, sessions)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// runGridRung builds one r×r grid model, times its build and the sessions'
// per-query solves, and closes the model before returning so
// the next rung, or a later run at this resolution, factors afresh instead
// of sharing this rung's factor.
func runGridRung(env *Env, r int, opts thermal.GridOptions, sessions []schedule.Session) (GridScalePoint, error) {
	start := time.Now()
	gm, err := thermal.NewGridModelWithOptions(env.Spec.Floorplan(), env.Model.Config(), r, r, opts)
	if err != nil {
		return GridScalePoint{}, fmt.Errorf("experiments: %d×%d grid: %w", r, r, err)
	}
	defer gm.Close()
	fs := gm.FactorStats()
	pt := GridScalePoint{
		Res:        r,
		Nodes:      gm.NumNodes(),
		NNZ:        gm.NNZ(),
		FactorNNZ:  gm.FactorNNZ(),
		Panels:     fs.Panels,
		Backend:    gm.SolverBackend(),
		BuildTime:  time.Since(start),
		FactorTime: fs.FactorTime,
		Shared:     fs.Shared,
		Queries:    len(sessions),

		SpilledPanels: fs.SpilledPanels,
		SpilledBytes:  fs.SpilledBytes,
		PeakResident:  fs.PeakResidentBytes,
	}
	prof := env.Spec.Profile()
	for _, s := range sessions {
		pm, err := prof.TestPowerMap(s.Cores())
		if err != nil {
			return GridScalePoint{}, err
		}
		t0 := time.Now()
		gr, err := gm.SteadyState(pm)
		pt.SolveTime += time.Since(t0)
		if err != nil {
			return GridScalePoint{}, fmt.Errorf("experiments: %d×%d grid solve: %w", r, r, err)
		}
		if mt := gr.MaxTemp(); mt > pt.PeakT {
			pt.PeakT = mt
		}
	}
	return pt, nil
}

// Render formats the ladder as a table.
func (g *GridScaleResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Grid-resolution ladder — Table 1 schedule (TL=%.0f, STCL=%.0f, %d sessions) on n×n grids\n",
		g.TL, g.STCL, g.Sessions)
	fmt.Fprintf(&sb, "%6s %8s %9s %10s %7s %7s %10s %16s %12s %12s %12s %9s\n",
		"grid", "nodes", "nnz", "factor", "panels", "spilled", "resident", "backend", "build", "numeric", "per-query", "peak °C")
	for _, p := range g.Points {
		resident := "-"
		if p.SpilledPanels > 0 {
			resident = fmt.Sprintf("%d", p.PeakResident)
		}
		numeric := p.FactorTime.Round(time.Microsecond).String()
		if p.Shared {
			numeric = "shared"
		}
		fmt.Fprintf(&sb, "%3dx%-3d %8d %9d %10d %7d %7d %10s %16s %12s %12s %12s %9.2f\n",
			p.Res, p.Res, p.Nodes, p.NNZ, p.FactorNNZ, p.Panels,
			p.SpilledPanels, resident, p.Backend,
			p.BuildTime.Round(time.Microsecond), numeric,
			p.PerQuery().Round(time.Microsecond), p.PeakT)
	}
	return sb.String()
}
