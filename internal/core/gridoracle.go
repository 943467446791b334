package core

import (
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/conc"
	"repro/internal/power"
	"repro/internal/thermal"
)

// GridOracle answers oracle queries with a fine-grid discretisation instead
// of the compact block model: each active core's test power is deposited over
// its footprint on an nx×ny cell grid and the steady-state field is reduced
// back to one temperature per active block (the hottest cell inside the
// block — the quantity a thermal-safety check cares about).
//
// A grid query costs milliseconds where the block model costs microseconds,
// which is exactly why it exists: it is the simulation-dominated oracle the
// persistent store (internal/oraclestore) and the fleet runner amortise. The
// model is factored once at construction and shared by every query, and
// GridModel.SteadyState is safe for concurrent use, so a GridOracle can sit
// under the parallel sweeps like any other Oracle.
type GridOracle struct {
	grid    *thermal.GridModel
	profile *power.Profile
	pmPool  sync.Pool // *[]float64, one per-block power map per query
}

// NewGridOracle binds a factored grid model and a power profile sharing the
// same floorplan.
func NewGridOracle(gm *thermal.GridModel, prof *power.Profile) *GridOracle {
	o := &GridOracle{grid: gm, profile: prof}
	o.pmPool.New = func() any {
		pm := make([]float64, gm.Floorplan().NumBlocks())
		return &pm
	}
	return o
}

// Grid returns the underlying grid model.
func (o *GridOracle) Grid() *thermal.GridModel { return o.grid }

// BlockTemps implements Oracle: solve the grid, then reduce each active
// block to its hottest covered cell; every passive entry is NaN. The
// per-candidate right-hand side only touches the active cores' cell
// footprint, so the solve goes through the grid model's sparse-RHS path
// (SteadyStateActive), which confines both triangular passes to the
// footprint's elimination-tree closure — bit-identical to a dense-RHS solve
// at the active cells.
func (o *GridOracle) BlockTemps(active []int) ([]float64, error) {
	pmP := o.pmPool.Get().(*[]float64)
	pm := *pmP
	if err := o.profile.TestPowerMapInto(pm, active); err != nil {
		o.pmPool.Put(pmP)
		return nil, err
	}
	res, err := o.grid.SteadyStateActive(pm, active)
	o.pmPool.Put(pmP)
	if err != nil {
		return nil, err
	}
	return o.reduce(res, active), nil
}

// BlockTempsBatch implements BatchOracle. Solo sessions are solved alone on
// the sparse-RHS path: a one-core footprint's elimination-tree reach is a
// sliver of the factor, which beats any dense amortisation. Multi-core
// sessions are split into at most GOMAXPROCS contiguous groups, and each group
// rides one blocked multi-RHS pass (GridModel.SteadyStateBatch), so the
// multi-megabyte factor streams once per group instead of once per session.
// Solos and groups fan out across GOMAXPROCS goroutines; at GOMAXPROCS=1 the
// call does the same solves as one serial loop plus one blocked pass.
//
// Every result is bit-identical to BlockTemps on its session, NaN at the
// passive entries included, and results come back in index order. Power
// maps are built up front in index order, so an invalid session fails
// exactly as BlockTemps would on it, before any solve starts; a failed solve
// reports the job with the lowest first session.
func (o *GridOracle) BlockTempsBatch(sessions [][]int) ([][]float64, error) {
	width := runtime.GOMAXPROCS(0)
	pms := make([][]float64, len(sessions))
	var jobs [][]int // session indices; a multi-core job is one blocked pass
	var multi []int
	for i, s := range sessions {
		pms[i] = make([]float64, o.grid.Floorplan().NumBlocks())
		if err := o.profile.TestPowerMapInto(pms[i], s); err != nil {
			return nil, err
		}
		if len(s) > 1 {
			multi = append(multi, i)
		} else {
			jobs = append(jobs, []int{i})
		}
	}
	groups := min(width, len(multi))
	for g := 0; g < groups; g++ {
		jobs = append(jobs, multi[g*len(multi)/groups:(g+1)*len(multi)/groups])
	}
	slices.SortFunc(jobs, func(a, b []int) int { return a[0] - b[0] })
	out := make([][]float64, len(sessions))
	_, err := conc.Sweep(width, len(jobs), func(j int) (struct{}, error) {
		return struct{}{}, o.solveJob(out, sessions, pms, jobs[j])
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// solveJob answers one BlockTempsBatch job into out: a solo session through
// the sparse-RHS path, multi-core sessions through one blocked pass.
func (o *GridOracle) solveJob(out [][]float64, sessions [][]int, pms [][]float64, job []int) error {
	if s := sessions[job[0]]; len(s) <= 1 {
		res, err := o.grid.SteadyStateActive(pms[job[0]], s)
		if err != nil {
			return err
		}
		out[job[0]] = o.reduce(res, s)
		return nil
	}
	group := make([][]float64, len(job))
	for k, i := range job {
		group[k] = pms[i]
	}
	results, err := o.grid.SteadyStateBatch(group)
	if err != nil {
		return err
	}
	for k, i := range job {
		out[i] = o.reduce(results[k], sessions[i])
	}
	return nil
}

// reduce folds a grid field to one temperature per active block (the
// hottest covered cell) and NaN at every passive block, so a session's
// answer is the same whether its field came from a closure solve or a
// full blocked pass.
func (o *GridOracle) reduce(res *thermal.GridResult, active []int) []float64 {
	out := make([]float64, o.grid.Floorplan().NumBlocks())
	for b := range out {
		out[b] = math.NaN()
	}
	for _, b := range active {
		out[b] = res.BlockMaxTemp(b)
	}
	return out
}

var _ BatchOracle = (*GridOracle)(nil)
