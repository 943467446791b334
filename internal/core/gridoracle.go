package core

import (
	"math"
	"sync"

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

// BlockTemps implements Oracle: each active block's hottest covered cell,
// NaN at every passive block. The grid model's ActiveBlockMax solves over
// the active footprint's elimination-tree closure alone, bit-identical to a
// full solve at the active cells, in a pooled vector, so the answer slice is
// the query's one allocation.
func (o *GridOracle) BlockTemps(active []int) ([]float64, error) {
	pmP := o.pmPool.Get().(*[]float64)
	defer o.pmPool.Put(pmP)
	pm := *pmP
	if err := o.profile.TestPowerMapInto(pm, active); err != nil {
		return nil, err
	}
	out := make([]float64, len(pm))
	for b := range out {
		out[b] = math.NaN()
	}
	if err := o.grid.ActiveBlockMax(out, pm, active); err != nil {
		return nil, err
	}
	return out, nil
}

// BlockTempsBatch implements BatchOracle by fanning BlockTemps out across
// GOMAXPROCS goroutines. Its one caller is phase 1, whose one-core sessions
// each reach only a sliver of the factor on the sparse-RHS path, so each
// session is its own solve.
func (o *GridOracle) BlockTempsBatch(sessions [][]int) ([][]float64, error) {
	return sweepBlockTemps(o, sessions)
}

var _ BatchOracle = (*GridOracle)(nil)
