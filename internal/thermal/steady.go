package thermal

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/linalg"
)

// SteadyResult holds the steady-state solution of one power map. All
// temperatures are absolute (°C), i.e. ambient plus the solved rise.
type SteadyResult struct {
	model *Model
	temps []float64 // full node vector, °C
	power []float64 // per-block injected power, W (copy)
}

// SteadyState solves G·ΔT = P for the given per-block power map (W) and
// returns absolute temperatures. The factorization is reused across calls,
// so a query costs two triangular solves (O(n²) dense, O(nnz(L)) sparse).
func (m *Model) SteadyState(power []float64) (*SteadyResult, error) {
	temps := make([]float64, m.size)
	if err := m.SteadyStateInto(temps, power); err != nil {
		return nil, err
	}
	pc := make([]float64, len(power))
	copy(pc, power)
	return &SteadyResult{model: m, temps: temps, power: pc}, nil
}

// SteadyStateInto is the allocation-free steady-state query: it validates
// power, solves in place and writes absolute temperatures (°C) for every
// node into temps, which must have length NumNodes. Hot callers (the
// simulation oracle inside sweep loops) reuse one buffer across queries;
// block temperatures are temps[:NumBlocks]. Safe for concurrent use with
// distinct buffers.
func (m *Model) SteadyStateInto(temps, power []float64) error {
	if err := m.expandPowerInto(temps, power); err != nil {
		return err
	}
	if err := m.solver.SolveInto(temps, temps); err != nil {
		return fmt.Errorf("thermal: steady-state solve: %w", err)
	}
	for i, dt := range temps {
		temps[i] = m.cfg.Ambient + dt
	}
	return nil
}

// SteadyStateActiveInto is SteadyStateInto for a power map whose only
// non-zero entries are the blocks listed in active — the query shape of the
// validation oracle, where passive cores idle and are not read. On the
// sparse backend both triangular solves run over the elimination-tree
// closure of the active silicon nodes (SolveSparseInto): temps is
// bit-identical to SteadyStateInto at the active nodes and the rest of the
// closure, and NaN at every other node. The dense backend ignores the hint
// and fills every node. Blocks outside active must carry zero power.
func (m *Model) SteadyStateActiveInto(temps, power []float64, active []int) error {
	sp, ok := m.solver.(*linalg.SparseCholesky)
	if !ok {
		return m.SteadyStateInto(temps, power)
	}
	if err := m.expandPowerInto(temps, power); err != nil {
		return err
	}
	// Block i's power lands on silicon node i, so the active list is the
	// right-hand side's support verbatim.
	if err := sp.SolveSparseInto(temps, temps, active); err != nil {
		return fmt.Errorf("thermal: steady-state solve: %w", err)
	}
	for i, dt := range temps {
		temps[i] = m.cfg.Ambient + dt
	}
	return nil
}

// BlockTemps returns a copy of all silicon block temperatures (°C).
func (r *SteadyResult) BlockTemps() []float64 {
	out := make([]float64, r.model.n)
	copy(out, r.temps[:r.model.n])
	return out
}

// RimTemp returns the spreader rim temperature (°C).
func (r *SteadyResult) RimTemp() float64 { return r.temps[r.model.rimNode()] }

// SinkTemp returns the heat-sink temperature (°C).
func (r *SteadyResult) SinkTemp() float64 { return r.temps[r.model.sinkNode()] }

// MaxBlock returns the hottest silicon block and its temperature.
func (r *SteadyResult) MaxBlock() (int, float64) {
	best, bestT := 0, r.temps[0]
	for i := 1; i < r.model.n; i++ {
		if r.temps[i] > bestT {
			best, bestT = i, r.temps[i]
		}
	}
	return best, bestT
}

// MaxTemp returns the hottest silicon block temperature (°C). This is the
// quantity Algorithm 1 compares against the temperature limit TL.
func (r *SteadyResult) MaxTemp() float64 {
	_, t := r.MaxBlock()
	return t
}

// TotalPower returns the summed injected power (W).
func (r *SteadyResult) TotalPower() float64 {
	var s float64
	for _, p := range r.power {
		s += p
	}
	return s
}

// Describe renders a per-block temperature report, hottest first.
func (r *SteadyResult) Describe() string {
	type row struct {
		name    string
		temp    float64
		power   float64
		density float64
	}
	rows := make([]row, r.model.n)
	for i := 0; i < r.model.n; i++ {
		b := r.model.fp.Block(i)
		rows[i] = row{
			name:    b.Name,
			temp:    r.temps[i],
			power:   r.power[i],
			density: r.power[i] / b.Area() * 1e-4, // W/cm²
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].temp != rows[j].temp {
			return rows[i].temp > rows[j].temp
		}
		return rows[i].name < rows[j].name
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %10s %10s %12s\n", "block", "T(°C)", "P(W)", "P/A(W/cm²)")
	for _, rw := range rows {
		fmt.Fprintf(&sb, "%-12s %10.2f %10.2f %12.2f\n", rw.name, rw.temp, rw.power, rw.density)
	}
	fmt.Fprintf(&sb, "spreader rim %.2f °C, sink %.2f °C, ambient %.2f °C, total %.1f W\n",
		r.RimTemp(), r.SinkTemp(), r.model.cfg.Ambient, r.TotalPower())
	return sb.String()
}
