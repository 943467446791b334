package thermal

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/linalg"
)

// Node index layout for a floorplan with n blocks:
//
//	[0, n)      silicon block nodes (power injected here)
//	[n, 2n)     spreader nodes under each block footprint
//	2n          spreader rim (overhang beyond the die)
//	2n+1        heat-sink node
//
// The ambient is the eliminated ground node; conductances to it appear only
// on the matrix diagonal.

// ErrModel wraps model construction failures.
var ErrModel = errors.New("thermal: invalid model")

// ErrPowerShape is returned when a power vector length does not match the
// block count.
var ErrPowerShape = errors.New("thermal: power vector length mismatch")

// spdSolver is the steady-state backend contract both Cholesky
// factorizations satisfy: an allocation-free triangular solve against a
// cached factor. dst may alias b for both implementations.
type spdSolver interface {
	SolveInto(dst, b []float64) error
}

// sparseNodeCutoff is the node count above which Model switches from the
// dense to the sparse Cholesky backend. The conductance graph of an n-block
// floorplan has O(n) edges, so past a couple hundred nodes the dense factor
// pays O(n³) for a matrix that is almost entirely zeros; the measured
// crossover (see PERF.md) is well below this, but small models keep the
// dense path for its unbeatable constant factors and simplicity.
const sparseNodeCutoff = 128

// Model is an immutable compact RC thermal model of one floorplan in one
// package. Construction assembles the conductance graph sparsely and
// factorizes it with the backend matching its size — dense Cholesky for
// small block models, fill-reducing sparse Cholesky for grid-scale ones — so
// repeated steady-state queries cost only two triangular solves over the
// factor. A Model is safe for concurrent use.
type Model struct {
	fp   *floorplan.Floorplan
	adj  *floorplan.Adjacency
	cfg  PackageConfig
	n    int // block count
	size int // total node count = 2n+2

	g      *linalg.Matrix // dense conductance copy; nil on the sparse backend
	gs     *linalg.Sparse // conductance matrix in CSR form (always present)
	caps   []float64      // per-node heat capacity, J/K
	diag   []float64      // conductance diagonal, for RK4 stability bounds
	solver spdSolver      // cached factorization of the conductance matrix

	// cnMu guards cnOps, the per-step-size Crank–Nicolson operators. Each
	// transient run with a new step size assembles and factorizes once; every
	// subsequent run (including the fractional tail of a repeated horizon)
	// reuses the cached triple. The cache is bounded: a long-lived Model
	// serving arbitrary per-request durations would otherwise accumulate one
	// factorization per distinct step size forever, so once maxCNOps entries
	// exist the oldest insertion is evicted. On the sparse backend all step
	// sizes share one symbolic analysis (cnSym): the CN left matrix has
	// exactly the conductance pattern for every h, so only the numeric
	// factorization reruns and transients scale with nnz rather than size².
	cnMu    sync.Mutex
	cnOps   map[float64]*cnOp
	cnOrder []float64 // insertion order of cnOps keys, for eviction
	cnSym   *linalg.CholSymbolic
}

// maxCNOps bounds the cached Crank–Nicolson operator pairs per Model. A pair
// costs O(size²) memory on the dense backend (two triangular factors) and
// O(nnz(L)) on the sparse one, so the bound keeps a long-lived Model's
// footprint fixed while still covering every step size a realistic workload
// cycles through (a run touches at most two: the main step and a fractional
// tail).
const maxCNOps = 16

// cnOp is the cached Crank–Nicolson operator pair for one step size h:
// the factorized left matrix A = C/h + G/2 and the sparse right matrix
// B = C/h − G/2.
type cnOp struct {
	solver spdSolver
	b      *linalg.Sparse
}

// NewModel builds the RC network for fp in the given package. The spreader
// must be at least as large as the die.
func NewModel(fp *floorplan.Floorplan, cfg PackageConfig) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	die := fp.Die()
	if cfg.SpreaderSide < die.W-geom.Eps || cfg.SpreaderSide < die.H-geom.Eps {
		return nil, fmt.Errorf("%w: spreader side %g m smaller than die %g×%g m",
			ErrModel, cfg.SpreaderSide, die.W, die.H)
	}
	m := &Model{
		fp:   fp,
		adj:  floorplan.NewAdjacency(fp),
		cfg:  cfg,
		n:    fp.NumBlocks(),
		size: 2*fp.NumBlocks() + 2,
	}
	m.assemble()
	// The assembled matrix is SPD by construction; failure here means a
	// degenerate floorplan (e.g. zero-area blocks slipped past validation)
	// and is reported, not panicked, to keep the CLI usable.
	if denseBlocks(m.n) {
		m.g = m.gs.Dense()
		ch, err := linalg.NewCholesky(m.g)
		if err != nil {
			return nil, fmt.Errorf("%w: conductance matrix not SPD: %v", ErrModel, err)
		}
		m.solver = ch
	} else {
		ch, err := linalg.NewSparseCholesky(m.gs)
		if err != nil {
			return nil, fmt.Errorf("%w: conductance matrix not SPD: %v", ErrModel, err)
		}
		m.solver = ch
		// The CN left matrices share the conductance pattern (MapValues keeps
		// the index slices), so the transient cache reuses this symbolic
		// analysis instead of re-ordering the same graph on first use.
		m.cnSym = ch.Symbolic()
	}
	return m, nil
}

// SolverBackendForBlocks reports the backend NewModel picks for numBlocks
// blocks, without building the model: "dense-cholesky" up to the node
// cutoff, "sparse-cholesky" past it. Callers that content-address oracle
// answers (internal/oraclestore) use this to derive a system's store key
// before paying for the model.
func SolverBackendForBlocks(numBlocks int) string {
	if denseBlocks(numBlocks) {
		return "dense-cholesky"
	}
	return "sparse-cholesky"
}

// denseBlocks reports whether a model over numBlocks blocks — 2n+2 nodes —
// factors with the dense backend.
func denseBlocks(numBlocks int) bool { return 2*numBlocks+2 <= sparseNodeCutoff }

// spreaderNode returns the node index of the spreader cell under block i.
func (m *Model) spreaderNode(i int) int { return m.n + i }

// rimNode returns the spreader-rim node index.
func (m *Model) rimNode() int { return 2 * m.n }

// sinkNode returns the heat-sink node index.
func (m *Model) sinkNode() int { return 2*m.n + 1 }

// assemble builds the conductance matrix (sparsely — the graph has O(n)
// edges) and the capacitance vector.
func (m *Model) assemble() {
	cfg := m.cfg
	die := m.fp.Die()
	gm := linalg.NewSparseBuilder(m.size)
	caps := make([]float64, m.size)

	rimArea := cfg.SpreaderSide*cfg.SpreaderSide - die.W*die.H
	if rimArea < 1e-9 { // spreader == die: keep a sliver so the node is tied in
		rimArea = 1e-9
	}

	for i := 0; i < m.n; i++ {
		blk := m.fp.Block(i)
		area := blk.Area()

		// Lateral silicon conduction to each neighbour. Each pair is visited
		// twice (i→j and j→i), so insert half the conductance per visit.
		for _, nb := range m.adj.Neighbors(i) {
			g := cfg.KSilicon * cfg.DieThickness * nb.SharedLen / nb.PathLen
			gm.AddConductance(i, nb.Index, g/2)
		}

		// Vertical: silicon node → spreader node through half the die, the
		// TIM, and half the spreader thickness.
		rVert := cfg.DieThickness/(2*cfg.KSilicon*area) +
			cfg.TIMThickness/(cfg.KTIM*area) +
			cfg.SpreaderThickness/(2*cfg.KSpreader*area)
		gm.AddConductance(i, m.spreaderNode(i), 1/rVert)

		// Lateral spreader conduction mirrors the silicon adjacency with the
		// spreader's own conductivity and thickness.
		for _, nb := range m.adj.Neighbors(i) {
			g := cfg.KSpreader * cfg.SpreaderThickness * nb.SharedLen / nb.PathLen
			gm.AddConductance(m.spreaderNode(i), m.spreaderNode(nb.Index), g/2)
		}

		// Boundary blocks feed the spreader rim through their die-edge
		// contact segments.
		for _, rc := range m.adj.Rim(i) {
			overhang := m.overhang(rc.Side)
			if overhang <= geom.Eps {
				continue
			}
			path := m.distToDieEdge(blk.Rect, rc.Side) + overhang/2
			g := cfg.KSpreader * cfg.SpreaderThickness * rc.Len / path
			gm.AddConductance(m.spreaderNode(i), m.rimNode(), g)
		}

		// Spreader node → sink node through the remaining spreader half and
		// half the sink base.
		rDown := cfg.SpreaderThickness/(2*cfg.KSpreader*area) +
			cfg.SinkThickness/(2*cfg.KSink*area)
		gm.AddConductance(m.spreaderNode(i), m.sinkNode(), 1/rDown)

		// Heat capacities: silicon block plus half the TIM above it; the
		// spreader cell takes the other TIM half.
		caps[i] = cfg.CSilicon*area*cfg.DieThickness + cfg.CTIM*area*cfg.TIMThickness/2
		caps[m.spreaderNode(i)] = cfg.CSpreader*area*cfg.SpreaderThickness +
			cfg.CTIM*area*cfg.TIMThickness/2
	}

	// Rim → sink.
	rRim := cfg.SpreaderThickness/(2*cfg.KSpreader*rimArea) +
		cfg.SinkThickness/(2*cfg.KSink*rimArea)
	gm.AddConductance(m.rimNode(), m.sinkNode(), 1/rRim)
	caps[m.rimNode()] = cfg.CSpreader * rimArea * cfg.SpreaderThickness

	// Sink → ambient convection.
	gm.AddGround(m.sinkNode(), 1/cfg.ConvectionR)
	caps[m.sinkNode()] = cfg.CSink*cfg.SpreaderSide*cfg.SpreaderSide*cfg.SinkThickness +
		cfg.ConvectionC

	m.gs = gm.Build()
	m.diag = m.gs.Diagonal()
	m.caps = caps
}

// cnOpFor returns the Crank–Nicolson operator pair for step size h, building
// and caching it on first use. Safe for concurrent callers.
func (m *Model) cnOpFor(h float64) (*cnOp, error) {
	m.cnMu.Lock()
	defer m.cnMu.Unlock()
	if op, ok := m.cnOps[h]; ok {
		return op, nil
	}
	// Left matrix A = C/h + G/2 (factorized once per step size); right matrix
	// B = C/h − G/2 (sparse, multiplied every step). Both derive from the
	// conductance pattern via MapValues — every node has a non-zero diagonal
	// (at least one conductance or ground tie), so the C/h term lands on a
	// stored entry.
	bs := m.gs.MapValues(func(i, j int, v float64) float64 {
		if i == j {
			return m.caps[i]/h - v/2
		}
		return -v / 2
	})
	var solver spdSolver
	if m.g != nil {
		// Dense backend: expand A and factorize densely.
		a := linalg.NewSquare(m.size)
		for i := 0; i < m.size; i++ {
			cols, vals := m.gs.RowNZ(i)
			arow := a.Row(i)
			for k, j := range cols {
				arow[j] = vals[k] / 2
			}
			arow[i] += m.caps[i] / h
		}
		ch, err := linalg.NewCholesky(a)
		if err != nil {
			return nil, fmt.Errorf("thermal: CN matrix not SPD: %w", err)
		}
		solver = ch
	} else {
		// Sparse backend: A has the conductance pattern for every h, so all
		// step sizes share one symbolic analysis and only the numeric
		// factorization reruns.
		as := m.gs.MapValues(func(i, j int, v float64) float64 {
			if i == j {
				return m.caps[i]/h + v/2
			}
			return v / 2
		})
		if m.cnSym == nil {
			sym, err := linalg.NewCholSymbolic(as, nil)
			if err != nil {
				return nil, fmt.Errorf("thermal: CN matrix not SPD: %w", err)
			}
			m.cnSym = sym
		}
		ch, err := m.cnSym.Factorize(as)
		if err != nil {
			return nil, fmt.Errorf("thermal: CN matrix not SPD: %w", err)
		}
		solver = ch
	}
	op := &cnOp{solver: solver, b: bs}
	if m.cnOps == nil {
		m.cnOps = make(map[float64]*cnOp)
	}
	if len(m.cnOps) >= maxCNOps {
		delete(m.cnOps, m.cnOrder[0])
		m.cnOrder = m.cnOrder[1:]
	}
	m.cnOps[h] = op
	m.cnOrder = append(m.cnOrder, h)
	return op, nil
}

// overhang returns how far the spreader extends beyond the die on the given
// side.
func (m *Model) overhang(side geom.Side) float64 {
	die := m.fp.Die()
	switch side {
	case geom.SideEast, geom.SideWest:
		return (m.cfg.SpreaderSide - die.W) / 2
	case geom.SideNorth, geom.SideSouth:
		return (m.cfg.SpreaderSide - die.H) / 2
	default:
		return 0
	}
}

// distToDieEdge returns the distance from the block centre to the die edge on
// the given side.
func (m *Model) distToDieEdge(r geom.Rect, side geom.Side) float64 {
	die := m.fp.Die()
	c := r.Center()
	switch side {
	case geom.SideEast:
		return die.MaxX() - c.X
	case geom.SideWest:
		return c.X - die.X
	case geom.SideNorth:
		return die.MaxY() - c.Y
	case geom.SideSouth:
		return c.Y - die.Y
	default:
		return math.Inf(1)
	}
}

// Floorplan returns the floorplan the model was built from.
func (m *Model) Floorplan() *floorplan.Floorplan { return m.fp }

// Adjacency returns the lateral adjacency graph (shared with the model;
// treat as read-only).
func (m *Model) Adjacency() *floorplan.Adjacency { return m.adj }

// Config returns the package configuration.
func (m *Model) Config() PackageConfig { return m.cfg }

// NumBlocks returns the number of silicon blocks.
func (m *Model) NumBlocks() int { return m.n }

// NumNodes returns the total node count of the RC network.
func (m *Model) NumNodes() int { return m.size }

// expandPower pads a per-block power vector to the full node vector.
func (m *Model) expandPower(power []float64) ([]float64, error) {
	full := make([]float64, m.size)
	if err := m.expandPowerInto(full, power); err != nil {
		return nil, err
	}
	return full, nil
}

// expandPowerInto validates power and writes the padded node vector into
// full, which must have length NumNodes. No allocations.
func (m *Model) expandPowerInto(full, power []float64) error {
	if len(power) != m.n {
		return fmt.Errorf("%w: got %d entries, floorplan has %d blocks",
			ErrPowerShape, len(power), m.n)
	}
	if len(full) != m.size {
		return fmt.Errorf("%w: node buffer has %d entries, model has %d nodes",
			ErrPowerShape, len(full), m.size)
	}
	for i, p := range power {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("%w: power[%d] = %g, must be finite and >= 0",
				ErrPowerShape, i, p)
		}
		full[i] = p
	}
	for i := m.n; i < m.size; i++ {
		full[i] = 0
	}
	return nil
}
