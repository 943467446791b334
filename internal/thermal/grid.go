package thermal

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/floorplan"
	"repro/internal/linalg"
)

// defaultPeakBudget is the peak-bytes budget of a model whose
// GridOptions.PeakBytesBudget is 0: 2 GiB. It sits above the out-of-core
// floor (factor row indices plus frontal scratch) of every grid up to
// 1024×1024 (1.65 GiB there), so those grids spill rather than waive it,
// and grids up to about 800×800 (1.87 GiB in core) factor fully in core.
// It is a variable only so in-package tests can make small grids spill.
var defaultPeakBudget int64 = 2 << 30

// GridOptions tunes the grid model's solver construction. The model always
// factors under the geometric nested-dissection ordering with the supernodal
// panel kernel; these options bound its memory. No option changes an answer's
// bits: the budget and the spill knobs select bit-identical execution
// strategies of the one factor.
type GridOptions struct {
	// PeakBytesBudget caps the resident bytes the factorization may hold
	// (indices + resident panel values + frontal scratch); 0 or a negative
	// value means the default of 2 GiB. The factor is built in core when the
	// in-core bytes fit, and otherwise out of core, spilling finished panels
	// to SpillDir and streaming them back per solve — bit-identical to
	// in-core. A budget below even the out-of-core floor is waived: the
	// factor is built in core and FactorStats reports SpillDegraded.
	PeakBytesBudget int64
	// SpillDir is where spilled panel files live ("" = the OS temp dir).
	// Files are unlinked at creation where the platform allows, so crashes
	// leak no disk.
	SpillDir string
	// SpillFS overrides the spill filesystem seam (nil = real filesystem);
	// tests inject fault-raising wrappers through it. It is part of the
	// shared-factor key, so its dynamic type must be comparable: an empty
	// struct or a pointer wrapper, as every seam in the repository is.
	SpillFS linalg.SpillFS
}

// GridModel is the fine-grained counterpart of the block Model: the die is
// discretised into a regular nx×ny cell grid (HotSpot's "grid mode"),
// resolving intra-block temperature gradients that the block model averages
// away. It exists to validate the block model — the two are independent
// discretisations of the same package — and for visualising temperature
// fields.
//
// The steady-state backend is a sparse Cholesky factored once at
// construction — under the geometric nested-dissection ordering, with the
// supernodal factorization kernel, out of core when the peak-bytes budget
// (GridOptions.PeakBytesBudget, 2 GiB by default) demands it — so every
// SteadyState query costs two sparse triangular solves on its one
// right-hand side, the backward one advancing two independent elimination
// subtrees at once; ActiveBlockMax restricts both solves to the
// elimination-tree closure of the active power footprint and reads only the
// active blocks' hottest cells; that is what makes per-session oracle sweeps
// over one floorplan cheap at grid scale.
// Many queries fan out as concurrent solves against the one factor.
// GridModel is safe for concurrent queries.
//
// The conductance matrix depends only on the package stack's conductances
// and geometry, the die's width and height and the resolution — never on the
// block layout or the ambient. So every live model whose matrix bits and
// GridOptions match shares one process-wide factor, built once even under
// concurrent construction (FactorStats().Shared). The shared factor lives
// while some model holds it; Close, or a cleanup when the model is dropped,
// releases the hold, and the last release closes the factor with its spill
// file, if it spilled.
//
// Node layout for nc = nx·ny cells: [0, nc) silicon, [nc, 2nc) spreader,
// 2nc rim, 2nc+1 sink; ambient is the eliminated ground.
type GridModel struct {
	fp     *floorplan.Floorplan
	cfg    PackageConfig
	nx, ny int
	cellW  float64
	cellH  float64
	nnz    int // of the assembled matrix
	stats  GridFactorStats
	share  *factorRef // hold on the process-wide factor
	chol   *linalg.SparseCholesky

	// cellPowerWeight[b] lists (cell, fraction) pairs: fraction of block
	// b's power deposited in that cell.
	cellPowerWeight [][]cellShare
	// blockCells[b] lists the cells overlapping block b (for read-back).
	blockCells [][]int
}

type cellShare struct {
	cell int
	frac float64
}

// NewGridModel discretises fp's die into an nx×ny grid under cfg with
// default solver options (nested-dissection ordering, the default peak-bytes
// budget).
func NewGridModel(fp *floorplan.Floorplan, cfg PackageConfig, nx, ny int) (*GridModel, error) {
	return NewGridModelWithOptions(fp, cfg, nx, ny, GridOptions{})
}

// NewGridModelWithOptions discretises fp's die into an nx×ny grid under cfg
// with explicit solver options.
func NewGridModelWithOptions(fp *floorplan.Floorplan, cfg PackageConfig, nx, ny int, opts GridOptions) (*GridModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nx < 2 || ny < 2 {
		return nil, fmt.Errorf("%w: grid %d×%d too small (need >= 2×2)", ErrModel, nx, ny)
	}
	die := fp.Die()
	if cfg.SpreaderSide < die.W || cfg.SpreaderSide < die.H {
		return nil, fmt.Errorf("%w: spreader smaller than die", ErrModel)
	}
	g := &GridModel{
		fp:    fp,
		cfg:   cfg,
		nx:    nx,
		ny:    ny,
		cellW: die.W / float64(nx),
		cellH: die.H / float64(ny),
	}
	g.mapBlocks()
	if err := g.shareSolver(newGridFactorKey(cfg, die.W, die.H, nx, ny, opts)); err != nil {
		return nil, err
	}
	return g, nil
}

// supportPool holds ActiveBlockMax's right-hand-side support lists
// (*[]int). Every model shares it, so the model of a never-seen system
// reuses the lists earlier models grew instead of growing its own.
var supportPool = sync.Pool{New: func() any { return new([]int) }}

// ndPerm is the geometric nested-dissection elimination order for the known
// two-layer grid topology: recursive coordinate bisection over the nx×ny
// cell mesh with the silicon and spreader copy of each separator cell
// eliminated together, then the rim and sink hubs last (they couple to every
// boundary / every spreader cell respectively, so eliminating either earlier
// would fill an entire factor row).
func (g *GridModel) ndPerm() []int {
	perm := linalg.NestedDissectionGrid(g.nx, g.ny, 2)
	return append(perm, g.rimNode(), g.sinkNode())
}

// buildSolver factorizes the assembled system sys once under the geometric
// nested-dissection ordering with the supernodal panel kernel. The symbolic
// analysis predicts the exact in-core bytes, and the peak-bytes budget alone
// decides between an in-core and an out-of-core factor. opts has its budget
// resolved (newGridFactorKey).
func (g *GridModel) buildSolver(sys *linalg.Sparse, opts GridOptions) error {
	sym, err := linalg.NewCholSymbolic(sys, g.ndPerm())
	if err != nil {
		return fmt.Errorf("%w: grid system not SPD: %v", ErrModel, err)
	}
	ss := sym.Supernodes()
	start := time.Now() // numeric factorization only — symbolic and partition excluded
	inCore := int64(sym.LNNZ())*16 + ss.WorkspaceBytes()
	var ch *linalg.SparseCholesky
	if inCore > opts.PeakBytesBudget {
		// The in-core working set exceeds the peak-bytes budget: factor
		// out of core, spilling finished panels to disk.
		ch, err = ss.FactorizeSpill(sys, linalg.SpillPolicy{
			BudgetBytes: opts.PeakBytesBudget,
			Dir:         opts.SpillDir,
			FS:          opts.SpillFS,
		})
		if errors.Is(err, linalg.ErrSpill) || errors.Is(err, linalg.ErrPeakBudget) {
			// Spill I/O failed before the factor completed (the breaker
			// covers write failures; this is e.g. an unreadable reload), or
			// no out-of-core schedule fits (indices + scratch alone exceed
			// the budget): availability over budget — factor fully in core.
			ch, err = ss.Factorize(sys)
			g.stats.SpillDegraded = true
		}
	} else {
		ch, err = ss.Factorize(sys)
	}
	if err != nil {
		return fmt.Errorf("%w: grid system not SPD: %v", ErrModel, err)
	}
	st := ch.SpillStats()
	g.stats.Panels = ss.Panels()
	g.stats.MaxPanelWidth = ss.MaxPanelWidth()
	g.stats.PaddedZeros = ss.PaddedZeros()
	g.stats.PeakFactorBytes = inCore
	g.stats.PeakResidentBytes = inCore
	if st.SpilledPanels > 0 || st.Degraded {
		g.stats.PeakResidentBytes = st.PeakResidentBytes
		g.stats.SpilledPanels = st.SpilledPanels
		g.stats.SpilledBytes = st.SpilledBytes
		g.stats.SpillDegraded = g.stats.SpillDegraded || st.Degraded
	}
	g.chol = ch
	g.stats.Mode = "supernodal"
	g.stats.FactorNNZ = sym.LNNZ()
	g.stats.FactorTime = time.Since(start)
	return nil
}

// SolverBackend names the steady-state backend: "sparse-cholesky", in core
// or out of core alike.
func (g *GridModel) SolverBackend() string { return "sparse-cholesky" }

// GridFactorStats describes the one-time factorization cost behind a grid
// model's direct backend — the construction-side numbers the benchmarks and
// the service /metrics endpoint share a vocabulary for.
type GridFactorStats struct {
	// Mode is the kernel that built the factor: "supernodal".
	Mode string
	// FactorTime is the numeric factorization alone (ordering, symbolic
	// analysis and supernode partition excluded), so it times the kernel.
	// It is 0 when Shared: this model did no numeric work.
	FactorTime time.Duration
	// Shared reports that the model reuses the factor another live model
	// with a bit-identical matrix built; the remaining fields describe that
	// shared factor.
	Shared bool
	// FactorNNZ is the factor's non-zero count.
	FactorNNZ int
	// Panels, MaxPanelWidth and PaddedZeros describe the supernode
	// partition.
	Panels        int
	MaxPanelWidth int
	PaddedZeros   int64
	// PeakFactorBytes is the resident factor (row indices + values) plus the
	// per-worker frontal workspace the supernodal kernel holds transiently —
	// what a fully in-core factorization costs.
	PeakFactorBytes int64
	// PeakResidentBytes is what the factorization actually held resident:
	// equal to PeakFactorBytes in core, and at most the peak-bytes budget
	// (the 2 GiB default when none is set) when the out-of-core path spilled
	// (unless degraded).
	PeakResidentBytes int64
	// SpilledPanels / SpilledBytes count the factor panels written to the
	// spill file during an out-of-core factorization (zero in core).
	SpilledPanels int
	SpilledBytes  int64
	// SpillDegraded reports that the factor completed fully in core with the
	// budget waived: spill I/O failures forced the breaker, or the budget
	// was below the out-of-core floor (index arrays plus frontal scratch).
	SpillDegraded bool
}

// FactorStats returns the factorization cost profile recorded at
// construction.
func (g *GridModel) FactorStats() GridFactorStats { return g.stats }

// Close releases this model's hold on its shared factor; the factor and its
// spill file, if it spilled, are freed with the last holder. It is
// idempotent and must not race in-flight queries. Models dropped without
// Close are covered by a cleanup, but long-lived servers that evict systems
// should call it promptly.
func (g *GridModel) Close() error { return g.share.release() }

// FactorNNZ returns the non-zero count of the cached Cholesky factor.
func (g *GridModel) FactorNNZ() int { return g.chol.NNZ() }

// NNZ returns the non-zero count of the assembled conductance matrix.
func (g *GridModel) NNZ() int { return g.nnz }

// NumNodes returns the total node count (silicon + spreader + rim + sink).
func (g *GridModel) NumNodes() int { return 2*g.numCells() + 2 }

// cellID maps grid coordinates to the silicon node index.
func (g *GridModel) cellID(x, y int) int { return y*g.nx + x }

func (g *GridModel) numCells() int { return g.nx * g.ny }
func (g *GridModel) rimNode() int  { return 2 * g.numCells() }
func (g *GridModel) sinkNode() int { return 2*g.numCells() + 1 }

// cellRect returns the geometry of cell (x, y) in die coordinates.
func (g *GridModel) cellRect(x, y int) (x0, y0, x1, y1 float64) {
	die := g.fp.Die()
	return die.X + float64(x)*g.cellW, die.Y + float64(y)*g.cellH,
		die.X + float64(x+1)*g.cellW, die.Y + float64(y+1)*g.cellH
}

// mapBlocks computes the block→cell coverage fractions, testing only the
// cells of each block's bounding box, widened by one cell against rounding.
func (g *GridModel) mapBlocks() {
	n := g.fp.NumBlocks()
	g.cellPowerWeight = make([][]cellShare, n)
	g.blockCells = make([][]int, n)
	die := g.fp.Die()
	for b := 0; b < n; b++ {
		r := g.fp.Block(b).Rect
		area := r.Area()
		x0, x1 := max(int((r.X-die.X)/g.cellW)-1, 0), min(int((r.MaxX()-die.X)/g.cellW)+2, g.nx)
		y0, y1 := max(int((r.Y-die.Y)/g.cellH)-1, 0), min(int((r.MaxY()-die.Y)/g.cellH)+2, g.ny)
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				cx0, cy0, cx1, cy1 := g.cellRect(x, y)
				ox := math.Min(cx1, r.MaxX()) - math.Max(cx0, r.X)
				oy := math.Min(cy1, r.MaxY()) - math.Max(cy0, r.Y)
				if ox <= 0 || oy <= 0 {
					continue
				}
				overlap := ox * oy
				id := g.cellID(x, y)
				g.cellPowerWeight[b] = append(g.cellPowerWeight[b], cellShare{id, overlap / area})
				g.blockCells[b] = append(g.blockCells[b], id)
			}
		}
	}
}

// assemble builds the sparse conductance matrix.
func (g *GridModel) assemble() *linalg.Sparse {
	cfg := g.cfg
	die := g.fp.Die()
	nc := g.numCells()
	b := linalg.NewSparseBuilder(2*nc + 2)
	cellArea := g.cellW * g.cellH

	// Lateral conductances within silicon and spreader layers.
	gxSi := cfg.KSilicon * cfg.DieThickness * g.cellH / g.cellW
	gySi := cfg.KSilicon * cfg.DieThickness * g.cellW / g.cellH
	gxSp := cfg.KSpreader * cfg.SpreaderThickness * g.cellH / g.cellW
	gySp := cfg.KSpreader * cfg.SpreaderThickness * g.cellW / g.cellH

	rVert := cfg.DieThickness/(2*cfg.KSilicon*cellArea) +
		cfg.TIMThickness/(cfg.KTIM*cellArea) +
		cfg.SpreaderThickness/(2*cfg.KSpreader*cellArea)
	rDown := cfg.SpreaderThickness/(2*cfg.KSpreader*cellArea) +
		cfg.SinkThickness/(2*cfg.KSink*cellArea)

	overhangX := (cfg.SpreaderSide - die.W) / 2
	overhangY := (cfg.SpreaderSide - die.H) / 2

	for y := 0; y < g.ny; y++ {
		for x := 0; x < g.nx; x++ {
			id := g.cellID(x, y)
			sp := nc + id
			if x+1 < g.nx {
				b.AddConductance(id, g.cellID(x+1, y), gxSi)
				b.AddConductance(sp, nc+g.cellID(x+1, y), gxSp)
			}
			if y+1 < g.ny {
				b.AddConductance(id, g.cellID(x, y+1), gySi)
				b.AddConductance(sp, nc+g.cellID(x, y+1), gySp)
			}
			b.AddConductance(id, sp, 1/rVert)
			b.AddConductance(sp, g.sinkNode(), 1/rDown)

			// Boundary spreader cells feed the rim.
			if x == 0 || x == g.nx-1 {
				if overhangX > 1e-9 {
					path := g.cellW/2 + overhangX/2
					b.AddConductance(sp, g.rimNode(), cfg.KSpreader*cfg.SpreaderThickness*g.cellH/path)
				}
			}
			if y == 0 || y == g.ny-1 {
				if overhangY > 1e-9 {
					path := g.cellH/2 + overhangY/2
					b.AddConductance(sp, g.rimNode(), cfg.KSpreader*cfg.SpreaderThickness*g.cellW/path)
				}
			}
		}
	}

	rimArea := cfg.SpreaderSide*cfg.SpreaderSide - die.W*die.H
	if rimArea < 1e-9 {
		rimArea = 1e-9
	}
	rRim := cfg.SpreaderThickness/(2*cfg.KSpreader*rimArea) +
		cfg.SinkThickness/(2*cfg.KSink*rimArea)
	b.AddConductance(g.rimNode(), g.sinkNode(), 1/rRim)
	b.AddGround(g.sinkNode(), 1/cfg.ConvectionR)

	return b.Build()
}

// depositPower zeroes rhs (length NumNodes) and deposits each block's power
// uniformly over its silicon footprint — the one right-hand-side assembly
// SteadyState and ActiveBlockMax share.
func (g *GridModel) depositPower(rhs, power []float64) error {
	for i := range rhs {
		rhs[i] = 0
	}
	for bi, p := range power {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("%w: power[%d] = %g", ErrPowerShape, bi, p)
		}
		for _, cs := range g.cellPowerWeight[bi] {
			rhs[cs.cell] += p * cs.frac
		}
	}
	return nil
}

// GridResult is the steady-state field of a grid solve.
type GridResult struct {
	model *GridModel
	temps []float64 // full node vector, °C
}

// SteadyState solves the grid for a per-block power map (W). Block power is
// deposited uniformly over the block footprint. The factorization built at
// construction is reused, so a query costs two sparse triangular solves. The
// backward solve
// interleaves pairs of disjoint nested-dissection subtrees, bit-identical to
// a plain column loop. Scratch vectors are pooled, leaving the returned
// temperature field as the only allocation.
func (g *GridModel) SteadyState(power []float64) (*GridResult, error) {
	if len(power) != g.fp.NumBlocks() {
		return nil, fmt.Errorf("%w: got %d entries, floorplan has %d blocks",
			ErrPowerShape, len(power), g.fp.NumBlocks())
	}
	rhsPool := &g.share.f.rhsPool
	rhsP := rhsPool.Get().(*[]float64)
	rhs := *rhsP
	if err := g.depositPower(rhs, power); err != nil {
		rhsPool.Put(rhsP)
		return nil, err
	}
	temps := make([]float64, len(rhs))
	err := g.chol.SolveInto(temps, rhs)
	rhsPool.Put(rhsP)
	if err != nil {
		return nil, fmt.Errorf("thermal: grid solve: %w", err)
	}
	for i := range temps {
		temps[i] += g.cfg.Ambient
	}
	return &GridResult{model: g, temps: temps}, nil
}

// ActiveBlockMax solves the grid for a power map whose only non-zero entries
// are the blocks in active — Algorithm 1's validation query — and writes
// each active block's hottest cell (°C) into dst[b], leaving the rest of dst
// as it was. Both triangular solves run in place in a pooled node vector,
// over the elimination-tree closure of the active cells alone
// (SolveSparseInto), so the query allocates nothing. dst[b] is bit-identical
// to SteadyState(power).BlockMaxTemp(b). Blocks outside active must carry
// zero power; active may repeat a block.
func (g *GridModel) ActiveBlockMax(dst, power []float64, active []int) error {
	nb := g.fp.NumBlocks()
	if len(power) != nb || len(dst) != nb {
		return fmt.Errorf("%w: got %d power and %d result entries, floorplan has %d blocks",
			ErrPowerShape, len(power), len(dst), nb)
	}
	for _, b := range active {
		if b < 0 || b >= nb {
			return fmt.Errorf("%w: active block %d outside [0,%d)", ErrPowerShape, b, nb)
		}
	}
	rhsPool := &g.share.f.rhsPool
	rhsP := rhsPool.Get().(*[]float64)
	defer rhsPool.Put(rhsP)
	rhs := *rhsP
	if err := g.depositPower(rhs, power); err != nil {
		return err
	}
	nzP := supportPool.Get().(*[]int)
	nz := (*nzP)[:0]
	for _, b := range active {
		nz = append(nz, g.blockCells[b]...)
	}
	err := g.chol.SolveSparseInto(rhs, rhs, nz)
	*nzP = nz
	supportPool.Put(nzP)
	if err != nil {
		return fmt.Errorf("thermal: grid solve: %w", err)
	}
	for _, b := range active {
		mx := math.Inf(-1)
		for _, id := range g.blockCells[b] {
			mx = max(mx, rhs[id]+g.cfg.Ambient)
		}
		dst[b] = mx
	}
	return nil
}

// Floorplan returns the discretised floorplan.
func (g *GridModel) Floorplan() *floorplan.Floorplan { return g.fp }

// CellTemp returns the silicon temperature of cell (x, y) (°C).
func (r *GridResult) CellTemp(x, y int) float64 {
	return r.temps[r.model.cellID(x, y)]
}

// BlockMaxTemp returns the hottest silicon cell overlapping block b (°C) —
// the grid-resolution analogue of a block model's BlockTemps entry. The
// read-back folds with the builtin max, which the compiler inlines (math.Max
// is an assembly call on amd64). The two agree on every ±0 and ±Inf; a NaN cell
// makes the result NaN, where math.Max would let a +Inf cell win. A finite
// solve produces neither.
func (r *GridResult) BlockMaxTemp(b int) float64 {
	mx := math.Inf(-1)
	for _, id := range r.model.blockCells[b] {
		mx = max(mx, r.temps[id])
	}
	return mx
}

// MaxTemp returns the hottest silicon cell on the die (°C), folded like
// BlockMaxTemp.
func (r *GridResult) MaxTemp() float64 {
	mx := math.Inf(-1)
	for _, t := range r.temps[:r.model.numCells()] {
		mx = max(mx, t)
	}
	return mx
}

// Heatmap renders the silicon temperature field as ASCII art, hottest cells
// darkest, with a temperature legend. Rows are printed north to south so the
// picture matches the floorplan orientation. The legend's extremes fold with
// the builtin min and max, as in BlockMaxTemp.
func (r *GridResult) Heatmap() string {
	glyphs := []byte(" .:-=+*#%@")
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, t := range r.temps[:r.model.numCells()] {
		mn = min(mn, t)
		mx = max(mx, t)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "die temperature field %.2f–%.2f °C (cell %d×%d)\n",
		mn, mx, r.model.nx, r.model.ny)
	for y := r.model.ny - 1; y >= 0; y-- {
		for x := 0; x < r.model.nx; x++ {
			t := r.CellTemp(x, y)
			k := 0
			if mx > mn {
				k = int((t - mn) / (mx - mn) * float64(len(glyphs)-1))
			}
			sb.WriteByte(glyphs[k])
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "legend: '%c' = %.1f °C … '%c' = %.1f °C\n",
		glyphs[0], mn, glyphs[len(glyphs)-1], mx)
	return sb.String()
}
