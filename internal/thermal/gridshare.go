package thermal

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/linalg"
)

// gridFactorKey is exactly what assemble and buildSolver read, as exact bits:
// two in-core grid models with equal keys assemble bit-identical matrices and
// factor them identically, so they can share one factor. The capacitances and
// Ambient are absent on purpose: the steady state never reads the former, and
// ambient is added after the solve. Block layout enters only mapBlocks.
type gridFactorKey struct {
	pkg        [10]uint64 // math.Float64bits of the conductance/geometry fields
	dieW, dieH uint64
	nx, ny     int
	panelWidth int // the host's default panel width, so FactorStats match it
}

// newGridFactorKey keys an unbudgeted grid model's matrix and factor.
func newGridFactorKey(cfg PackageConfig, dieW, dieH float64, nx, ny int) gridFactorKey {
	k := gridFactorKey{
		dieW:       math.Float64bits(dieW),
		dieH:       math.Float64bits(dieH),
		nx:         nx,
		ny:         ny,
		panelWidth: linalg.DefaultPanelWidth(0),
	}
	for i, v := range [...]float64{
		cfg.DieThickness, cfg.KSilicon, cfg.TIMThickness, cfg.KTIM,
		cfg.SpreaderSide, cfg.SpreaderThickness, cfg.KSpreader,
		cfg.SinkThickness, cfg.KSink, cfg.ConvectionR,
	} {
		k.pkg[i] = math.Float64bits(v)
	}
	return k
}

// sharedFactor is one process-wide assembled matrix and its factor, held by
// every live GridModel with the same key. once makes concurrent cold builds
// of one key factor exactly once without a global lock across the build.
type sharedFactor struct {
	once    sync.Once
	sys     *linalg.Sparse
	chol    *linalg.SparseCholesky
	precond *linalg.IC0
	stats   GridFactorStats
	err     error
	refs    int // guarded by sharedFactors.mu
}

// sharedFactors maps each key to its resident factor. An entry lives only
// while some GridModel holds a factorRef to it.
var sharedFactors = struct {
	mu sync.Mutex
	m  map[gridFactorKey]*sharedFactor
}{m: map[gridFactorKey]*sharedFactor{}}

// factorRef is one GridModel's hold on a shared factor.
type factorRef struct {
	key  gridFactorKey
	f    *sharedFactor
	once sync.Once
}

// release drops the hold, idempotently, and evicts the entry with its last
// holder.
func (r *factorRef) release() {
	r.once.Do(func() {
		sharedFactors.mu.Lock()
		defer sharedFactors.mu.Unlock()
		if r.f.refs--; r.f.refs == 0 && sharedFactors.m[r.key] == r.f {
			delete(sharedFactors.m, r.key)
		}
	})
}

// shareSolver gives g the factor of key k, building it (assembly, ordering,
// symbolic analysis, supernode partition, numeric factorization) only when no
// live model holds it. A build error or a CG fallback is not kept: the next
// model with this key builds afresh.
func (g *GridModel) shareSolver(k gridFactorKey) error {
	sharedFactors.mu.Lock()
	f := sharedFactors.m[k]
	if f == nil {
		f = &sharedFactor{}
		sharedFactors.m[k] = f
	}
	f.refs++
	sharedFactors.mu.Unlock()

	built := false
	f.once.Do(func() {
		built = true
		g.assemble()
		f.err = g.buildSolver()
		f.sys, f.chol, f.precond, f.stats = g.sys, g.chol, g.precond, g.stats
	})
	ref := &factorRef{key: k, f: f}
	if f.chol == nil {
		ref.release()
	} else {
		g.share = ref
		runtime.AddCleanup(g, (*factorRef).release, ref)
	}
	if f.err != nil {
		return f.err
	}
	g.sys, g.chol, g.precond, g.stats = f.sys, f.chol, f.precond, f.stats
	if !built && g.chol != nil {
		g.stats.Shared = true
		g.stats.FactorTime = 0
	}
	return nil
}

// LiveGridFactors returns the number of distinct grid factors resident in
// the process (builds in flight included). Models with the same package
// stack, die size, resolution and solver options count once.
func LiveGridFactors() int {
	sharedFactors.mu.Lock()
	defer sharedFactors.mu.Unlock()
	return len(sharedFactors.m)
}
