package thermal

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/linalg"
)

// gridFactorKey is exactly what assemble and buildSolver read, as exact bits:
// two grid models under the default budget with equal keys assemble
// bit-identical matrices and factor them identically, so they can share one
// factor. The capacitances and
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
	once  sync.Once
	sys   *linalg.Sparse
	chol  *linalg.SparseCholesky
	stats GridFactorStats
	err   error
	refs  int // guarded by sharedFactors.mu
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

// release drops the hold, idempotently. The last holder evicts the entry
// and closes the factor, which removes its spill file if it spilled.
func (r *factorRef) release() (err error) {
	r.once.Do(func() {
		sharedFactors.mu.Lock()
		r.f.refs--
		last := r.f.refs == 0
		if last && sharedFactors.m[r.key] == r.f {
			delete(sharedFactors.m, r.key)
		}
		sharedFactors.mu.Unlock()
		if last && r.f.err == nil {
			err = r.f.chol.Close()
		}
	})
	return err
}

// shareSolver gives g the factor of key k, building it (assembly, ordering,
// symbolic analysis, supernode partition, numeric factorization) only when no
// live model holds it. A build error is not kept: the next model with this
// key builds afresh.
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
		f.sys, f.chol, f.stats = g.sys, g.chol, g.stats
	})
	ref := &factorRef{key: k, f: f}
	if f.err != nil {
		ref.release()
		return f.err
	}
	g.share = ref
	runtime.AddCleanup(g, func(r *factorRef) { r.release() }, ref)
	g.sys, g.chol, g.stats = f.sys, f.chol, f.stats
	if !built {
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
