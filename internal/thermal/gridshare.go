package thermal

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/linalg"
)

// gridFactorKey is exactly what assemble and buildSolver read, as exact bits:
// two grid models with equal keys assemble bit-identical matrices and factor
// them identically, so they can share one factor. The capacitances and
// Ambient are absent on purpose: the steady state never reads the former, and
// ambient is added after the solve. Block layout enters only mapBlocks.
type gridFactorKey struct {
	pkg        [10]uint64 // math.Float64bits of the conductance/geometry fields
	dieW, dieH uint64
	nx, ny     int
	opts       GridOptions // budget resolved: 0 or negative is the default
}

// newGridFactorKey keys a grid model's matrix and factor.
func newGridFactorKey(cfg PackageConfig, dieW, dieH float64, nx, ny int, opts GridOptions) gridFactorKey {
	if opts.PeakBytesBudget <= 0 {
		opts.PeakBytesBudget = defaultPeakBudget
	}
	k := gridFactorKey{
		dieW: math.Float64bits(dieW),
		dieH: math.Float64bits(dieH),
		nx:   nx,
		ny:   ny,
		opts: opts,
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

// sharedFactor is one process-wide factor, held by every live GridModel
// with the same key. once makes concurrent cold builds of one key factor
// exactly once without a global lock across the build. rhsPool holds the
// node-vector scratch of its holders' solves, so a new model on a live
// factor reuses vectors earlier models grew.
type sharedFactor struct {
	once    sync.Once
	nnz     int // of the assembled matrix, dropped once factored
	chol    *linalg.SparseCholesky
	stats   GridFactorStats
	err     error
	refs    int       // guarded by sharedFactors.mu
	rhsPool sync.Pool // *[]float64 of NumNodes entries
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

// release drops the hold, idempotently. The last holder evicts the entry,
// closes the factor (removing its spill file, if any) and clears the entry's
// pointer, which the models' cleanups would otherwise keep reachable. Then it
// starts one collection in the background, or a heap goal set while the
// factor was live stands until garbage outgrows it. It does not wait for
// it: the server releases under its map lock.
func (r *factorRef) release() (err error) {
	r.once.Do(func() {
		sharedFactors.mu.Lock()
		r.f.refs--
		last := r.f.refs == 0
		if last && sharedFactors.m[r.key] == r.f {
			delete(sharedFactors.m, r.key)
		}
		sharedFactors.mu.Unlock()
		if !last {
			return
		}
		if r.f.err == nil {
			err = r.f.chol.Close()
			r.f.chol = nil
		}
		go runtime.GC()
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
		size := g.NumNodes()
		f.rhsPool.New = func() any {
			b := make([]float64, size)
			return &b
		}
		sharedFactors.m[k] = f
	}
	f.refs++
	sharedFactors.mu.Unlock()

	built := false
	f.once.Do(func() {
		built = true
		sys := g.assemble()
		f.err = g.buildSolver(sys, k.opts)
		f.nnz, f.chol, f.stats = sys.NNZ(), g.chol, g.stats
	})
	ref := &factorRef{key: k, f: f}
	if f.err != nil {
		ref.release()
		return f.err
	}
	g.share = ref
	runtime.AddCleanup(g, func(r *factorRef) { r.release() }, ref)
	g.nnz, g.chol, g.stats = f.nnz, f.chol, f.stats
	if !built {
		g.stats.Shared = true
		g.stats.FactorTime = 0
	}
	return nil
}

// LiveGridFactors returns the number of distinct grid factors resident in
// the process (builds in flight included). Models with the same package
// stack, die size, resolution and GridOptions count once.
func LiveGridFactors() int {
	sharedFactors.mu.Lock()
	defer sharedFactors.mu.Unlock()
	return len(sharedFactors.m)
}
