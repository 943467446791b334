package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/conc"
	"repro/internal/power"
	"repro/internal/thermal"
)

// Oracle is the "accurate thermal simulation" of Algorithm 1: given the set
// of concurrently tested cores, it returns a slice indexed by block whose
// entries at the active cores are their steady-state temperatures (°C).
// Entries outside active are unspecified — the grid oracle leaves them NaN,
// the sparse block model solves only what the active cores need — so
// callers read only active entries, as the paper's safety test does: a
// session is safe when its hottest active core stays below TL. The
// generator treats the oracle as expensive and minimises calls to it; the
// session model exists precisely to avoid invoking it blindly.
//
// Implementations must be deterministic and safe for concurrent use: batch
// paths fan single queries out across goroutines, and the experiment sweeps
// and the schedule service share one oracle across concurrent generators.
// The production implementation is SimOracle; tests substitute cheap fakes.
// A returned slice, single or batched, belongs to the oracle stack: other
// callers may get the same slice (the memo and store tiers hand hits out by
// reference), and nobody may write to it.
type Oracle interface {
	BlockTemps(active []int) ([]float64, error)
}

// BatchOracle is the optional batching extension of Oracle: simulate several
// sessions in one call. The generator's phase 1 hands its n solo sessions
// over in one call, so a cache tier can answer its hits in place and forward
// only the misses, and the leaf oracles fan those out across GOMAXPROCS
// goroutines. Every result must be bit-identical to the corresponding
// BlockTemps call at the active entries, so callers may mix the two paths
// freely. A batch error need not name the failing session: callers that need
// exact serial error semantics fall back to per-session BlockTemps (the
// oracle is deterministic, so the error resurfaces at the same session).
type BatchOracle interface {
	Oracle
	BlockTempsBatch(sessions [][]int) ([][]float64, error)
}

// sweepBlockTemps answers a batch by fanning single queries out across
// GOMAXPROCS goroutines (serially at GOMAXPROCS=1): the batch path of the
// leaf oracles whose sessions share no solve work, and the fallback of every
// wrapper whose inner oracle has no batch path. Results come back in index
// order, and a failure reports the lowest-index error, as a loop would.
func sweepBlockTemps(o Oracle, sessions [][]int) ([][]float64, error) {
	return conc.Sweep(runtime.GOMAXPROCS(0), len(sessions), func(i int) ([]float64, error) {
		return o.BlockTemps(sessions[i])
	})
}

// SimOracle answers oracle queries with the full RC thermal model, injecting
// each active core's test power and zero power into passive cores (the
// paper's passive-cores-idle assumption).
//
// The solve goes through Model.SteadyStateInto with pooled node buffers, so
// a query's only allocation is the returned block-temperature slice — the
// cache-miss path of a hot sweep no longer churns full node vectors.
type SimOracle struct {
	model   *thermal.Model
	profile *power.Profile
	scratch sync.Pool // *simScratch
}

// simScratch is one query's reusable buffers: the full node temperature
// vector and the per-block power map.
type simScratch struct {
	temps []float64
	pm    []float64
}

// NewSimOracle binds a thermal model and a power profile. Both must share a
// floorplan; this is checked at first use via the power-map shape.
func NewSimOracle(m *thermal.Model, prof *power.Profile) *SimOracle {
	o := &SimOracle{model: m, profile: prof}
	o.scratch.New = func() any {
		return &simScratch{
			temps: make([]float64, m.NumNodes()),
			pm:    make([]float64, m.NumBlocks()),
		}
	}
	return o
}

// BlockTemps implements Oracle. The power map's support is exactly the
// active set, so sparse-backend models solve over the elimination-tree
// closure of the active cores (SteadyStateActiveInto) — bit-identical to the
// dense-RHS path at the active cores, cheaper when few cores are active.
func (o *SimOracle) BlockTemps(active []int) ([]float64, error) {
	sc := o.scratch.Get().(*simScratch)
	if err := o.profile.TestPowerMapInto(sc.pm, active); err != nil {
		o.scratch.Put(sc)
		return nil, err
	}
	if err := o.model.SteadyStateActiveInto(sc.temps, sc.pm, active); err != nil {
		o.scratch.Put(sc)
		return nil, err
	}
	out := make([]float64, o.model.NumBlocks())
	copy(out, sc.temps[:o.model.NumBlocks()])
	o.scratch.Put(sc)
	return out, nil
}

// BlockTempsBatch implements BatchOracle. Each session is one independent
// block-model solve, so the batch fans out across GOMAXPROCS goroutines;
// only the misses of a memo above reach it, so this is where a cold
// generator's phase 1 runs in parallel.
func (o *SimOracle) BlockTempsBatch(sessions [][]int) ([][]float64, error) {
	return sweepBlockTemps(o, sessions)
}

// LazyOracle defers building its inner oracle to the first query: exactly
// one goroutine runs the builder while concurrent callers wait, and a build
// error is sticky (builders are deterministic, retrying would repeat it).
// It exists for oracles whose construction dominates start-up — a
// grid-resolution model's sparse factorization — so a caller that never
// queries (e.g. a fully warm persistent cache sitting above) never pays it.
type LazyOracle struct {
	once  sync.Once
	build func() (Oracle, error)
	inner Oracle
	err   error
	built atomic.Bool
}

// NewLazyOracle wraps a deterministic oracle builder.
func NewLazyOracle(build func() (Oracle, error)) *LazyOracle {
	return &LazyOracle{build: build}
}

// init runs the builder exactly once and records that construction was paid.
func (l *LazyOracle) init() {
	l.once.Do(func() {
		l.inner, l.err = l.build()
		l.built.Store(true)
	})
}

// Built reports whether the inner oracle has been constructed (i.e. at least
// one query fell through to it). A warm cache sitting above a LazyOracle that
// answers everything itself leaves Built false — which is how callers assert
// "this run paid zero factorizations".
func (l *LazyOracle) Built() bool { return l.built.Load() }

// Inner returns the constructed oracle, or nil while unbuilt (or after a
// build error). It never triggers construction itself, so metrics exporters
// can inspect live oracles without forcing a factorization.
func (l *LazyOracle) Inner() Oracle {
	if !l.built.Load() {
		return nil
	}
	return l.inner
}

// BlockTemps implements Oracle.
func (l *LazyOracle) BlockTemps(active []int) ([]float64, error) {
	l.init()
	if l.err != nil {
		return nil, l.err
	}
	return l.inner.BlockTemps(active)
}

// BlockTempsBatch implements BatchOracle, delegating to the inner oracle's
// batch path when it has one.
func (l *LazyOracle) BlockTempsBatch(sessions [][]int) ([][]float64, error) {
	l.init()
	if l.err != nil {
		return nil, l.err
	}
	if b, ok := l.inner.(BatchOracle); ok {
		return b.BlockTempsBatch(sessions)
	}
	return sweepBlockTemps(l.inner, sessions)
}

var (
	_ BatchOracle = (*SimOracle)(nil)
	_ BatchOracle = (*LazyOracle)(nil)
)
