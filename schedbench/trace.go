package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/oraclestore"
	"repro/internal/schedule"
	"repro/internal/server"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

// span times one oracle boundary from outside: calls, sessions asked, and
// the wall time during which at least one call was in progress (so the
// parallel phase-1 fan-out is not double counted). It forwards
// BlockTempsBatch: hiding the batch path would silently switch the
// generator's batched validation off and measure a different program.
type span struct {
	inner core.BatchOracle

	mu       sync.Mutex
	active   int
	since    time.Time
	covered  time.Duration
	calls    int64
	sessions int64
}

// spanSnap is a point-in-time read of a span's counters.
type spanSnap struct {
	covered         time.Duration
	calls, sessions int64
}

func (a spanSnap) sub(b spanSnap) spanSnap {
	return spanSnap{a.covered - b.covered, a.calls - b.calls, a.sessions - b.sessions}
}

func newSpan(o core.Oracle) (*span, error) {
	b, ok := o.(core.BatchOracle)
	if !ok {
		return nil, fmt.Errorf("%T has no batch path", o)
	}
	return &span{inner: b}, nil
}

func (s *span) enter(sessions int) {
	s.mu.Lock()
	if s.active == 0 {
		s.since = time.Now()
	}
	s.active++
	s.calls++
	s.sessions += int64(sessions)
	s.mu.Unlock()
}

func (s *span) exit() {
	s.mu.Lock()
	s.active--
	if s.active == 0 {
		s.covered += time.Since(s.since)
	}
	s.mu.Unlock()
}

func (s *span) snap() spanSnap {
	s.mu.Lock()
	defer s.mu.Unlock()
	return spanSnap{s.covered, s.calls, s.sessions}
}

// BlockTemps implements core.Oracle.
func (s *span) BlockTemps(active []int) ([]float64, error) {
	s.enter(1)
	defer s.exit()
	return s.inner.BlockTemps(active)
}

// BlockTempsBatch implements core.BatchOracle.
func (s *span) BlockTempsBatch(sessions [][]int) ([][]float64, error) {
	s.enter(len(sessions))
	defer s.exit()
	return s.inner.BlockTempsBatch(sessions)
}

// layerSample is the per-layer record of one replayed request; the traced
// run writes them all out at the end.
type layerSample struct {
	Op      int    `json:"op"`
	Problem string `json:"problem"`
	// Server side, from the untraced request the replay mirrors.
	ServerGenerateMS float64 `json:"server_generate_ms"`
	// Replica: generator wall, its phases, and the generator's self time
	// (wall minus the time some oracle call was in progress).
	GenerateMS float64 `json:"generate_ms"`
	Phase1MS   float64 `json:"phase1_ms"`
	Phase2MS   float64 `json:"phase2_ms"`
	SelfMS     float64 `json:"self_ms"`
	Attempts   int     `json:"attempts"`
	Violations int     `json:"violations"`
	// Validated counts the sessions whose answers the generator consumed
	// (phase-1 solos plus attempts); Solved the sessions the innermost
	// oracle solved.
	Validated int64 `json:"validated"`
	Solved    int64 `json:"solved"`
	// Memo tier (core.CachedOracle): self time and traffic.
	MemoMS     float64 `json:"memo_ms"`
	MemoHits   int64   `json:"memo_hits"`
	MemoMisses int64   `json:"memo_misses"`
	// Store tier (oraclestore): open (when this request opened the system),
	// self time and traffic.
	Opened        bool    `json:"opened,omitempty"`
	OpenMS        float64 `json:"open_ms,omitempty"`
	LoadedRecords int     `json:"loaded_records,omitempty"`
	ReadBytes     int64   `json:"read_bytes,omitempty"`
	StoreMS       float64 `json:"store_ms"`
	StoreHits     int64   `json:"store_hits"`
	StoreMisses   int64   `json:"store_misses"`
	AppendBytes   int64   `json:"append_bytes"`
	// Thermal: the grid build (when this request paid it) and the solves.
	GridBuilt   bool    `json:"grid_built,omitempty"`
	GridBuildMS float64 `json:"grid_build_ms,omitempty"`
	NumericMS   float64 `json:"numeric_ms,omitempty"`
	FactorNNZ   int     `json:"factor_nnz,omitempty"`
	PeakFactorB int64   `json:"peak_factor_bytes,omitempty"`
	SolveCalls  int64   `json:"solve_calls"`
	SolveMS     float64 `json:"solve_ms"`
}

// tracedSystem is the replica of one live system, built from the public
// constructors the service uses, with a span at every oracle boundary:
// generator → [gen span] → memo → [store span] → store → [sim span] → model.
type tracedSystem struct {
	spec  *testspec.Spec
	sm    *core.SessionModel
	key   [32]byte
	cache *oraclestore.SystemCache
	memo  *core.CachedOracle
	store *span
	sim   *span
	lazy  *core.LazyOracle // grid systems only

	// Filled by the lazy grid build; read after the generation that paid it.
	mu         sync.Mutex
	buildDur   time.Duration
	factor     thermal.GridFactorStats
	buildTaken bool

	// Set when the system was opened, reported by the first request.
	openDur   time.Duration
	loaded    int
	readBytes int64
	opened    bool
}

// tracer replays each request on a replica stack and checks that it
// reproduces the service's answer and counts.
type tracer struct {
	store *oraclestore.Store // nil for store-restart, which opens per op

	mu      sync.Mutex
	systems map[[32]byte]*tracedSystem
}

// newTracer builds the replica's own store and warms it with the set-up
// problems, exactly as set-up warmed the service.
func newTracer(dir string, b *bench) (*tracer, error) {
	t := &tracer{systems: make(map[[32]byte]*tracedSystem)}
	if b.kind == storeRestart {
		return t, nil
	}
	st, err := oraclestore.Open(dir)
	if err != nil {
		return nil, err
	}
	t.store = st
	for _, pi := range b.plan.warm {
		p := b.plan.problems[pi]
		ts, err := t.system(st, p)
		if err != nil {
			return nil, err
		}
		_, res, err := t.generate(ts, p)
		if err != nil {
			return nil, err
		}
		if err := b.chk.checkDigest(p, digest(replicaResult(p, ts, res))); err != nil {
			return nil, fmt.Errorf("replica: %w", err)
		}
	}
	return t, nil
}

// forget drops the replica systems (their store files stay open in the
// replica's store, as the service's do).
func (t *tracer) forget() {
	t.mu.Lock()
	t.systems = make(map[[32]byte]*tracedSystem)
	t.mu.Unlock()
}

func (t *tracer) close() {
	if t.store != nil {
		t.store.Close()
	}
}

// replicaPackage mirrors the service's package overlay for the one field the
// benchmark's requests set.
func replicaPackage(ps *server.PackageSpec) (thermal.PackageConfig, error) {
	cfg := thermal.DefaultPackageConfig()
	if ps == nil {
		return cfg, nil
	}
	if (*ps != server.PackageSpec{Ambient: ps.Ambient}) {
		return cfg, errors.New("replica supports only the ambient_celsius package override")
	}
	if ps.Ambient != 0 {
		cfg.Ambient = ps.Ambient
	}
	return cfg, nil
}

// system returns the replica of p's system, building it (and opening its
// store file in st) on first use.
func (t *tracer) system(st *oraclestore.Store, p *problem) (*tracedSystem, error) {
	pkg, err := replicaPackage(p.req.Package)
	if err != nil {
		return nil, err
	}
	spec, n := p.spec, p.req.GridRes
	var desc oraclestore.SystemDesc
	if n > 0 {
		desc = oraclestore.DescForGrid(spec.Floorplan(), pkg, spec.Profile(), n, n, thermal.GridOptions{})
	} else {
		desc = oraclestore.DescForBlockModel(spec.Floorplan(), pkg, spec.Profile())
	}
	key, err := desc.Key()
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ts, ok := t.systems[key]; ok {
		return ts, nil
	}
	m, err := thermal.NewModel(spec.Floorplan(), pkg)
	if err != nil {
		return nil, err
	}
	sm, err := core.NewSessionModel(m, spec.Profile(), 0)
	if err != nil {
		return nil, err
	}
	ts := &tracedSystem{spec: spec, sm: sm, key: key}
	var inner core.Oracle = core.NewSimOracle(m, spec.Profile())
	if n > 0 {
		ts.lazy = core.NewLazyOracle(func() (core.Oracle, error) {
			start := time.Now()
			gm, err := thermal.NewGridModelWithOptions(spec.Floorplan(), pkg, n, n, thermal.GridOptions{})
			if err != nil {
				return nil, err
			}
			ts.mu.Lock()
			ts.buildDur, ts.factor = time.Since(start), gm.FactorStats()
			ts.mu.Unlock()
			return core.NewGridOracle(gm, spec.Profile()), nil
		})
		inner = ts.lazy
	}
	if ts.sim, err = newSpan(inner); err != nil {
		return nil, err
	}
	start := time.Now()
	if ts.cache, err = st.System(desc); err != nil {
		return nil, err
	}
	ts.openDur, ts.loaded, ts.readBytes, ts.opened = time.Since(start), ts.cache.Loaded(), ts.cache.SizeBytes(), true
	if ts.store, err = newSpan(ts.cache.Wrap(ts.sim)); err != nil {
		return nil, err
	}
	ts.memo = core.NewCachedOracle(ts.store)
	t.systems[key] = ts
	return ts, nil
}

// generate runs the generator on the replica with the service's settings
// and measures every layer boundary.
func (t *tracer) generate(ts *tracedSystem, p *problem) (layerSample, *core.Result, error) {
	ls := layerSample{Problem: p.label}
	gen, err := newSpan(ts.memo)
	if err != nil {
		return ls, nil, err
	}
	cfg := core.Config{
		TL:            p.req.TL,
		STCL:          p.req.STCL,
		WeightGrowth:  p.req.WeightGrowth,
		AutoRaiseTL:   p.req.AutoRaiseTL,
		MaxAttempts:   p.req.MaxAttempts,
		BatchValidate: p.req.GridRes > 0, // as the service's Env does
	}
	var phase1 time.Time
	cfg.Progress = func(pi core.ProgressInfo) {
		if pi.Phase == 1 {
			phase1 = time.Now()
		}
	}
	mh0, mm0 := ts.memo.Stats()
	sh0, sm0 := ts.cache.Stats()
	st0, si0 := ts.store.snap(), ts.sim.snap()
	var app0 int64
	if t.store != nil {
		app0 = t.store.AppendedBytes()
	}

	start := time.Now()
	res, err := core.Generate(ts.spec, ts.sm, gen, cfg)
	wall := time.Since(start)
	if err != nil {
		return ls, nil, fmt.Errorf("%s: replica: %w", p.label, err)
	}

	g := gen.snap()
	st, si := ts.store.snap().sub(st0), ts.sim.snap().sub(si0)
	mh1, mm1 := ts.memo.Stats()
	sh1, sm1 := ts.cache.Stats()
	ls.GenerateMS = ms(wall)
	ls.Phase1MS = ms(phase1.Sub(start))
	ls.Phase2MS = ms(wall - phase1.Sub(start))
	ls.SelfMS = ms(wall - g.covered)
	ls.Attempts, ls.Violations = res.Attempts, res.Violations
	ls.Validated = int64(res.Attempts + ts.spec.NumCores())
	ls.Solved = si.sessions
	ls.MemoMS = ms(g.covered - st.covered)
	ls.MemoHits, ls.MemoMisses = mh1-mh0, mm1-mm0
	ls.StoreMS = ms(st.covered - si.covered)
	ls.StoreHits, ls.StoreMisses = sh1-sh0, sm1-sm0
	if t.store != nil {
		ls.AppendBytes = t.store.AppendedBytes() - app0
	}
	solve := si.covered
	ts.mu.Lock()
	if ts.lazy != nil && ts.lazy.Built() && !ts.buildTaken {
		ts.buildTaken = true
		ls.GridBuilt = true
		ls.GridBuildMS = ms(ts.buildDur)
		ls.NumericMS = ms(ts.factor.FactorTime)
		ls.FactorNNZ = ts.factor.FactorNNZ
		ls.PeakFactorB = ts.factor.PeakFactorBytes
		solve -= ts.buildDur // the build ran inside the first inner call
	}
	if ts.opened {
		ts.opened = false
		ls.Opened, ls.OpenMS, ls.LoadedRecords, ls.ReadBytes = true, ms(ts.openDur), ts.loaded, ts.readBytes
	}
	ts.mu.Unlock()
	ls.SolveCalls, ls.SolveMS = si.calls, ms(solve)
	return ls, res, nil
}

// replicaResult assembles the result section the service would return for
// a replica run.
func replicaResult(p *problem, ts *tracedSystem, res *core.Result) server.ScheduleResult {
	r := server.ScheduleResult{
		Workload:         p.spec.Name(),
		Cores:            p.spec.NumCores(),
		TL:               p.req.TL,
		STCL:             p.req.STCL,
		EffectiveTL:      res.EffectiveTL,
		GridRes:          p.req.GridRes,
		Length:           res.Length,
		Effort:           res.Effort,
		MaxTemp:          res.MaxTemp,
		Attempts:         res.Attempts,
		Violations:       res.Violations,
		ForcedSingletons: res.ForcedSingletons,
		Schedule:         schedule.Format(res.Schedule, p.spec),
		SystemKey:        fmt.Sprintf("%x", ts.key),
	}
	for _, sess := range res.Schedule.Sessions() {
		r.Sessions = append(r.Sessions, sess.Names(p.spec))
	}
	return r
}

// replay mirrors one answered request on the replica (opened in st) and
// checks that it reproduces the answer's digest and its attempt, miss and
// factorization counts exactly.
func (t *tracer) replay(st *oraclestore.Store, opIdx int, p *problem, resp *server.ScheduleResponse) (layerSample, error) {
	ts, err := t.system(st, p)
	if err != nil {
		return layerSample{}, err
	}
	ls, res, err := t.generate(ts, p)
	if err != nil {
		return ls, err
	}
	ls.Op, ls.ServerGenerateMS = opIdx, resp.Timing.GenerateMS
	built := ts.lazy != nil && ts.lazy.Built()
	switch {
	case digest(replicaResult(p, ts, res)) != digest(resp.Result):
		return ls, fmt.Errorf("%s: replica result differs from the service's", p.label)
	case ls.MemoMisses != resp.Cache.Tier1Misses || ls.StoreMisses != resp.Cache.Tier2Misses:
		return ls, fmt.Errorf("%s: replica misses %d/%d, service %d/%d", p.label,
			ls.MemoMisses, ls.StoreMisses, resp.Cache.Tier1Misses, resp.Cache.Tier2Misses)
	case built != resp.Cache.GridFactorized:
		return ls, fmt.Errorf("%s: replica grid_factorized %v, service %v", p.label, built, resp.Cache.GridFactorized)
	}
	return ls, nil
}

// replayRestart mirrors one store-restart op: open the filled store afresh,
// replay the row, close.
func (t *tracer) replayRestart(dir string, opIdx int, ps []*problem, resps []*server.ScheduleResponse) ([]layerSample, error) {
	start := time.Now()
	st, err := oraclestore.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	storeOpen := time.Since(start)
	t.forget() // a restart starts cold
	var out []layerSample
	for i, p := range ps {
		ls, err := t.replay(st, opIdx, p, resps[i])
		if ls.Opened {
			ls.OpenMS += ms(storeOpen)
		}
		out = append(out, ls)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// writeSamples writes every replayed request's layer record as JSON.
func writeSamples(path string, recs []opRecord) error {
	var all []layerSample
	for _, r := range recs {
		all = append(all, r.layers...)
	}
	raw, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
