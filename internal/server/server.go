// Package server is the streaming schedule service: a long-lived HTTP/JSON
// front end over the scheduling engine and its warm oracle tiers. Each
// distinct thermal system a request names becomes a live environment — block
// and session models plus the two-tier (in-memory memo + persistent
// content-addressed store) validation-oracle cache — keyed by the
// oraclestore content address, so repeated and concurrent requests for the
// same system answer from warm state instead of re-simulating. One bounded
// worker pool (internal/conc.Pool) is shared across all requests, keeping
// total simulation parallelism fixed under concurrent load, and the
// persistent store is held to a byte budget by file-level LRU eviction,
// which also drops the corresponding live systems.
//
// Fault tolerance. The service admits rather than accumulates: each request
// carries a deadline (server default, overridable per request) that covers
// queueing and generation, the worker pool bounds how many requests may wait
// (beyond it requests are shed with 429 + Retry-After), and the live system
// map is bounded by LRU-dropping idle systems. The persistent store degrades
// instead of failing: disk errors are retried with backoff, persistent
// failure trips a circuit breaker and the store serves memory-only until a
// probe succeeds — /healthz reports "degraded" with the breaker state while
// warm requests keep answering byte-identically.
//
// Endpoints:
//
//	POST   /v1/schedule          scheduling problem in, thermal-safe schedule out
//	POST   /v1/jobs              the same problem as an async job: 202 + job id
//	GET    /v1/jobs/{id}         job state; the schedule response once done
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET    /v1/jobs/{id}/events  job state and progress as Server-Sent Events
//	GET    /v1/systems           warm systems and store statistics
//	GET    /healthz              readiness: ok|degraded, breaker state, queue occupancy
//	GET    /metrics              Prometheus text: requests, latency, tiers, shedding, breaker, jobs
package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/oraclestore"
	"repro/internal/oraclestore/remote"
	"repro/internal/schedule"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

// maxBodyBytes bounds request bodies; floorplan + spec texts are small.
const maxBodyBytes = 4 << 20

// Config parameterises a Server.
type Config struct {
	// CacheDir roots the persistent oracle store; empty serves from memory
	// only.
	CacheDir string
	// StoreBudget caps the store directory in bytes via file-level LRU
	// eviction after each request; 0 means unbounded. Ignored without
	// CacheDir.
	StoreBudget int64
	// Workers bounds concurrent schedule generations; 0 → GOMAXPROCS.
	Workers int
	// QueueDepth bounds how many schedule requests may wait for a worker
	// beyond the ones running; requests beyond the bound are shed immediately
	// with 429 + Retry-After. 0 → 1024 (generous; shedding still kicks in
	// under a genuine pile-up); negative → unbounded (never shed).
	QueueDepth int
	// MaxSystems bounds the live system map: past it, the least recently
	// used *idle* systems are dropped (their store files stay on disk, so a
	// re-request warm-starts from tier 2). 0 → unbounded. Systems with
	// requests in flight are never dropped, so the bound is soft under
	// concurrent distinct-system load.
	MaxSystems int
	// DefaultDeadline bounds each schedule request's total time in the
	// service — queue wait plus generation; 0 → none. Requests may override
	// it with the X-Request-Deadline header or the deadline_ms body field.
	DefaultDeadline time.Duration
	// JobsJournal is the async-job journal file; empty defaults to
	// CacheDir/jobs.wal when CacheDir is set, else jobs are tracked in memory
	// only (no resume across restarts).
	JobsJournal string
	// MaxJobs bounds concurrently tracked non-terminal async jobs; beyond it
	// POST /v1/jobs sheds with 429. 0 → 1024.
	MaxJobs int
	// Grid tunes every grid-resolution system the server builds: its memory
	// discipline (PeakBytesBudget caps the resident factorization working
	// set, 2 GiB when zero; SpillDir roots the out-of-core panel files).
	// Grid systems that differ only in block layout or ambient share one
	// factor under any options. The zero value is the default.
	Grid thermal.GridOptions
	// Logf receives one line per served request; nil disables logging.
	Logf func(format string, args ...any)

	// StoreNodes lists thermstore node addresses; the CacheDir store shards
	// reads and writes across them by content address (tier 3): opened
	// systems read through the cluster, and freshly simulated records are
	// pushed behind each request. Requires CacheDir. A dead node degrades
	// that key range to local-only — requests never error because of it.
	StoreNodes []string
	// StoreRemote injects a ready-made remote tier instead of dialing
	// StoreNodes (tests use in-process nodes); it wins over StoreNodes.
	StoreRemote oraclestore.RemoteTier
	// StoreFS injects a filesystem seam under the persistent store (tests use
	// a faultfs.FaultFS); nil selects the real filesystem.
	StoreFS oraclestore.FS
	// StoreRetry / StoreBreaker tune the store's append retries and circuit
	// breaker; zero values select the production defaults.
	StoreRetry   oraclestore.RetryPolicy
	StoreBreaker oraclestore.BreakerPolicy
}

// Server answers schedule requests from warm oracle tiers. Create with New,
// mount Handler on an http.Server, Close when done.
type Server struct {
	cfg   Config
	store *oraclestore.Store
	pool  *conc.Pool
	met   *metrics
	jobs  *jobs.Manager

	// jobsWG tracks every runJob goroutine; drainMu orders new job admission
	// against Drain flipping the draining flag, so Drain's Wait cannot race a
	// late jobsWG.Add.
	jobsWG   sync.WaitGroup
	drainMu  sync.Mutex
	draining atomic.Bool

	mu sync.Mutex
	// systems keys live environments by system key: the oraclestore content
	// address of the validation oracle, extended with the per-core test
	// lengths (two specs may share oracle answers — same physics — while
	// needing distinct schedules).
	systems map[[32]byte]*systemEntry
	// bodies is the body layer in front of the request index: it maps the
	// exact bytes of an accepted request body to what they resolved to, so
	// a byte-identical repeat skips the JSON decode and resolveProblem. The
	// map hashes and compares the whole key, so a hit is an exact byte
	// match. Live systems keep the entries, at most maxBodyBytes of bodies
	// each (keepBodyLocked), and the entries leave with them
	// (removeSystemLocked).
	bodies map[string]*accepted
	// index maps a request's system fields to the entry they last resolved
	// to; a body-layer miss looks its system up here. The map hashes and
	// compares the whole key, so a hit is an exact match of every field.
	// Each live system owns at most one entry, which leaves with it
	// (removeSystemLocked). A body-layer hit counts as an index hit.
	index                  map[systemFields]*indexEntry
	indexHits, indexMisses atomic.Int64

	// evictSeen is the Store.AppendedBytes value at the last budget check:
	// when nothing new has been persisted since, the post-request eviction
	// skips its directory walk, keeping warm requests O(1).
	evictSeen atomic.Int64

	// pushSeen plays the same role for the write-behind push to the store
	// cluster: warm requests append nothing, so they skip the push entirely.
	pushSeen atomic.Int64

	// Admission-control counters; shed must equal the number of 429s clients
	// observed (asserted by the chaos tests).
	shed           atomic.Int64
	dlQueued       atomic.Int64 // deadline expired while waiting for a worker
	dlGenerating   atomic.Int64 // deadline expired mid-generation
	systemsDropped atomic.Int64 // idle systems LRU-dropped by MaxSystems
}

// systemEntry is one live system. The environment is built at most once, by
// the first request to need it; concurrent cold requests for the same system
// wait on the same build. env and err are written under the server mu (the
// sync.Once alone would not order them against the map iterations of
// /v1/systems, /metrics and maybeEvict, which run while a build is still in
// flight).
type systemEntry struct {
	once sync.Once
	bld  func() (*experiments.Env, error)
	env  *experiments.Env // guarded by Server.mu for cross-entry readers
	err  error            // guarded by Server.mu for cross-entry readers

	oracleKey [32]byte
	name      string
	cores     int
	gridRes   int
	lastUse   time.Time   // guarded by the server mu
	inflight  int         // requests currently using this system; guarded by the server mu
	ix        *indexEntry // the request-index entry this system owns; guarded by the server mu
	bodies    []*accepted // the body-layer entries this system keeps, oldest first; guarded by the server mu
	bodyBytes int         // the total length of those bodies; guarded by the server mu
}

// systemFields are the request fields that define a system: the request
// index's key. The strings compare byte for byte; pkg compares with ==, which
// is a bit comparison here because packageConfig never yields -0 or NaN.
type systemFields struct {
	workload, name, floorplan, testSpec string
	pkg                                 thermal.PackageConfig
	gridRes                             int
}

// indexEntry is what one request's system fields resolved to. It is
// immutable and shared by every request that hits it: testspec.Spec and the
// floorplan and power profile it holds expose no mutators after parsing.
type indexEntry struct {
	systemFields
	spec              *testspec.Spec
	mapKey, oracleKey [32]byte
}

// defaultQueueDepth is the admission bound when Config.QueueDepth is 0:
// deep enough that bursty-but-bounded test traffic never sheds, shallow
// enough that a genuine pile-up turns into fast 429s instead of thousands of
// blocked goroutines.
const defaultQueueDepth = 1024

// New builds a Server, opening the persistent store when configured.
func New(cfg Config) (*Server, error) {
	queueDepth := cfg.QueueDepth
	if queueDepth == 0 {
		queueDepth = defaultQueueDepth
	}
	s := &Server{
		cfg:     cfg,
		pool:    conc.NewQueuedPool(cfg.Workers, queueDepth),
		met:     newMetrics(),
		systems: make(map[[32]byte]*systemEntry),
		bodies:  make(map[string]*accepted),
		index:   make(map[systemFields]*indexEntry),
	}
	if len(cfg.StoreNodes) > 0 && cfg.CacheDir == "" {
		return nil, fmt.Errorf("server: StoreNodes requires CacheDir (the sharded tier backs a local store)")
	}
	if cfg.CacheDir != "" {
		rt := cfg.StoreRemote
		if rt == nil && len(cfg.StoreNodes) > 0 {
			client, err := remote.NewClient(cfg.StoreNodes, remote.ClientOptions{Breaker: cfg.StoreBreaker})
			if err != nil {
				return nil, fmt.Errorf("server: store cluster: %w", err)
			}
			rt = client
		}
		store, err := oraclestore.OpenWithOptions(cfg.CacheDir, oraclestore.StoreOptions{
			FS:      cfg.StoreFS,
			Retry:   cfg.StoreRetry,
			Breaker: cfg.StoreBreaker,
			Remote:  rt,
		})
		if err != nil {
			return nil, fmt.Errorf("server: opening oracle store: %w", err)
		}
		s.store = store
		if cfg.StoreBudget > 0 {
			// Enforce the budget against whatever a previous process left.
			if _, err := store.Evict(cfg.StoreBudget); err != nil {
				store.Close()
				return nil, fmt.Errorf("server: initial eviction: %w", err)
			}
		}
	}

	journal := cfg.JobsJournal
	if journal == "" && cfg.CacheDir != "" {
		journal = filepath.Join(cfg.CacheDir, "jobs.wal")
	}
	jm, err := jobs.Open(jobs.Config{
		Path:    journal,
		FS:      cfg.StoreFS,
		Retry:   cfg.StoreRetry,
		Breaker: cfg.StoreBreaker,
		Logf:    cfg.Logf,
	})
	if err != nil {
		if s.store != nil {
			s.store.Close()
		}
		return nil, fmt.Errorf("server: opening job journal: %w", err)
	}
	s.jobs = jm
	// Re-queue every job the journal left unfinished (a crash or drain
	// interrupted them). They regenerate warm: everything their previous run
	// simulated is already in the store, so the resume replays tier-2 hits
	// instead of re-simulating.
	for _, j := range jm.Resumable() {
		jm.Requeue(j)
		s.jobsWG.Add(1)
		go s.runJob(j)
	}
	return s, nil
}

// Close closes the job journal and releases the persistent store. In-memory
// systems keep answering if the handler is still mounted, but nothing
// persists afterwards. Call Drain first for a graceful shutdown; Close alone
// leaves running jobs' final transitions unjournaled.
func (s *Server) Close() error {
	err := s.jobs.Close()
	if s.store != nil {
		if serr := s.store.Close(); err == nil {
			err = serr
		}
	}
	return err
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/schedule", s.instrument("/v1/schedule",
		route{http.MethodPost, s.handleSchedule}))
	mux.HandleFunc("/v1/systems", s.instrument("/v1/systems",
		route{http.MethodGet, s.handleSystems}))
	mux.HandleFunc("/v1/jobs", s.instrument("/v1/jobs",
		route{http.MethodPost, s.handleJobSubmit}))
	// The jobs subtree dispatches on the path shape: /v1/jobs/{id} and
	// /v1/jobs/{id}/events, instrumented under those stable labels so the
	// metrics cardinality stays bounded.
	jobStatus := s.instrument("/v1/jobs/{id}",
		route{http.MethodGet, s.handleJobGet}, route{http.MethodDelete, s.handleJobDelete})
	jobEvents := s.instrument("/v1/jobs/{id}/events",
		route{http.MethodGet, s.handleJobEvents})
	mux.HandleFunc("/v1/jobs/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		if id, ok := strings.CutSuffix(rest, "/events"); ok && validJobID(id) {
			jobEvents(w, r)
			return
		}
		if !validJobID(rest) {
			writeError(w, http.StatusNotFound, "not_found", "no such resource")
			return
		}
		jobStatus(w, r)
	})
	mux.HandleFunc("/healthz", s.instrument("/healthz",
		route{http.MethodGet, s.handleHealthz}))
	mux.HandleFunc("/metrics", s.instrument("/metrics",
		route{http.MethodGet, s.handleMetrics}))
	return mux
}

// validJobID accepts the ids newID mints: one non-empty path segment.
func validJobID(id string) bool {
	return id != "" && !strings.ContainsAny(id, "/")
}

// statusWriter records the status code for metrics and logging.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so SSE streams through the
// instrumentation wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// route pairs one HTTP method with its handler for instrument.
type route struct {
	method string
	h      http.HandlerFunc
}

// instrument dispatches on method — rejecting others with 405 and an Allow
// header listing every supported method — records metrics and logs one line
// per request.
func (s *Server) instrument(path string, routes ...route) http.HandlerFunc {
	methods := make([]string, len(routes))
	for i, rt := range routes {
		methods[i] = rt.method
	}
	allow := strings.Join(methods, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h := http.HandlerFunc(nil)
		for _, rt := range routes {
			if r.Method == rt.method {
				h = rt.h
				break
			}
		}
		if h == nil {
			w.Header().Set("Allow", allow)
			writeError(sw, http.StatusMethodNotAllowed, "method_not_allowed",
				fmt.Sprintf("%s allows %s", path, allow))
		} else {
			h(sw, r)
		}
		d := time.Since(start)
		s.met.observe(path, sw.status, d)
		if s.cfg.Logf != nil {
			s.cfg.Logf("%s %s %d %s", r.Method, r.URL.Path, sw.status, d.Round(time.Microsecond))
		}
	}
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Encoding our own response types cannot fail; a broken connection is
	// the client's problem.
	_ = enc.Encode(v)
}

// writeError writes the structured error body.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorResponse{Error: ErrorDetail{Code: code, Message: msg}})
}

// systemKeys derives the server map key and the oraclestore content address
// for a resolved request. The map key extends the oracle key with the
// per-core test lengths: oracle answers depend only on the physics, but the
// schedule (and so the live environment's spec) also depends on how long
// each core tests.
func systemKeys(spec *testspec.Spec, cfg thermal.PackageConfig, gridRes int, grid thermal.GridOptions) (mapKey, oracleKey [32]byte, err error) {
	oracleKey, err = experiments.OracleDesc(spec, cfg,
		experiments.EnvOptions{GridRes: gridRes, Grid: grid}).Key()
	if err != nil {
		return mapKey, oracleKey, err
	}
	h := sha256.New()
	h.Write(oracleKey[:])
	var buf [8]byte
	for i := 0; i < spec.NumCores(); i++ {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(spec.Test(i).Length))
		h.Write(buf[:])
	}
	copy(mapKey[:], h.Sum(nil))
	return mapKey, oracleKey, nil
}

// system returns the live entry for a resolved request's system, creating a
// cold one if needed; warm reports whether it already existed. Either way the
// entry takes over the problem's request-index entry and keeps the body. The
// entry is returned with its inflight count raised — callers must pair with
// release(e) — which is what keeps MaxSystems eviction from dropping a system
// mid-request.
func (s *Server) system(a *accepted) (e *systemEntry, warm bool) {
	p := a.p
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.systems[p.mapKey]; ok {
		e.lastUse = time.Now()
		e.inflight++
		s.indexLocked(e, p.indexEntry)
		s.keepBodyLocked(e, a)
		return e, true
	}
	e = &systemEntry{
		oracleKey: p.oracleKey,
		name:      p.spec.Name(),
		cores:     p.spec.NumCores(),
		gridRes:   p.gridRes,
		lastUse:   time.Now(),
		inflight:  1,
	}
	e.bld = func() (*experiments.Env, error) {
		return experiments.NewEnvWithOptions(p.spec, p.pkg,
			experiments.EnvOptions{Store: s.store, GridRes: p.gridRes, Grid: s.cfg.Grid})
	}
	s.systems[p.mapKey] = e
	s.indexLocked(e, p.indexEntry)
	s.keepBodyLocked(e, a)
	s.boundSystemsLocked()
	return e, false
}

// keepBodyLocked adds a's body to the body layer as live system e's newest
// entry, first dropping e's oldest entries until its bodies fit in
// maxBodyBytes. A body the layer already holds (a hit, or a concurrent miss
// that got there first) stays where it is; a longer one than maxBodyBytes
// was never accepted over HTTP and is not kept. Callers hold s.mu.
func (s *Server) keepBodyLocked(e *systemEntry, a *accepted) {
	if a.owner != nil || len(a.body) > maxBodyBytes {
		return
	}
	if _, ok := s.bodies[a.body]; ok {
		return
	}
	n := 0
	for ; e.bodyBytes+len(a.body) > maxBodyBytes; n++ {
		s.dropBodyLocked(e.bodies[n])
	}
	clear(e.bodies[:n])
	e.bodies = append(e.bodies[n:], a)
	e.bodyBytes += len(a.body)
	a.owner = e
	s.bodies[a.body] = a
}

// dropBodyLocked removes one body-layer entry from the layer and from the
// system that keeps it (the caller trims that system's list). Callers hold
// s.mu.
func (s *Server) dropBodyLocked(a *accepted) {
	delete(s.bodies, a.body)
	a.owner.bodyBytes -= len(a.body)
	a.owner = nil
}

// indexLocked makes ix the request-index entry of live system e in place of
// its previous one (the most recent resolving body wins); nil only removes
// it. Equal fields resolve to one system, so no other system's entry sits
// under e's key. Callers hold s.mu.
func (s *Server) indexLocked(e *systemEntry, ix *indexEntry) {
	if e.ix == ix {
		return
	}
	if e.ix != nil {
		delete(s.index, e.ix.systemFields)
	}
	e.ix = ix
	if ix != nil {
		s.index[ix.systemFields] = ix
	}
}

// removeSystemLocked drops a live system together with its request-index
// entry and its body-layer entries. Every removal goes through here: the
// MaxSystems bound, store eviction and a failed build. Callers hold s.mu.
func (s *Server) removeSystemLocked(key [32]byte, e *systemEntry) {
	s.indexLocked(e, nil)
	for _, a := range e.bodies {
		s.dropBodyLocked(a)
	}
	e.bodies = nil
	delete(s.systems, key)
}

// release drops a request's hold on its system entry.
func (s *Server) release(e *systemEntry) {
	s.mu.Lock()
	e.inflight--
	s.mu.Unlock()
}

// boundSystemsLocked enforces Config.MaxSystems by dropping the least
// recently used idle entries. Live environments are derived state: the
// persistent store file survives, so a dropped system re-requested later
// warm-starts from tier 2 instead of re-simulating. Entries with requests in
// flight are skipped, so under enough concurrent distinct-system load the
// bound is soft rather than a denial of service. Callers hold s.mu.
func (s *Server) boundSystemsLocked() {
	max := s.cfg.MaxSystems
	if max <= 0 || len(s.systems) <= max {
		return
	}
	type cand struct {
		key     [32]byte
		lastUse time.Time
	}
	var idle []cand
	for k, e := range s.systems {
		if e.inflight == 0 {
			idle = append(idle, cand{k, e.lastUse})
		}
	}
	sort.Slice(idle, func(i, j int) bool { return idle[i].lastUse.Before(idle[j].lastUse) })
	for _, c := range idle {
		if len(s.systems) <= max {
			break
		}
		e := s.systems[c.key]
		s.closeGrid(e.env)
		s.removeSystemLocked(c.key, e)
		s.systemsDropped.Add(1)
	}
}

// closeGrid closes a dropped system's built grid model, releasing its spill
// file and its hold on a shared factor now rather than at collection. The
// caller guarantees no request is using the system.
func (s *Server) closeGrid(env *experiments.Env) {
	if env == nil || env.Lazy == nil {
		return
	}
	if gro, ok := env.Lazy.Inner().(*core.GridOracle); ok {
		if err := gro.Grid().Close(); err != nil && s.cfg.Logf != nil {
			s.cfg.Logf("closing dropped grid system: %v", err)
		}
	}
}

// dropSystem removes a failed or evicted entry so the next request rebuilds.
func (s *Server) dropSystem(mapKey [32]byte, e *systemEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.systems[mapKey]; ok && cur == e {
		s.removeSystemLocked(mapKey, e)
	}
}

// maybeEvict enforces the store budget and drops live systems whose record
// files were evicted — the system-map half of the eviction policy. Fully
// warm requests persist nothing, so the growth check makes this a single
// atomic load on the hot path; the directory walk only runs after actual
// appends (a racing append can defer one walk to the next appending
// request, which still bounds the store).
func (s *Server) maybeEvict() {
	if s.store == nil || s.cfg.StoreBudget <= 0 {
		return
	}
	grown := s.store.AppendedBytes()
	if grown == s.evictSeen.Load() {
		return
	}
	s.evictSeen.Store(grown)
	evicted, err := s.store.Evict(s.cfg.StoreBudget)
	if err != nil && s.cfg.Logf != nil {
		s.cfg.Logf("store eviction: %v", err)
	}
	if len(evicted) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range s.systems {
		if e.env != nil && e.env.StoreCache != nil && e.env.StoreCache.Evicted() {
			s.removeSystemLocked(k, e)
		}
	}
}

// retryAfterHint computes the Retry-After value for a 429, scaling with how
// congested the shed resource is: 1s when it is nearly empty up to 5s when
// fully occupied, capped at 30s if occupancy somehow overshoots capacity.
// Both shedding sites (the synchronous admission queue and the async job
// table) go through here so clients see one consistent backoff policy.
func retryAfterHint(occupied, capacity int) string {
	if capacity <= 0 {
		return "1"
	}
	secs := 1 + 4*occupied/capacity
	if secs > 30 {
		secs = 30
	}
	return strconv.Itoa(secs)
}

// pushRemote is the write-behind half of the tier-3 store cluster: after a
// request that persisted something new, ship the grown record files to their
// shards. Same growth gate as maybeEvict — fully warm requests cost one
// atomic load — and the same degradation: push failures are counted in
// RemoteStats, the files stay dirty for the next appending request, and the
// client never sees an error.
func (s *Server) pushRemote() {
	if s.store == nil || !s.store.HasRemote() {
		return
	}
	grown := s.store.AppendedBytes()
	if grown == s.pushSeen.Load() {
		return
	}
	s.pushSeen.Store(grown)
	if _, err := s.store.PushRemote(); err != nil && s.cfg.Logf != nil {
		s.cfg.Logf("store cluster push: %v", err)
	}
}

// requestDeadline resolves a request's deadline: the X-Request-Deadline
// header (a Go duration like "250ms", or a bare integer of milliseconds)
// wins over the deadline_ms body field, which wins over the server default
// (jobDeadline). A non-positive resolved value means no deadline, so a
// header of "0" also switches the default off.
func (s *Server) requestDeadline(r *http.Request, a *accepted) (time.Duration, error) {
	h := r.Header.Get("X-Request-Deadline")
	if h == "" {
		return s.jobDeadline(a), nil
	}
	if d, err := time.ParseDuration(h); err == nil {
		return d, nil
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("X-Request-Deadline %q: want a duration (\"250ms\") or integer milliseconds", h)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// problem is a fully validated scheduling problem — the shared currency of
// the synchronous handler and the async job runner. Its system half is a
// request-index entry, possibly shared with earlier requests.
type problem struct {
	*indexEntry
	genCfg core.Config
}

// accepted is one accepted request: its body bytes, its deadline_ms and
// either its strict decode (req) or, once resolved, its problem (p). An entry
// of the body layer (Server.bodies) is resolved, so it holds its bytes once
// plus the index entry it resolved through, which bodies that differ only in
// generator options share. It is immutable but for owner and shared by
// every request that repeats its bytes exactly.
type accepted struct {
	body       string
	deadlineMS int
	req        *ScheduleRequest
	p          *problem
	owner      *systemEntry // the live system keeping this body-layer entry, or nil; guarded by the server mu
}

// resolve completes a decoded request with its problem and drops the decode.
// A body-layer hit arrives resolved and counts as a request-index hit here,
// where a miss counts in resolveProblem, so both count only requests that got
// this far. On failure the returned code is the stable machine-readable error
// code (HTTP 400).
func (s *Server) resolve(a *accepted) (string, error) {
	if a.p != nil {
		s.indexHits.Add(1)
		return "", nil
	}
	p, code, err := s.resolveProblem(a.req)
	a.p, a.req = p, nil
	return code, err
}

// resolveProblem validates a decoded request into a problem; on failure the
// returned code is the stable machine-readable error code (HTTP 400). It runs
// only on a body-layer miss: a byte-identical repeat of a body whose system
// is still live reuses that body's problem and never decodes.
//
// A miss can still skip resolveSpec and systemKeys: when the index holds its
// system fields, it reuses their entry's spec and keys. The generator options
// are validated on every call, with the same error codes either way. An index
// miss resolves from scratch; its entry joins the index when acquireSystem
// takes it live, and leaves when that system leaves the map.
func (s *Server) resolveProblem(req *ScheduleRequest) (*problem, string, error) {
	f := systemFields{req.Workload, req.Name, req.Floorplan, req.TestSpec,
		req.Package.packageConfig(), req.GridRes}
	s.mu.Lock()
	ix := s.index[f]
	s.mu.Unlock()
	if ix == nil {
		s.indexMisses.Add(1)
	} else {
		s.indexHits.Add(1)
	}
	var spec *testspec.Spec
	if ix == nil {
		var err error
		if spec, err = req.resolveSpec(); err != nil {
			return nil, "bad_workload", err
		}
	}
	genCfg, err := req.scheduleConfig()
	if err != nil {
		return nil, "bad_config", err
	}
	if err := f.pkg.Validate(); err != nil {
		return nil, "bad_package", err
	}
	if ix == nil {
		mapKey, oracleKey, err := systemKeys(spec, f.pkg, f.gridRes, s.cfg.Grid)
		if err != nil {
			return nil, "bad_workload", err
		}
		ix = &indexEntry{systemFields: f, spec: spec, mapKey: mapKey, oracleKey: oracleKey}
	}
	return &problem{indexEntry: ix, genCfg: genCfg}, "", nil
}

// tierSnap is a point-in-time read of one system's cache counters, so a
// request can report only its own tier traffic as deltas.
type tierSnap struct{ h, m, sh, sm int64 }

func snapshotTiers(env *experiments.Env) tierSnap {
	var t tierSnap
	t.h, t.m = env.Oracle.Stats()
	if env.StoreCache != nil {
		t.sh, t.sm = env.StoreCache.Stats()
	}
	return t
}

// cacheInfo assembles the response's cache section from the baseline snap.
func cacheInfo(env *experiments.Env, warm bool, t0 tierSnap) CacheInfo {
	t1 := snapshotTiers(env)
	ci := CacheInfo{
		SystemWarm:     warm,
		Tier1Hits:      t1.h - t0.h,
		Tier1Misses:    t1.m - t0.m,
		Tier2Hits:      t1.sh - t0.sh,
		Tier2Misses:    t1.sm - t0.sm,
		GridFactorized: env.Lazy != nil && env.Lazy.Built(),
	}
	if env.StoreCache != nil {
		ci.StoreLoaded = env.StoreCache.Loaded()
	}
	return ci
}

// buildScheduleResult assembles the deterministic result section.
func buildScheduleResult(p *problem, res *core.Result) ScheduleResult {
	result := ScheduleResult{
		Workload:         p.spec.Name(),
		Cores:            p.spec.NumCores(),
		TL:               p.genCfg.TL,
		STCL:             p.genCfg.STCL,
		EffectiveTL:      res.EffectiveTL,
		GridRes:          p.gridRes,
		Length:           res.Length,
		Effort:           res.Effort,
		MaxTemp:          res.MaxTemp,
		Attempts:         res.Attempts,
		Violations:       res.Violations,
		ForcedSingletons: res.ForcedSingletons,
		Schedule:         schedule.Format(res.Schedule, p.spec),
		SystemKey:        fmt.Sprintf("%x", p.oracleKey),
	}
	for _, sess := range res.Schedule.Sessions() {
		result.Sessions = append(result.Sessions, sess.Names(p.spec))
	}
	return result
}

// acquireSystem returns the built environment for a resolved request,
// building it cold if needed; callers must s.release(entry) when done.
func (s *Server) acquireSystem(a *accepted) (entry *systemEntry, env *experiments.Env, warm bool, err error) {
	entry, warm = s.system(a)
	entry.once.Do(func() {
		env, err := entry.bld()
		s.mu.Lock()
		entry.env, entry.err = env, err
		s.mu.Unlock()
	})
	// Once.Do orders this goroutine after the build, but read through the mu
	// anyway so every access to entry.env/err uses one discipline.
	s.mu.Lock()
	env, buildErr := entry.env, entry.err
	s.mu.Unlock()
	if buildErr != nil {
		s.dropSystem(a.p.mapKey, entry)
		s.release(entry)
		return nil, nil, warm, buildErr
	}
	return entry, env, warm, nil
}

// runError is a failed run: the stage it failed in ("build", "queue" or
// "generate"), the time it spent there, and the cause.
type runError struct {
	stage   string
	elapsed time.Duration
	err     error
}

func (e *runError) Error() string { return e.err.Error() }
func (e *runError) Unwrap() error { return e.err }

// generate is the one generation path of synchronous requests and async
// jobs: acquire the problem's system, run the generator on the pool, time
// the queue wait and the generation, do the post-request store upkeep and
// assemble the response. A synchronous request (j nil) passes admission
// control; a job was admitted at submit time (MaxJobs), so it waits for a
// worker instead of being shed, is marked running once it has one, and
// streams progress events. Errors are *runError.
func (s *Server) generate(ctx context.Context, start time.Time, a *accepted, j *jobs.Job) (*ScheduleResponse, error) {
	entry, env, warm, err := s.acquireSystem(a)
	if err != nil {
		return nil, &runError{"build", 0, err}
	}
	defer s.release(entry)

	t0 := snapshotTiers(env)
	genCfg := a.p.genCfg
	admit := s.pool.TryDo
	if j != nil {
		admit = s.pool.Do
		// Progress events ride the generator's callback: phase/coverage from
		// the generator, tier-hit deltas read from the live caches. Runs on
		// the generation goroutine, so it must stay cheap — two atomic reads
		// and one small marshal per committed session.
		genCfg.Progress = func(pi core.ProgressInfo) {
			t1 := snapshotTiers(env)
			s.jobs.Progress(j, JobProgressEvent{
				Phase:          pi.Phase,
				Sessions:       pi.Sessions,
				CoresScheduled: pi.CoresScheduled,
				CoresTotal:     pi.CoresTotal,
				Attempts:       pi.Attempts,
				Violations:     pi.Violations,
				Tier1Hits:      t1.h - t0.h,
				Tier1Misses:    t1.m - t0.m,
				Tier2Hits:      t1.sh - t0.sh,
				Tier2Misses:    t1.sm - t0.sm,
			})
		}
	}

	var (
		res              *core.Result
		genErr           error
		queueDur, genDur time.Duration
	)
	queued := time.Now()
	if err := admit(ctx, func() {
		queueDur = time.Since(queued)
		if j != nil {
			s.jobs.SetRunning(j)
		}
		g0 := time.Now()
		res, genErr = env.GenerateContext(ctx, genCfg)
		genDur = time.Since(g0)
	}); err != nil {
		return nil, &runError{"queue", time.Since(queued), err}
	}
	s.maybeEvict()
	s.pushRemote()
	if genErr != nil {
		return nil, &runError{"generate", genDur, genErr}
	}
	return &ScheduleResponse{
		Result: buildScheduleResult(a.p, res),
		Cache:  cacheInfo(env, warm, t0),
		Timing: TimingInfo{
			QueueMS:    float64(queueDur) / float64(time.Millisecond),
			GenerateMS: float64(genDur) / float64(time.Millisecond),
			TotalMS:    float64(time.Since(start)) / float64(time.Millisecond),
		},
	}, nil
}

// handleSchedule serves POST /v1/schedule.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining",
			"server is draining; not admitting new work")
		return
	}
	a, ok := s.readScheduleRequest(w, r)
	if !ok {
		return
	}
	deadline, err := s.requestDeadline(r, a)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_deadline", err.Error())
		return
	}
	if code, err := s.resolve(a); err != nil {
		writeError(w, http.StatusBadRequest, code, err.Error())
		return
	}

	// The deadline covers everything from here on: system build, queue wait,
	// generation. The client disconnecting cancels the same context.
	ctx := r.Context()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	resp, err := s.generate(ctx, start, a, nil)
	if err == nil {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	var re *runError
	errors.As(err, &re)
	spent := re.elapsed.Round(time.Millisecond)
	switch {
	case re.stage == "build":
		writeError(w, http.StatusInternalServerError, "system_build_failed", err.Error())
	case errors.Is(err, conc.ErrSaturated):
		// Shed: the admission queue is full. Retry-After gives polite
		// clients a backoff hint; the counter must match what clients
		// observe (asserted by the chaos tests).
		s.shed.Add(1)
		w.Header().Set("Retry-After", retryAfterHint(s.pool.Queued(), s.pool.QueueDepth()))
		writeError(w, http.StatusTooManyRequests, "saturated",
			fmt.Sprintf("admission queue full (%d workers + %d queued); retry later",
				s.pool.Workers(), s.pool.QueueDepth()))
	case re.stage == "queue" && errors.Is(err, context.DeadlineExceeded):
		s.dlQueued.Add(1)
		writeError(w, http.StatusServiceUnavailable, "deadline_queued",
			fmt.Sprintf("deadline expired after %s waiting for a worker", spent))
	case re.stage == "queue":
		// The client gave up while queued; 503 tells retrying proxies the
		// pool was saturated.
		writeError(w, http.StatusServiceUnavailable, "canceled",
			fmt.Sprintf("request canceled while queued: %v", err))
	case errors.Is(err, context.DeadlineExceeded):
		s.dlGenerating.Add(1)
		writeError(w, http.StatusServiceUnavailable, "deadline_generating",
			fmt.Sprintf("deadline expired mid-generation after %s (everything simulated so far stays cached): %v",
				spent, err))
	case errors.Is(err, core.ErrInterrupted):
		writeError(w, http.StatusServiceUnavailable, "canceled",
			fmt.Sprintf("request canceled mid-generation: %v", err))
	case errors.As(err, new(*core.MaxAttemptsError)):
		writeError(w, http.StatusUnprocessableEntity, "max_attempts", err.Error())
	default:
		writeError(w, http.StatusUnprocessableEntity, "schedule_failed", err.Error())
	}
}

// handleSystems serves GET /v1/systems.
func (s *Server) handleSystems(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	infos := make([]SystemInfo, 0, len(s.systems))
	for _, e := range s.systems {
		if e.env == nil {
			continue // still building
		}
		info := SystemInfo{
			Key:            fmt.Sprintf("%x", e.oracleKey),
			Workload:       e.name,
			Cores:          e.cores,
			GridRes:        e.gridRes,
			GridFactorized: e.env.Lazy != nil && e.env.Lazy.Built(),
			LastUsed:       e.lastUse.UTC().Format(time.RFC3339Nano),
		}
		info.Tier1Hits, info.Tier1Misses = e.env.Oracle.Stats()
		if sc := e.env.StoreCache; sc != nil {
			info.Tier2Hits, info.Tier2Misses = sc.Stats()
			info.StoreRecords = sc.Len()
			info.StoreBytes = sc.SizeBytes()
		}
		infos = append(infos, info)
	}
	s.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Key < infos[j].Key })

	resp := SystemsResponse{Systems: infos}
	if s.store != nil {
		st, err := s.store.Stats()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "store_stats_failed", err.Error())
			return
		}
		resp.Store = &StoreInfo{
			Dir:          s.cfg.CacheDir,
			Files:        st.Files,
			Bytes:        st.Bytes,
			BudgetBytes:  s.cfg.StoreBudget,
			EvictedFiles: st.EvictedFiles,
			EvictedBytes: st.EvictedBytes,
			Hits:         st.Hits,
			Misses:       st.Misses,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz serves GET /healthz: a readiness probe that reports "ok" or
// "degraded" (store breaker not closed, or systems running memory-only) plus
// the breaker state and queue occupancy. Polling it also drives breaker
// recovery: each probe gives an open breaker a chance to half-open and test
// the disk, so a store with only warm read traffic still notices the disk
// came back. The status code is always 200 — a degraded server is still
// serving, just not persisting — so load balancers keep routing to it.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{
		Status:     "ok",
		Workers:    s.pool.Workers(),
		QueueDepth: s.pool.Queued(),
		QueueLimit: s.pool.QueueDepth(),
		Shed:       s.shed.Load(),
	}
	s.mu.Lock()
	resp.SystemsLive = len(s.systems)
	s.mu.Unlock()
	resp.MaxSystems = s.cfg.MaxSystems
	jc := s.jobs.Counts()
	js := s.jobs.JournalStats()
	resp.Jobs = &JobsHealthInfo{
		Active:         jc.Active,
		Queued:         jc.Queued,
		Running:        jc.Running,
		Done:           jc.Done,
		Failed:         jc.Failed,
		Cancelled:      jc.Cancelled,
		Interrupted:    jc.Interrupted,
		Resumed:        jc.Resumed,
		Journal:        s.jobs.JournalPath(),
		JournalMemOnly: js.MemOnly,
		AppendRetries:  js.Retries,
		AppendFailures: js.Failures,
		Unpersisted:    js.Unpersisted,
	}
	if s.store != nil {
		s.store.Probe()
		h := s.store.Health()
		resp.Store = &StoreHealthInfo{
			Breaker:             h.Breaker.String(),
			ConsecutiveFailures: h.ConsecutiveFailures,
			BreakerOpens:        h.BreakerOpens,
			LastError:           h.LastError,
			AppendRetries:       h.AppendRetries,
			AppendFailures:      h.AppendFailures,
			Unpersisted:         h.Unpersisted,
			DegradedSystems:     h.DegradedSystems,
		}
		if h.Breaker != oraclestore.BreakerClosed || h.DegradedSystems > 0 {
			resp.Status = "degraded"
		}
	}
	// Draining trumps degraded: the server is deliberately refusing new work,
	// which is what a load balancer most needs to know.
	if s.draining.Load() {
		resp.Status = "draining"
	}
	writeJSON(w, http.StatusOK, resp)
}
