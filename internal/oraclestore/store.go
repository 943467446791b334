// Package oraclestore is the persistent tier of the two-tier oracle cache:
// it spills memoized BlockTemps results to disk so repeated CLI invocations
// and fleet sweeps warm-start instead of re-running thermal simulations.
//
// Layout and addressing. A Store roots a directory; inside it every *thermal
// system* — the combination of floorplan geometry, package configuration,
// power profile and solver backend + tolerance — owns one append-only record
// file, content-addressed by the SHA-256 of a canonical encoding of exactly
// those inputs (see SystemDesc.Key). Two processes that build the same
// system, in any order, land on the same file; any change to any simulation
// input lands on a different one, so a stale cache can never answer for the
// wrong physics.
//
// Record format. Files are binary, little-endian, and append-only:
//
//	header:  magic "TSORACL1" | u32 version | u32 numBlocks | 32-byte key
//	record:  u32 nActive | nActive × u32 core | numBlocks × f64 temps | u32 crc
//
// Every record carries a CRC-32 (IEEE) over its payload and stores its active
// set sorted ascending, so the file is self-validating and key-canonical.
// Appends are a single write(2) on an O_APPEND descriptor, so every record
// lands atomically at the true end of file; a crash mid-append leaves at
// most one torn tail record, which the next load detects (short read, CRC
// mismatch, or non-canonical core list) and truncates away before appending
// resumes — the classic write-ahead-log recovery rule. Records are
// fixed-stride once the active-set size is read, so a loader may also mmap
// the file and walk it in place; the stock loader streams it with one
// buffered pass. A record whose length (from its active count and the
// header's block count) runs past the bytes left is a torn tail, found before
// anything of that length is allocated, so a forged header arriving through
// the remote tier cannot make the reader allocate from it.
//
// One file discipline. Record files and RecordLog journals (CRC-framed byte
// payloads; the schedule service's job journal) sit on one unexported
// appendLog: atomic creation with the header, header check and reset,
// replay, torn-tail truncation, appends retried with torn-tail healing,
// retirement to memory-only, Sync and Close. Each format supplies only its
// header bytes and a frame reader. One Breaker type guards a store's disk, a
// RecordLog's disk and each remote store node, and WriteFileAtomic is the one
// temp-file-and-rename publish, used for new files here and for merged files
// on cmd/thermstore nodes.
//
// Concurrency. A SystemCache is safe for concurrent use within one process.
// The store does not lock files across handles or processes; instead the
// format is arranged so racing handles degrade softly. Files are *created*
// with their header via temp-file + atomic rename, so no handle can observe
// or half-write a header (racing creators publish complete files; the losing
// rename's handle appends to an unlinked inode — records lost, nothing
// corrupted). Record appends go through O_APPEND descriptors, so once a file
// is open, a second writer — another Store in this process or another
// process — can at worst append *duplicate* records (each handle memoizes
// only what it has seen), which the next load dedupes; it cannot interleave
// into or overwrite an earlier record, and the deterministic-oracle contract
// makes duplicates benign. The remaining exclusion: *opening* a store (whose
// load may truncate a torn tail) concurrently with a live writer appending
// to the same file is outside the contract — the recovery truncation could
// cut a record the writer just completed. Sequential processes and
// concurrent use of already-open handles are fine — the intended CLI and
// fleet patterns.
package oraclestore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"

	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/thermal"
)

// ErrStore wraps all store failures.
var ErrStore = errors.New("oraclestore: store error")

// SystemDesc names one thermal system — everything a steady-state oracle
// answer depends on. Its canonical hash is the content address of the
// system's record file.
type SystemDesc struct {
	// Floorplan supplies the block geometry (names are irrelevant to the
	// physics and excluded from the hash).
	Floorplan *floorplan.Floorplan
	// Package is the package stack the thermal model was built with.
	Package thermal.PackageConfig
	// Profile supplies the per-core powers injected by oracle queries.
	Profile *power.Profile
	// Backend identifies the solver configuration that produced the cached
	// answers, e.g. "dense-cholesky", "sparse-cholesky" (block models, from
	// Model.SolverBackend) or "grid-nd-48x48" (grid oracles, from DescForGrid
	// — the concrete solver and its nested-dissection ordering are
	// deterministic functions of the dimensions, so they are folded in
	// implicitly; anyone changing GridModel's ordering or solver must also
	// version this string or old files will answer with different
	// round-off).
	// Different backends differ in discretisation and round-off, so their
	// answers must not share a file.
	Backend string
	// Tolerance is the iterative-solver tolerance, 0 for direct backends.
	Tolerance float64
}

// DescForModel describes the block-model oracle of m with prof — the
// SimOracle configuration.
func DescForModel(m *thermal.Model, prof *power.Profile) SystemDesc {
	return SystemDesc{
		Floorplan: m.Floorplan(),
		Package:   m.Config(),
		Profile:   prof,
		Backend:   m.SolverBackend(),
	}
}

// DescForBlockModel describes the block-model oracle of fp under cfg with
// prof without building the model — the backend is a pure function of the
// block count (thermal.SolverBackendForBlocks), so the content address is
// available before the model's factorization is paid. Identical to
// DescForModel over the built model.
func DescForBlockModel(fp *floorplan.Floorplan, cfg thermal.PackageConfig, prof *power.Profile) SystemDesc {
	return SystemDesc{
		Floorplan: fp,
		Package:   cfg,
		Profile:   prof,
		Backend:   thermal.SolverBackendForBlocks(fp.NumBlocks()),
	}
}

// cholCells is the cell count from which a grid oracle's address carries the
// "-chol" suffix. Unbudgeted grids past 2²⁴ factor non-zeros once answered
// by conjugate gradients, and their old unsuffixed record files may hold
// those bits. The fill depends only on nx and ny (the floorplan never enters
// the matrix pattern), and every grid that was past that fill has at least
// 100,000 cells: 331×331 is under it, 332×332 over, and rectangles of about
// 108k cells stay under. So the suffix covers them all, and a few factored
// grids below the fill with them.
const cholCells = 100_000

// DescForGrid describes the grid-resolution oracle (core.GridOracle) of an
// nx×ny discretisation — without needing the grid model built, so a
// lazily-constructed oracle can be content-addressed before paying for its
// factorization. The "nd" in the backend name records the grid model's one
// elimination ordering, geometric nested dissection; keys written under the
// earlier implicit-RCM scheme ("grid-NxN") are left behind rather than mixed
// in. Every answer comes from the one sparse Cholesky factor, in core or out
// of core, so opts never changes an answer's bits and does not enter the
// address. Grids of at least cholCells cells carry a "-chol" suffix, which
// leaves behind files their earlier iterative solver wrote. The concrete
// solver is a deterministic function of the dimensions, so equal names
// guarantee bit-equal answers.
func DescForGrid(fp *floorplan.Floorplan, cfg thermal.PackageConfig, prof *power.Profile, nx, ny int, opts thermal.GridOptions) SystemDesc {
	backend := fmt.Sprintf("grid-nd-%dx%d", nx, ny)
	if nx*ny >= cholCells {
		backend += "-chol"
	}
	return SystemDesc{
		Floorplan: fp,
		Package:   cfg,
		Profile:   prof,
		Backend:   backend,
	}
}

// Key returns the canonical SHA-256 content address of the system.
func (d SystemDesc) Key() ([32]byte, error) {
	var zero [32]byte
	if d.Floorplan == nil || d.Profile == nil {
		return zero, fmt.Errorf("%w: SystemDesc needs Floorplan and Profile", ErrStore)
	}
	if d.Profile.Floorplan().NumBlocks() != d.Floorplan.NumBlocks() {
		return zero, fmt.Errorf("%w: profile has %d blocks, floorplan %d", ErrStore,
			d.Profile.Floorplan().NumBlocks(), d.Floorplan.NumBlocks())
	}
	h := sha256.New()
	var buf [8]byte
	wf := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte("tsoracle-system-v1\x00"))

	die := d.Floorplan.Die()
	wf(die.X)
	wf(die.Y)
	wf(die.W)
	wf(die.H)
	wu(uint64(d.Floorplan.NumBlocks()))
	for i := 0; i < d.Floorplan.NumBlocks(); i++ {
		r := d.Floorplan.Block(i).Rect
		wf(r.X)
		wf(r.Y)
		wf(r.W)
		wf(r.H)
	}

	c := d.Package
	for _, v := range []float64{
		c.DieThickness, c.KSilicon, c.CSilicon,
		c.TIMThickness, c.KTIM, c.CTIM,
		c.SpreaderSide, c.SpreaderThickness, c.KSpreader, c.CSpreader,
		c.SinkThickness, c.KSink, c.CSink,
		c.ConvectionR, c.ConvectionC, c.Ambient,
	} {
		wf(v)
	}

	for i := 0; i < d.Floorplan.NumBlocks(); i++ {
		wf(d.Profile.Functional(i))
		wf(d.Profile.Test(i))
	}

	wu(uint64(len(d.Backend)))
	h.Write([]byte(d.Backend))
	wf(d.Tolerance)

	var key [32]byte
	copy(key[:], h.Sum(nil))
	return key, nil
}

// Store manages the cache directory and hands out one SystemCache per
// distinct system key (shared within the process, so concurrent Envs over
// the same system append through one descriptor).
//
// The store degrades rather than fails: disk errors feed a circuit breaker
// (BreakerPolicy), appends are retried with capped backoff (RetryPolicy),
// and while the breaker is open every cache — existing and newly opened —
// runs memory-only: reads keep answering from the RAM mirror, new answers
// are memoized but not persisted (counted by StoreHealth.Unpersisted). A
// probe (Store.Probe, or any append after the probe interval) half-opens the
// breaker; one success closes it and persistence resumes.
type Store struct {
	dir    string
	fs     FS
	retry  RetryPolicy
	brk    *Breaker
	fc     diskCounters
	remote RemoteTier
	rc     remoteCounters

	mu      sync.Mutex
	systems map[[32]byte]*SystemCache
	// Lifetime eviction counters (see Evict).
	evictedFiles int
	evictedBytes int64
}

// AppendedBytes returns the total record bytes appended through this Store
// since it was opened. It only ever grows; a caller that saw value v and
// enforced its budget then may skip re-scanning until the value changes.
func (s *Store) AppendedBytes() int64 { return s.fc.appendedBytes.Load() }

// StoreOptions tunes a store's fault-tolerance plumbing; the zero value is
// the production default.
type StoreOptions struct {
	// FS is the filesystem seam; nil selects the real filesystem. Tests
	// inject a faultfs.FaultFS here.
	FS FS
	// Retry is the append retry policy (zero: 4 attempts, 1ms base, 50ms cap).
	Retry RetryPolicy
	// Breaker is the circuit-breaker policy (zero: 3 failures, 5s probe).
	Breaker BreakerPolicy
	// Remote attaches a tier-3 record-file store (see RemoteTier): opened
	// systems read through it, PushRemote writes behind. Nil disables the
	// remote tier.
	Remote RemoteTier
}

// Open creates (if needed) and opens a store rooted at dir with default
// fault-tolerance options.
func Open(dir string) (*Store, error) {
	return OpenWithOptions(dir, StoreOptions{})
}

// OpenWithOptions creates (if needed) and opens a store rooted at dir.
func OpenWithOptions(dir string, opts StoreOptions) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("%w: empty directory", ErrStore)
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStore, err)
	}
	return &Store{
		dir:     dir,
		fs:      fsys,
		retry:   opts.Retry.withDefaults(),
		brk:     NewBreaker(opts.Breaker),
		remote:  opts.Remote,
		systems: make(map[[32]byte]*SystemCache),
	}, nil
}

// System opens (loading any prior records) or returns the already-open cache
// for the described system.
//
// Disk failures degrade instead of erroring: when the breaker is open, or
// the open itself fails (the failure is recorded against the breaker), the
// returned cache is memory-only — fully functional, nothing persisted — so
// serving continues through a disk outage. Only a closed store or an invalid
// description return an error.
func (s *Store) System(desc SystemDesc) (*SystemCache, error) {
	key, err := desc.Key()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.systems == nil {
		return nil, fmt.Errorf("%w: store is closed", ErrStore)
	}
	if c, ok := s.systems[key]; ok {
		return c, nil
	}
	hex := fmt.Sprintf("%x", key)
	path := filepath.Join(s.dir, hex[:2], hex+".tsoc")
	numBlocks := desc.Floorplan.NumBlocks()
	var c *SystemCache
	if s.brk.Allow() {
		var err error
		c, err = openSystemCache(path, key, numBlocks, s.cacheDeps())
		if err != nil {
			s.brk.Failure(err)
			c = newMemOnlyCache(path, key, numBlocks, s.cacheDeps())
		} else {
			s.brk.Success()
		}
	} else {
		c = newMemOnlyCache(path, key, numBlocks, s.cacheDeps())
	}
	if s.remote != nil {
		// Read-through: pull the cluster's answers for this system before the
		// first query. Runs under s.mu — the remote client's timeout and
		// breaker bound how long a dead node can stall concurrent opens. A
		// memory-only cache still absorbs (into RAM), so the remote tier keeps
		// a process warm through a local-disk outage.
		s.absorbRemote(c)
	}
	s.systems[key] = c
	return c, nil
}

// cacheDeps bundles the store-level plumbing every SystemCache shares: one
// breaker and one set of counters per store.
func (s *Store) cacheDeps() logDeps {
	return logDeps{fs: s.fs, retry: s.retry, brk: s.brk, fc: &s.fc}
}

// StoreHealth is the fault-layer snapshot health endpoints report.
type StoreHealth struct {
	// Breaker is the circuit breaker's current state.
	Breaker BreakerState
	// ConsecutiveFailures is the current failed-disk-operation streak.
	ConsecutiveFailures int
	// BreakerOpens counts how many times the breaker has tripped, ever.
	BreakerOpens int64
	// LastError is the most recent disk failure, empty when healthy.
	LastError string
	// AppendRetries / AppendFailures / Unpersisted aggregate the disk
	// counters (see diskCounters) across every cache of this store.
	AppendRetries  int64
	AppendFailures int64
	Unpersisted    int64
	// DegradedSystems counts open caches running memory-only.
	DegradedSystems int
}

// Health reports the store's fault-layer state.
func (s *Store) Health() StoreHealth {
	state, consecutive, opens, lastErr := s.brk.snapshot()
	h := StoreHealth{
		Breaker:             state,
		ConsecutiveFailures: consecutive,
		BreakerOpens:        opens,
		AppendRetries:       s.fc.retries.Load(),
		AppendFailures:      s.fc.failures.Load(),
		Unpersisted:         s.fc.unpersisted.Load(),
	}
	if lastErr != nil {
		h.LastError = lastErr.Error()
	}
	s.mu.Lock()
	for _, c := range s.systems {
		if c.MemOnly() {
			h.DegradedSystems++
		}
	}
	s.mu.Unlock()
	return h
}

// Probe drives breaker recovery when no write traffic would: if the breaker
// is open and its probe interval has elapsed, it performs one small trial
// write (create + write + sync + remove of a scratch file through the FS
// seam) and feeds the result back — success closes the breaker, failure
// re-opens it and restarts the timer. A closed breaker is a no-op. Returns
// the post-probe state. Health endpoints call this so a store with only warm
// read traffic still notices the disk came back.
func (s *Store) Probe() BreakerState {
	if s.brk.State() == BreakerClosed {
		return BreakerClosed
	}
	if !s.brk.Allow() {
		return s.brk.State()
	}
	if err := s.probeDisk(); err != nil {
		s.brk.Failure(err)
	} else {
		s.brk.Success()
	}
	return s.brk.State()
}

// probeDisk exercises the store's write path end to end.
func (s *Store) probeDisk() error {
	f, err := s.fs.CreateTemp(s.dir, ".tsoc-probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	defer s.fs.Remove(name)
	if _, err := f.Write([]byte("tsoc-probe")); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Close flushes and closes every open system file. The store is unusable
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, c := range s.systems {
		if err := c.close(); err != nil && first == nil {
			first = err
		}
	}
	s.systems = nil
	return first
}
