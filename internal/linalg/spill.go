package linalg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
)

// ErrPeakBudget reports that a peak-bytes budget is infeasible: the
// unspillable working set (factor indices plus the frontal scratch) or a
// single panel pair needed by one left-looking step cannot fit. Callers fall
// back to an unbudgeted, in-core factorization.
var ErrPeakBudget = errors.New("linalg: peak-bytes budget infeasible")

// ErrSpill wraps spill-file I/O failures (torn frames, CRC mismatches, read
// errors) surfaced by solves on an out-of-core factor. FactorizeSpill does
// not return it: a run the spill device fails is rebuilt in core.
var ErrSpill = errors.New("linalg: spill file")

// SpillFile is the per-handle filesystem surface the out-of-core
// factorization writes panel frames through — a structural subset of
// *os.File (and of oraclestore.File, so the store's fault-injection seam
// drives this path too).
type SpillFile interface {
	io.Writer
	io.ReaderAt
	io.Seeker
	io.Closer
	Name() string
	Sync() error
	Truncate(size int64) error
}

// SpillFS is the filesystem seam spill files are created through. The
// production implementation is the os package (OSSpillFS); tests inject
// fault-raising wrappers to exercise the in-core rebuild on spill failures.
type SpillFS interface {
	MkdirAll(path string, perm os.FileMode) error
	CreateTemp(dir, pattern string) (SpillFile, error)
	Remove(name string) error
}

type osSpillFS struct{}

// OSSpillFS returns the real-filesystem SpillFS used when no seam is
// injected.
func OSSpillFS() SpillFS { return osSpillFS{} }

func (osSpillFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osSpillFS) Remove(name string) error                     { return os.Remove(name) }
func (osSpillFS) CreateTemp(dir, pattern string) (SpillFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// SpillPolicy configures an out-of-core factorization (FactorizeSpill).
type SpillPolicy struct {
	// BudgetBytes bounds the managed resident working set: the factor's
	// index arrays (unspillable), every resident panel value segment, and
	// the frontal scratch workspace. The input matrix and the symbolic
	// analysis are the caller's and not counted. Must be > 0.
	BudgetBytes int64
	// Dir is the directory spill files are created in; "" selects the OS
	// temp directory. The file is unlinked immediately after creation where
	// the platform allows, so a crashed process leaks no disk.
	Dir string
	// FS is the filesystem seam; nil selects the real filesystem.
	FS SpillFS
}

// SpillStats describes what an out-of-core factorization actually did. It is
// the zero value for a factor built in core because it fit the budget.
type SpillStats struct {
	// SpilledPanels / SpilledBytes count the distinct panels written to the
	// spill file and their payload bytes (each panel is written at most
	// once; re-evictions free memory without rewriting).
	SpilledPanels int
	SpilledBytes  int64
	// ReloadedPanels / ReloadedBytes count on-demand reads of spilled
	// panels during the factorization itself (left-looking updates from
	// evicted descendants). Solve-time streaming is not counted here.
	ReloadedPanels int
	ReloadedBytes  int64
	// PeakResidentBytes is the high-water mark of the managed working set.
	// It never exceeds the budget.
	PeakResidentBytes int64
	// Degraded reports that the spill device failed the out-of-core run (a
	// write still failing after three healed retries, a failed reload, or a
	// spill file that could not be created) and the factor was rebuilt in
	// core by Factorize, budget waived. The other fields are then zero.
	Degraded bool
}

// Spill-file frame layout: a 16-byte header (magic, panel index, float64
// count, reserved), the payload as little-endian float64 bits, and a CRC-32
// (IEEE) of header+payload. Torn or bit-rotted frames fail the CRC and
// surface as ErrSpill instead of silent numeric corruption.
const (
	spillMagic     = 0x53504C31 // "SPL1"
	spillHdrLen    = 16
	spillChunk     = 1 << 16 // floats per I/O chunk (512 KiB)
	spillDeadPanel = math.MaxInt32
)

func spillFrameLen(count int) int64 { return spillHdrLen + int64(count)*8 + 4 }

// spillStore is the read side a factor with spilled panels keeps: the open
// (usually unlinked) frame file and the per-panel frame offsets. ReadAt is
// positional, so concurrent solves stream panels independently.
type spillStore struct {
	fs     SpillFS
	f      SpillFile
	name   string  // non-empty only if the post-create unlink failed
	off    []int64 // per panel: frame offset, -1 = never written (resident)
	maxSeg int     // largest panel segment in floats, sizes solve buffers

	pool      sync.Pool // *[]float64 solve-time panel buffers
	closeOnce sync.Once
	closeErr  error
}

// readPanel reads panel d's frame into dst (len = the panel's float count),
// verifying the header and CRC.
func (sp *spillStore) readPanel(d int, dst []float64) error {
	off := sp.off[d]
	if off < 0 {
		return fmt.Errorf("%w: panel %d was never written", ErrSpill, d)
	}
	var hdr [spillHdrLen]byte
	if _, err := sp.f.ReadAt(hdr[:], off); err != nil {
		return fmt.Errorf("%w: panel %d header: %v", ErrSpill, d, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != spillMagic {
		return fmt.Errorf("%w: panel %d: bad magic", ErrSpill, d)
	}
	if p := binary.LittleEndian.Uint32(hdr[4:]); int(p) != d {
		return fmt.Errorf("%w: frame holds panel %d, want %d", ErrSpill, p, d)
	}
	count := int(binary.LittleEndian.Uint32(hdr[8:]))
	if count != len(dst) {
		return fmt.Errorf("%w: panel %d has %d floats, want %d", ErrSpill, d, count, len(dst))
	}
	crc := crc32.NewIEEE()
	crc.Write(hdr[:])
	buf := make([]byte, min(count, spillChunk)*8)
	pos := off + spillHdrLen
	for done := 0; done < count; {
		n := min(count-done, spillChunk)
		b := buf[:n*8]
		if _, err := sp.f.ReadAt(b, pos); err != nil {
			return fmt.Errorf("%w: panel %d payload: %v", ErrSpill, d, err)
		}
		crc.Write(b)
		for i := 0; i < n; i++ {
			dst[done+i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
		}
		done += n
		pos += int64(n) * 8
	}
	var tail [4]byte
	if _, err := sp.f.ReadAt(tail[:], pos); err != nil {
		return fmt.Errorf("%w: panel %d crc: %v", ErrSpill, d, err)
	}
	if binary.LittleEndian.Uint32(tail[:]) != crc.Sum32() {
		return fmt.Errorf("%w: panel %d: crc mismatch", ErrSpill, d)
	}
	return nil
}

func (sp *spillStore) close() error {
	sp.closeOnce.Do(func() {
		if sp.f != nil {
			sp.closeErr = sp.f.Close()
		}
		if sp.name != "" {
			if err := sp.fs.Remove(sp.name); err != nil && sp.closeErr == nil {
				sp.closeErr = err
			}
		}
	})
	return sp.closeErr
}

// evEntry is one lazy max-heap candidate: a resident finished panel keyed by
// the panel index of its next left-looking use (spillDeadPanel = never used
// again — the best possible victim).
type evEntry struct {
	panel int32
	next  int32
}

type evictHeap []evEntry

func (h *evictHeap) push(e evEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if (*h)[p].next >= (*h)[i].next {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *evictHeap) pop() (evEntry, bool) {
	if len(*h) == 0 {
		return evEntry{}, false
	}
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < last && (*h)[l].next > (*h)[big].next {
			big = l
		}
		if r < last && (*h)[r].next > (*h)[big].next {
			big = r
		}
		if big == i {
			break
		}
		(*h)[i], (*h)[big] = (*h)[big], (*h)[i]
		i = big
	}
	return top, true
}

// spillCtl is the budget-and-residency controller of one FactorizeSpill run.
type spillCtl struct {
	ss     *SuperSymbolic
	fs     SpillFS
	dir    string
	budget int64

	segs     [][]float64
	written  []int64 // frame offset per panel, -1 = not on disk
	finished []bool
	cur      int // panel currently being factored

	// tptr/tlist: transpose of the updater lists — for each panel, the
	// ascending list of later panels its below rows update. This is the
	// exact future-use schedule, so eviction is Belady's furthest-next-use
	// rather than a recency heuristic.
	tptr  []int
	tlist []int32

	h evictHeap

	managed int64 // fixed indices + resident segments + frontal scratch
	peak    int64

	f     SpillFile
	fname string // "" once unlinked
	fsize int64

	ioBuf []byte
	stats SpillStats
}

func (ctl *spillCtl) segFloats(d int) int  { return ctl.ss.pbase[d+1] - ctl.ss.pbase[d] }
func (ctl *spillCtl) segBytes(d int) int64 { return int64(ctl.segFloats(d)) * 8 }

// nextUse returns the panel index of d's next left-looking use after the
// current target, or spillDeadPanel when d is never read again.
func (ctl *spillCtl) nextUse(d int) int32 {
	ts := ctl.tlist[ctl.tptr[d]:ctl.tptr[d+1]]
	i := sort.Search(len(ts), func(i int) bool { return int(ts[i]) > ctl.cur })
	if i == len(ts) {
		return spillDeadPanel
	}
	return ts[i]
}

// popVictim returns the resident finished panel with the furthest next use,
// lazily discarding stale heap entries (evicted panels, outdated next-use
// keys are corrected and re-pushed).
func (ctl *spillCtl) popVictim() (int, bool) {
	for {
		e, ok := ctl.h.pop()
		if !ok {
			return 0, false
		}
		d := int(e.panel)
		if ctl.segs[d] == nil {
			continue // already evicted; a reload pushes a fresh entry
		}
		if actual := ctl.nextUse(d); actual != e.next {
			ctl.h.push(evEntry{panel: e.panel, next: actual})
			continue
		}
		return d, true
	}
}

// grow books need bytes into the managed working set, evicting
// furthest-next-use panels first to stay within budget. An empty candidate
// set with the budget still exceeded is an infeasible budget.
func (ctl *spillCtl) grow(need int64) error {
	for ctl.managed+need > ctl.budget {
		d, ok := ctl.popVictim()
		if !ok {
			return fmt.Errorf("%w: %d bytes needed at panel %d, %d managed of %d budget and nothing evictable",
				ErrPeakBudget, need, ctl.cur, ctl.managed, ctl.budget)
		}
		if err := ctl.evict(d); err != nil {
			return err
		}
	}
	ctl.managed += need
	if ctl.managed > ctl.peak {
		ctl.peak = ctl.managed
	}
	return nil
}

// evict writes panel d's segment to the spill file (first eviction only) and
// frees it.
func (ctl *spillCtl) evict(d int) error {
	if ctl.written[d] < 0 {
		if err := ctl.writeFrame(d); err != nil {
			return err
		}
	}
	ctl.segs[d] = nil
	ctl.managed -= ctl.segBytes(d)
	return nil
}

// writeFrame appends panel d's CRC-framed segment. A failed write is healed
// by truncating back to the pre-frame offset and retried; three consecutive
// failures give up (and FactorizeSpill rebuilds in core).
func (ctl *spillCtl) writeFrame(d int) error {
	if ctl.f == nil {
		if err := ctl.openFile(); err != nil {
			return err
		}
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if err := ctl.tryWriteFrame(d); err != nil {
			lastErr = err
			// Heal the torn tail so the next frame (or retry) starts clean.
			if terr := ctl.f.Truncate(ctl.fsize); terr != nil {
				return fmt.Errorf("%w: healing torn frame: %v (after %v)", ErrSpill, terr, err)
			}
			if _, serr := ctl.f.Seek(ctl.fsize, io.SeekStart); serr != nil {
				return fmt.Errorf("%w: healing torn frame: %v (after %v)", ErrSpill, serr, err)
			}
			continue
		}
		ctl.written[d] = ctl.fsize
		ctl.fsize += spillFrameLen(ctl.segFloats(d))
		ctl.stats.SpilledPanels++
		ctl.stats.SpilledBytes += ctl.segBytes(d)
		return nil
	}
	return lastErr
}

func (ctl *spillCtl) tryWriteFrame(d int) error {
	seg := ctl.segs[d]
	var hdr [spillHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], spillMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(d))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(seg)))
	crc := crc32.NewIEEE()
	crc.Write(hdr[:])
	if _, err := ctl.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("%w: panel %d header: %v", ErrSpill, d, err)
	}
	if ctl.ioBuf == nil {
		ctl.ioBuf = make([]byte, min(ctl.maxSegFloats(), spillChunk)*8)
	}
	for done := 0; done < len(seg); {
		n := min(len(seg)-done, spillChunk)
		b := ctl.ioBuf[:n*8]
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(seg[done+i]))
		}
		crc.Write(b)
		if _, err := ctl.f.Write(b); err != nil {
			return fmt.Errorf("%w: panel %d payload: %v", ErrSpill, d, err)
		}
		done += n
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err := ctl.f.Write(tail[:]); err != nil {
		return fmt.Errorf("%w: panel %d crc: %v", ErrSpill, d, err)
	}
	return nil
}

func (ctl *spillCtl) maxSegFloats() int {
	mx := 0
	for s := 0; s < ctl.ss.ns; s++ {
		if n := ctl.segFloats(s); n > mx {
			mx = n
		}
	}
	return mx
}

func (ctl *spillCtl) openFile() error {
	if err := ctl.fs.MkdirAll(ctl.dir, 0o755); err != nil {
		return fmt.Errorf("%w: creating spill dir %s: %v", ErrSpill, ctl.dir, err)
	}
	f, err := ctl.fs.CreateTemp(ctl.dir, "supernodal-spill-*.panels")
	if err != nil {
		return fmt.Errorf("%w: creating spill file: %v", ErrSpill, err)
	}
	ctl.f = f
	// Unlink immediately where the platform allows: the open handle keeps
	// the frames readable, and a crashed process leaks no disk. If the
	// unlink fails the name is kept and removed at Close.
	if err := ctl.fs.Remove(f.Name()); err != nil {
		ctl.fname = f.Name()
	}
	return nil
}

func (ctl *spillCtl) closeFile() {
	if ctl.f != nil {
		ctl.f.Close()
		if ctl.fname != "" {
			ctl.fs.Remove(ctl.fname)
			ctl.fname = ""
		}
		ctl.f = nil
	}
}

// seg is the panel-value accessor factorPanel runs against: it returns panel
// d's value segment and its global base offset, allocating the unfinished
// target's segment or reloading an evicted descendant on demand. The
// returned slice is valid until the next seg call.
func (ctl *spillCtl) seg(d int) ([]float64, int, error) {
	if ctl.segs[d] == nil {
		if err := ctl.grow(ctl.segBytes(d)); err != nil {
			return nil, 0, err
		}
		seg := make([]float64, ctl.segFloats(d))
		if ctl.finished[d] {
			sp := spillStore{f: ctl.f, off: ctl.written}
			if err := sp.readPanel(d, seg); err != nil {
				return nil, 0, err
			}
			ctl.stats.ReloadedPanels++
			ctl.stats.ReloadedBytes += ctl.segBytes(d)
			ctl.h.push(evEntry{panel: int32(d), next: ctl.nextUse(d)})
		}
		ctl.segs[d] = seg
	}
	return ctl.segs[d], ctl.ss.pbase[d], nil
}

// FactorizeSpill runs the supernodal numeric factorization of s under an
// explicit peak-bytes budget. It alone decides where the factor's panels
// live, in one of three ways:
//
//   - The in-core bytes (InCoreBytes) fit the budget: it returns Factorize's
//     factor.
//   - The unspillable floor alone (the factor's index arrays plus the frontal
//     scratch) exceeds the budget: it returns ErrPeakBudget.
//   - Otherwise it factors out of core, spilling finished panels to disk when
//     the resident working set would exceed the budget and streaming them
//     back on demand; at least one panel ends on disk. If the spill device
//     fails the run (see SpillStats.Degraded), the partial factor and its
//     file are dropped and Factorize builds the factor in core, once.
//
// The out-of-core run also returns ErrPeakBudget when some left-looking step
// cannot fit its panels. Its schedule is the serial ascending panel order,
// which deterministic eviction needs. Every factor holds Factorize's bits:
// spilling moves bytes, never reorders an IEEE-754 operation.
//
// An out-of-core factor answers SolveInto and SolveSparseInto
// bit-identically to an in-core factor, streaming spilled panels per solve
// pass. Callers should Close it to release the spill file promptly; a
// finalizer covers factors dropped without Close.
func (ss *SuperSymbolic) FactorizeSpill(s *Sparse, pol SpillPolicy) (*SparseCholesky, error) {
	if !ss.sym.samePattern(s) {
		return nil, fmt.Errorf("%w: matrix pattern differs from the symbolic analysis", ErrShape)
	}
	if pol.BudgetBytes <= 0 {
		return nil, fmt.Errorf("%w: BudgetBytes must be > 0, got %d", ErrShape, pol.BudgetBytes)
	}
	if ss.InCoreBytes() <= pol.BudgetBytes {
		return ss.Factorize(s)
	}
	// The unspillable floor: factor row indices + column pointers + the one
	// frontal scratch the serial schedule holds.
	fixed := int64(len(ss.li))*8 + int64(len(ss.sym.colPtr))*8 + ss.WorkspaceBytes()
	if fixed > pol.BudgetBytes {
		return nil, fmt.Errorf("%w: indices and scratch need %d bytes, budget %d",
			ErrPeakBudget, fixed, pol.BudgetBytes)
	}
	ch, err := ss.factorOutOfCore(s, pol, fixed)
	if errors.Is(err, ErrSpill) {
		if ch, err = ss.Factorize(s); err == nil {
			ch.spillStats.Degraded = true
		}
	}
	return ch, err
}

// factorOutOfCore is FactorizeSpill's out-of-core run from a managed working
// set of fixed bytes. On failure it closes its spill file and keeps nothing.
func (ss *SuperSymbolic) factorOutOfCore(s *Sparse, pol SpillPolicy, fixed int64) (*SparseCholesky, error) {
	if pol.FS == nil {
		pol.FS = OSSpillFS()
	}
	if pol.Dir == "" {
		pol.Dir = os.TempDir()
	}

	ns := ss.ns
	ctl := &spillCtl{
		ss:       ss,
		fs:       pol.FS,
		dir:      pol.Dir,
		budget:   pol.BudgetBytes,
		segs:     make([][]float64, ns),
		written:  make([]int64, ns),
		finished: make([]bool, ns),
		managed:  fixed,
		peak:     fixed,
	}
	for i := range ctl.written {
		ctl.written[i] = -1
	}

	// Transpose the updater lists into per-descendant target lists: the
	// future-use schedule Belady eviction reads. ulist is CSR by target with
	// ascending descendants; iterating targets ascending leaves each
	// tlist[d] ascending.
	ctl.tptr = make([]int, ns+1)
	for _, d := range ss.ulist {
		ctl.tptr[d+1]++
	}
	for d := 0; d < ns; d++ {
		ctl.tptr[d+1] += ctl.tptr[d]
	}
	ctl.tlist = make([]int32, len(ss.ulist))
	tnext := make([]int, ns)
	copy(tnext, ctl.tptr[:ns])
	for t := 0; t < ns; t++ {
		for _, d := range ss.ulist[ss.uptr[t]:ss.uptr[t+1]] {
			ctl.tlist[tnext[d]] = int32(t)
			tnext[d]++
		}
	}

	ch := ss.sym.newFactor(ss.li, false)
	ch.panels = ss
	sc := ss.pool.Get().(*superScratch)
	defer ss.pool.Put(sc)
	for sn := 0; sn < ns; sn++ {
		ctl.cur = sn
		if err := ss.factorPanel(sn, s, ch.lp, ch.li, sc, ctl.seg); err != nil {
			ctl.closeFile()
			return nil, err
		}
		ctl.finished[sn] = true
		ctl.h.push(evEntry{panel: int32(sn), next: ctl.nextUse(sn)})
	}

	// The budget is below the in-core bytes, so some panel is on disk.
	ch.segs = ctl.segs
	ch.spillStats = ctl.stats
	ch.spillStats.PeakResidentBytes = ctl.peak
	sp := &spillStore{fs: ctl.fs, f: ctl.f, name: ctl.fname, off: ctl.written, maxSeg: ctl.maxSegFloats()}
	sp.pool.New = func() any {
		b := make([]float64, sp.maxSeg)
		return &b
	}
	ch.spill = sp
	// A dropped-without-Close factor must not leak the spill handle (the
	// service LRU-evicts whole systems); Close remains the prompt path.
	runtime.SetFinalizer(ch, func(c *SparseCholesky) { c.Close() })
	return ch, nil
}
