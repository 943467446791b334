package oraclestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

const (
	fileVersion = 1
	headerLen   = 8 + 4 + 4 + 32 // magic | version | numBlocks | key
)

var fileMagic = [8]byte{'T', 'S', 'O', 'R', 'A', 'C', 'L', '1'}

// SystemCache is one system's on-disk memo table, fully mirrored in memory.
// Get/Put are safe for concurrent use; Put appends one self-checksummed
// record per distinct active set.
//
// A cache can run memory-only: Get/Put work normally against the RAM mirror
// but nothing touches disk. A cache is born memory-only when the store's
// breaker was open (or the open failed) at System() time, and becomes
// memory-only permanently if a torn append cannot be healed — the one case
// where continuing to write would corrupt the file.
type SystemCache struct {
	key       [32]byte
	numBlocks int

	mu      sync.Mutex
	log     *appendLog
	mem     map[string][]float64
	evicted bool
	// pushedSize is the file size at the last successful remote push; the
	// file is dirty (PushRemote ships it) while it has grown past this.
	pushedSize int64

	hits, misses atomic.Int64
	lastUse      atomic.Int64 // unix nanos of the most recent open/Get/Put
	loaded       int
	dupes        int // duplicate records deduped at load
}

// openSystemCache opens or creates the record file and loads every valid
// record, truncating any torn or corrupt tail.
func openSystemCache(path string, key [32]byte, numBlocks int, deps logDeps) (*SystemCache, error) {
	c := &SystemCache{key: key, numBlocks: numBlocks, mem: make(map[string][]float64)}
	var scratch []byte
	log, healed, err := openAppendLog(path, headerBytes(key, numBlocks), deps, func(r io.Reader, left int64) (int, error) {
		rec, n := readRecord(r, &scratch, numBlocks, left)
		if n > 0 {
			if _, ok := c.mem[rec.key]; ok {
				// Racing handles can append the same answer twice (see the
				// package doc); count the dedup so tests can assert a
				// single-writer run produced none.
				c.dupes++
			}
			c.mem[rec.key] = rec.temps
		}
		return n, nil
	})
	if err != nil {
		return nil, err
	}
	if healed != nil {
		// Recovery truncated or rewrote the file, refreshing its mtime — and
		// off Linux mtime is the *whole* LRU clock (atime_other.go), so a
		// healed-but-cold file would jump ahead of genuinely warm ones.
		restoreTimes(deps.fs, path, healed)
	}
	c.log = log
	c.loaded = len(c.mem)
	c.touch()
	return c, nil
}

// newMemOnlyCache builds a degraded cache that never touches disk: every
// answer is memoized in RAM only (counted as unpersisted) and lost on
// restart. Used when the store's breaker is open at System() time or the
// on-disk open failed.
func newMemOnlyCache(path string, key [32]byte, numBlocks int, deps logDeps) *SystemCache {
	c := &SystemCache{key: key, numBlocks: numBlocks, log: memAppendLog(path, deps), mem: make(map[string][]float64)}
	c.touch()
	return c
}

// restoreTimes puts back the access and modification times st recorded —
// best-effort, like the rest of the eviction clock.
func restoreTimes(fsys FS, path string, st os.FileInfo) {
	mt := st.ModTime()
	at := mt
	if a, ok := atime(st); ok {
		at = a
	}
	_ = fsys.Chtimes(path, at, mt)
}

// touch records an access for the store's LRU eviction clock. The in-process
// clock dominates filesystem timestamps (which noatime mounts freeze), so a
// system a live handle keeps answering from never looks cold.
func (c *SystemCache) touch() { c.lastUse.Store(time.Now().UnixNano()) }

// headerBytes renders the fixed file header.
func headerBytes(key [32]byte, numBlocks int) []byte {
	var hdr [headerLen]byte
	copy(hdr[:8], fileMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], fileVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(numBlocks))
	copy(hdr[16:48], key[:])
	return hdr[:]
}

type record struct {
	key   string
	temps []float64
}

// readRecord decodes one record from r, which holds left more bytes,
// returning it and its encoded length; n == 0 at a clean end of file or a
// torn or corrupt record (short, CRC mismatch, non-canonical cores). scratch
// is grown to the record's length only once left is known to hold it, so a
// forged count allocates nothing.
func readRecord(r io.Reader, scratch *[]byte, numBlocks int, left int64) (rec record, n int) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return record{}, 0
	}
	nActive := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if nActive < 1 || nActive > numBlocks {
		return record{}, 0
	}
	need := 4 + 4*nActive + 8*numBlocks + 4
	if int64(need) > left {
		return record{}, 0
	}
	if cap(*scratch) < need {
		*scratch = make([]byte, need)
	}
	buf := (*scratch)[:need]
	copy(buf, lenBuf[:])
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		return record{}, 0
	}
	body := buf[:len(buf)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(buf[len(buf)-4:]) {
		return record{}, 0
	}
	prev := -1
	for i := 0; i < nActive; i++ {
		cv := int(binary.LittleEndian.Uint32(body[4+4*i:]))
		if cv <= prev || cv >= numBlocks {
			return record{}, 0
		}
		prev = cv
	}
	temps := make([]float64, numBlocks)
	toff := 4 + 4*nActive
	for i := range temps {
		temps[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[toff+8*i:]))
	}
	return record{key: string(body[4 : 4+4*nActive]), temps: temps}, need
}

// memKey canonicalises an active set into the sorted little-endian byte key
// used by both the in-memory map and the record encoding. Empty sets are
// rejected: the record format reserves nActive >= 1 (a zero count reads as a
// corrupt record on load), and an all-idle "session" is not a simulation
// worth persisting.
func memKey(active []int, numBlocks int) (string, []int, error) {
	if len(active) == 0 {
		return "", nil, fmt.Errorf("%w: empty active set", ErrStore)
	}
	sorted := append([]int(nil), active...)
	sort.Ints(sorted)
	buf := make([]byte, 4*len(sorted))
	prev := -1
	for i, cv := range sorted {
		if cv == prev {
			// The oracle layer never passes duplicates; reject rather than
			// silently write a non-canonical record.
			return "", nil, fmt.Errorf("%w: duplicate core %d in active set", ErrStore, cv)
		}
		if cv < 0 || cv >= numBlocks {
			return "", nil, fmt.Errorf("%w: core %d outside [0,%d)", ErrStore, cv, numBlocks)
		}
		prev = cv
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(cv))
	}
	return string(buf), sorted, nil
}

// Get returns the stored temperatures for an active set, or false: the
// cache's own RAM mirror, shared with every caller and read-only.
func (c *SystemCache) Get(active []int) ([]float64, bool) {
	key, _, err := memKey(active, c.numBlocks)
	if err != nil {
		return nil, false
	}
	c.mu.Lock()
	temps, ok := c.mem[key]
	c.mu.Unlock()
	c.touch()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return temps, true
}

// Put persists one answer. Re-putting a known set is a no-op; temps must
// have one entry per block, and it is kept as the RAM mirror Get hands out,
// so nobody may write to it afterwards. The append is a single write on an
// O_APPEND descriptor (atomically positioned at EOF by the kernel), guarded
// by the cache's lock; a failed write is retried under the store's
// RetryPolicy with any torn tail truncated away first, so retries never land
// after garbage.
//
// Put degrades instead of failing: the answer is always memoized in RAM
// before the disk is touched, and a disk failure (after retries) feeds the
// store's breaker and counters but returns nil — the caller's simulation
// result is correct either way, and the record answers warm for the rest of
// this process's life. Only an evicted or closed cache still returns an
// error, because there the caller's expectation (a live persistent tier) is
// gone for good.
func (c *SystemCache) Put(active []int, temps []float64) error {
	if len(temps) != c.numBlocks {
		return fmt.Errorf("%w: %d temps for %d blocks", ErrStore, len(temps), c.numBlocks)
	}
	key, sorted, err := memKey(active, c.numBlocks)
	if err != nil {
		return err
	}
	c.touch()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log.f == nil && !c.log.memOnly {
		if c.evicted {
			return fmt.Errorf("%w: cache was evicted", ErrStore)
		}
		return fmt.Errorf("%w: cache is closed", ErrStore)
	}
	if _, ok := c.mem[key]; ok {
		return nil
	}
	c.mem[key] = temps

	buf := make([]byte, 0, 4+4*len(sorted)+8*len(temps)+4)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sorted)))
	for _, cv := range sorted {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(cv))
	}
	for _, t := range temps {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	// An append that ultimately fails may still have healed torn bytes
	// (truncate + rewrite), refreshing mtime without persisting anything, so
	// that case restores the pre-append stamp; a *successful* append is a
	// genuine use and keeps its fresh mtime.
	var pre os.FileInfo
	if c.log.f != nil {
		pre, _ = c.log.f.Stat()
	}
	if err := c.log.append(buf); err != nil && err != errSkipped && pre != nil {
		restoreTimes(c.log.fs, c.log.path, pre)
	}
	return nil
}

// Len returns the number of cached answers (loaded + appended).
func (c *SystemCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

// Loaded returns how many records the opening load recovered from disk — the
// warm-start count.
func (c *SystemCache) Loaded() int { return c.loaded }

// Duplicates returns how many records the opening load discarded because an
// earlier record already carried the same active set. A single-writer history
// produces zero; racing handles (see the package doc) can produce more.
func (c *SystemCache) Duplicates() int { return c.dupes }

// Recovered returns how many corrupt or torn bytes were discarded at load.
func (c *SystemCache) Recovered() int64 { return c.log.recovered }

// LastUse returns the time of the most recent open, Get or Put through this
// handle — the in-process half of the store's LRU clock.
func (c *SystemCache) LastUse() time.Time {
	return time.Unix(0, c.lastUse.Load())
}

// SizeBytes returns the record file's current size, 0 once evicted.
func (c *SystemCache) SizeBytes() int64 {
	st, err := c.log.fs.Stat(c.log.path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// Evicted reports whether Evict removed this system's file.
func (c *SystemCache) Evicted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}

// MemOnly reports whether the cache is running degraded (RAM mirror only,
// nothing persisted) — born that way under an open breaker, or flipped by an
// unhealable torn append.
func (c *SystemCache) MemOnly() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log.memOnly
}

// Evict closes the record file, deletes it from disk and drops the in-memory
// mirror, reclaiming both the disk budget and the heap. The handle stays
// valid but cold: Get misses (so an oracle above re-simulates — correctly,
// the cache held only derived data) and Put reports an error, which the
// store-oracle layer already treats as a non-fatal spill failure. Opening the
// system again through a Store creates a fresh file.
func (c *SystemCache) Evict() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.evicted {
		return nil
	}
	c.evicted = true
	c.log.memOnly = false
	var err error
	if c.log.f != nil {
		err = c.log.f.Close()
		c.log.f = nil
	}
	if rerr := c.log.fs.Remove(c.log.path); rerr != nil && !os.IsNotExist(rerr) && err == nil {
		err = rerr
	}
	c.mem = make(map[string][]float64)
	if err != nil {
		return fmt.Errorf("%w: evicting %s: %v", ErrStore, c.log.path, err)
	}
	return nil
}

// dirtyFileBytes snapshots the record file for a remote push when it has
// grown since the last successful push. Reading happens under the cache lock,
// so no append can interleave; a memory-only or evicted cache has nothing a
// remote could serve and reports clean.
func (c *SystemCache) dirtyFileBytes() (data []byte, size int64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.log.f // nil while memory-only and once evicted or closed
	if f == nil {
		return nil, 0, false
	}
	st, err := f.Stat()
	if err != nil || st.Size() <= c.pushedSize {
		return nil, 0, false
	}
	buf := make([]byte, st.Size())
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, 0, false
	}
	return buf, st.Size(), true
}

// setPushedSize records a successful remote push of the file at size bytes.
func (c *SystemCache) setPushedSize(size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.pushedSize {
		c.pushedSize = size
	}
}

// Stats returns the store-tier (hits, misses) counters: hits answered from
// disk-backed memory, misses that fell through to the inner oracle.
func (c *SystemCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Sync flushes appended records to stable storage.
func (c *SystemCache) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log.sync()
}

// close syncs and closes the record file. Get keeps answering from memory;
// Put starts failing.
func (c *SystemCache) close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log.close()
}

// storeOracle is the tier-2 oracle: answer from the SystemCache, otherwise
// query the inner oracle and persist its answer. Persist failures are
// deliberately non-fatal — the simulation result is correct whether or not
// the spill landed, and a read-only cache directory should degrade a run,
// not kill it.
type storeOracle struct {
	cache *SystemCache
	inner core.Oracle
}

// Wrap layers the cache over an existing oracle.
func (c *SystemCache) Wrap(inner core.Oracle) core.Oracle {
	return &storeOracle{cache: c, inner: inner}
}

// BlockTemps implements core.Oracle.
func (o *storeOracle) BlockTemps(active []int) ([]float64, error) {
	if temps, ok := o.cache.Get(active); ok {
		return temps, nil
	}
	temps, err := o.inner.BlockTemps(active)
	if err != nil {
		return nil, err
	}
	_ = o.cache.Put(active, temps)
	return temps, nil
}

// BlockTempsBatch implements core.BatchOracle: store misses are forwarded to
// the inner oracle as one batch (which a grid oracle spreads over goroutines
// and blocked passes) and each answer is persisted in index order after the
// batch returns, so the hit/miss counters and the records on disk come out
// exactly as if the sessions had been queried one at a time. An inner batch
// that answers a different number of sessions than it was asked is an error.
func (o *storeOracle) BlockTempsBatch(sessions [][]int) ([][]float64, error) {
	out := make([][]float64, len(sessions))
	var missIdx []int
	for i, s := range sessions {
		if temps, ok := o.cache.Get(s); ok {
			out[i] = temps
		} else {
			missIdx = append(missIdx, i)
		}
	}
	if len(missIdx) == 0 {
		return out, nil
	}
	miss := make([][]int, len(missIdx))
	for k, i := range missIdx {
		miss[k] = sessions[i]
	}
	var res [][]float64
	var err error
	if b, ok := o.inner.(core.BatchOracle); ok {
		res, err = b.BlockTempsBatch(miss)
	} else {
		res = make([][]float64, len(miss))
		for k := 0; k < len(miss) && err == nil; k++ {
			res[k], err = o.inner.BlockTemps(miss[k])
		}
	}
	if err != nil {
		return nil, err
	}
	if len(res) != len(miss) {
		return nil, fmt.Errorf("%w: inner batch answered %d of %d sessions", ErrStore, len(res), len(miss))
	}
	for k, i := range missIdx {
		out[i] = res[k]
		_ = o.cache.Put(sessions[i], res[k])
	}
	return out, nil
}

var _ core.BatchOracle = (*storeOracle)(nil)
