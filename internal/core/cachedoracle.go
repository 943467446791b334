package core

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// CachedOracle memoizes an inner Oracle's BlockTemps answers by active set.
// The oracle contract requires determinism, so a session's temperature field
// depends only on *which* cores are active, never on query order — exactly
// the property the experiment sweeps waste today by re-simulating the same
// sessions for every (TL, STCL) grid cell (the 15 phase-1 solo simulations
// alone are repeated once per cell).
//
// Active sets whose cores all fit in [0, 256) are keyed by a fixed-size
// 256-bit mask (a comparable [4]uint64 array, so it is a valid map key with
// no per-query allocation); anything larger falls back to a canonical
// sorted-index string, so arbitrarily large floorplans still cache correctly.
//
// CachedOracle is safe for concurrent use. Concurrent misses on the same key
// are deduplicated: exactly one goroutine runs the inner simulation while the
// others wait for its result, which keeps the hit/miss counters deterministic
// (misses == distinct active sets ever queried) regardless of scheduling.
// Errors are memoized alongside results — the inner oracle is deterministic,
// so retrying a failed key would only repeat the failure. A hit returns the
// memo entry itself, never a copy: an answer is shared and read-only.
type CachedOracle struct {
	inner Oracle

	mu    sync.Mutex
	small map[mask256]*cacheEntry
	big   map[string]*cacheEntry

	hits   atomic.Int64
	misses atomic.Int64
}

// cacheEntry is one memoized answer; once gates the single inner simulation.
type cacheEntry struct {
	once  sync.Once
	temps []float64
	err   error
}

// NewCachedOracle wraps inner with a concurrency-safe memo table.
func NewCachedOracle(inner Oracle) *CachedOracle {
	return &CachedOracle{
		inner: inner,
		small: make(map[mask256]*cacheEntry),
		big:   make(map[string]*cacheEntry),
	}
}

// mask256 is a 256-core active-set bitmask. Being a fixed-size array it is
// comparable, so it keys the fast map directly — no string building, no
// allocation — and covers every floorplan up to 256 cores.
type mask256 [4]uint64

// maskKey packs an active set into a bitmask when every core fits in
// [0, 256).
func maskKey(active []int) (mask256, bool) {
	var mask mask256
	for _, c := range active {
		if c < 0 || c >= 256 {
			return mask256{}, false
		}
		mask[c>>6] |= 1 << uint(c&63)
	}
	return mask, true
}

// stringKey canonicalises an active set into a sorted comma-joined string.
func stringKey(active []int) string {
	sorted := append([]int(nil), active...)
	sort.Ints(sorted)
	var sb strings.Builder
	for i, c := range sorted {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(c))
	}
	return sb.String()
}

// entryFor returns the cache entry for the active set, creating it on first
// sight, and reports whether it already existed.
func (c *CachedOracle) entryFor(active []int) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if mask, ok := maskKey(active); ok {
		if e, ok := c.small[mask]; ok {
			return e, true
		}
		e := &cacheEntry{}
		c.small[mask] = e
		return e, false
	}
	key := stringKey(active)
	if e, ok := c.big[key]; ok {
		return e, true
	}
	e := &cacheEntry{}
	c.big[key] = e
	return e, false
}

// BlockTemps implements Oracle, returning the memo entry itself.
func (c *CachedOracle) BlockTemps(active []int) ([]float64, error) {
	e, hit := c.entryFor(active)
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() {
		e.temps, e.err = c.inner.BlockTemps(active)
	})
	if e.err != nil {
		return nil, e.err
	}
	return e.temps, nil
}

// BlockTempsBatch implements BatchOracle: the misses of one batch are
// forwarded to the inner oracle's batch path in a single call (when it has
// one), so a grid-resolution miss burst is solved by the grid oracle's
// fan-out and blocked passes while the memo fills stay in index order.
// Hit/miss accounting is identical to querying the sessions one at a time —
// each entryFor call counts exactly once, and a session repeated within the
// batch hits the entry its first occurrence created. If the inner batch call
// fails, or answers a different number of sessions than it was asked, the
// misses fall back to per-session queries so errors are memoized per key
// exactly as on the serial path.
func (c *CachedOracle) BlockTempsBatch(sessions [][]int) ([][]float64, error) {
	entries := make([]*cacheEntry, len(sessions))
	var missIdx []int
	for i, s := range sessions {
		e, hit := c.entryFor(s)
		entries[i] = e
		if hit {
			c.hits.Add(1)
		} else {
			c.misses.Add(1)
			missIdx = append(missIdx, i)
		}
	}
	if len(missIdx) > 0 {
		if b, ok := c.inner.(BatchOracle); ok {
			miss := make([][]int, len(missIdx))
			for k, i := range missIdx {
				miss[k] = sessions[i]
			}
			// The inner batch runs lazily inside the first miss entry's once,
			// so the per-key single-simulation guarantee holds for every
			// entry this batch claims: a concurrent query on one of these
			// keys waits on the once instead of re-simulating. (A key whose
			// once a concurrent single query won before we got here is
			// simulated on both paths — deterministic, so either answer is
			// the answer — and our fill for it becomes a no-op.)
			var batchOnce sync.Once
			var res [][]float64
			var batchErr error
			for k, i := range missIdx {
				e, kk, s := entries[i], k, sessions[i]
				e.once.Do(func() {
					batchOnce.Do(func() { res, batchErr = b.BlockTempsBatch(miss) })
					if batchErr != nil || len(res) != len(miss) {
						// A failed or short batch has no per-session attribution;
						// rerun this key alone so its own error is memoized,
						// exactly as the serial path would.
						e.temps, e.err = c.inner.BlockTemps(s)
						return
					}
					e.temps = res[kk]
				})
			}
		}
	}
	out := make([][]float64, len(sessions))
	for i, e := range entries {
		s := sessions[i]
		e.once.Do(func() { e.temps, e.err = c.inner.BlockTemps(s) })
		if e.err != nil {
			return nil, e.err
		}
		out[i] = e.temps
	}
	return out, nil
}

// Stats returns (hits, misses) as one consistent-enough snapshot for
// reporting.
func (c *CachedOracle) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

var _ BatchOracle = (*CachedOracle)(nil)
