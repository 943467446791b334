package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// countingOracle wraps an Oracle and counts calls, to cross-check the
// generator's own effort accounting and the caches' hit paths. The counter
// is atomic, so a countingOracle may sit under a batch fan-out or a
// concurrent sweep without racing.
type countingOracle struct {
	Inner Oracle
	calls atomic.Int64
}

// BlockTemps implements Oracle.
func (c *countingOracle) BlockTemps(active []int) ([]float64, error) {
	c.calls.Add(1)
	return c.Inner.BlockTemps(active)
}

// BlockTempsBatch implements BatchOracle; a k-session batch counts as k
// simulations, so Calls keeps meaning "sessions simulated" on either path.
func (c *countingOracle) BlockTempsBatch(sessions [][]int) ([][]float64, error) {
	c.calls.Add(int64(len(sessions)))
	if b, ok := c.Inner.(BatchOracle); ok {
		return b.BlockTempsBatch(sessions)
	}
	return sweepBlockTemps(c.Inner, sessions)
}

// Calls returns the number of sessions simulated so far.
func (c *countingOracle) Calls() int64 { return c.calls.Load() }

func TestCachedOracleKeysIgnoreOrder(t *testing.T) {
	_, _, oracle := alphaGenSetup(t)
	counting := &countingOracle{Inner: oracle}
	cached := NewCachedOracle(counting)

	a, err := cached.BlockTemps([]int{0, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cached.BlockTemps([]int{5, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("permuted active set changed temps at block %d: %g vs %g", i, a[i], b[i])
		}
	}
	if counting.Calls() != 1 {
		t.Errorf("inner calls = %d, want 1 (order-insensitive key)", counting.Calls())
	}
	if h, m := cached.Stats(); h != 1 || m != 1 {
		t.Errorf("stats = (%d hits, %d misses), want (1, 1)", h, m)
	}
}

// TestCachedOracleHitsShareFirstAnswer: answers are read-only and shared, so
// a hit on either path hands out the backing array of the key's first answer
// rather than a copy of it.
func TestCachedOracleHitsShareFirstAnswer(t *testing.T) {
	_, _, oracle := alphaGenSetup(t)
	cached := NewCachedOracle(oracle)
	a, err := cached.BlockTemps([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cached.BlockTemps([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := cached.BlockTempsBatch([][]int{{2}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	for i, hit := range [][]float64{b, batch[0], batch[1]} {
		if &hit[0] != &a[0] || len(hit) != len(a) {
			t.Errorf("hit %d is not the first answer's backing array", i)
		}
	}
}

func TestCachedOracleMidSetMaskKey(t *testing.T) {
	// Cores in [64, 256) ride the fixed-size [4]uint64 mask key — no string
	// fallback — and permutations must still collapse to one simulation.
	n := 200
	solo := make([]float64, n)
	for i := range solo {
		solo[i] = 100 + float64(i)
	}
	inner := &countingOracle{Inner: &fakeOracle{solo: solo, coupling: 1, ambient: 45}}
	cached := NewCachedOracle(inner)
	if _, err := cached.BlockTemps([]int{70, 2, 199, 65}); err != nil {
		t.Fatal(err)
	}
	if _, err := cached.BlockTemps([]int{65, 199, 70, 2}); err != nil {
		t.Fatal(err)
	}
	if inner.Calls() != 1 {
		t.Errorf("inner calls = %d, want 1 via mask key", inner.Calls())
	}
	if len(cached.big) != 0 {
		t.Errorf("string-key fallback used for %d sets; [64,256) cores should mask-key", len(cached.big))
	}
}

func TestCachedOracleBigSetFallback(t *testing.T) {
	// Cores >= 256 cannot be bitmask-keyed; the canonical-string fallback
	// must still dedupe permutations.
	n := 300
	solo := make([]float64, n)
	for i := range solo {
		solo[i] = 100 + float64(i)
	}
	inner := &countingOracle{Inner: &fakeOracle{solo: solo, coupling: 1, ambient: 45}}
	cached := NewCachedOracle(inner)
	if _, err := cached.BlockTemps([]int{280, 2, 65}); err != nil {
		t.Fatal(err)
	}
	if _, err := cached.BlockTemps([]int{65, 280, 2}); err != nil {
		t.Fatal(err)
	}
	if inner.Calls() != 1 {
		t.Errorf("inner calls = %d, want 1 via string key", inner.Calls())
	}
	if len(cached.big) != 1 {
		t.Errorf("big map holds %d entries, want 1 (sets with cores >= 256 fall back)", len(cached.big))
	}
}

func TestMaskKeyDistinctAcrossWords(t *testing.T) {
	// One core per 64-bit word: the four masks must be pairwise distinct
	// (a regression guard against folding words together), and sets just
	// past the 256-core edge must refuse the mask path.
	seen := map[mask256]bool{}
	for _, c := range []int{0, 63, 64, 127, 128, 191, 192, 255} {
		m, ok := maskKey([]int{c})
		if !ok {
			t.Fatalf("maskKey([%d]) rejected a core in [0,256)", c)
		}
		if seen[m] {
			t.Fatalf("maskKey([%d]) collided with an earlier single-core set", c)
		}
		seen[m] = true
	}
	if _, ok := maskKey([]int{256}); ok {
		t.Error("maskKey accepted core 256")
	}
	if _, ok := maskKey([]int{-1}); ok {
		t.Error("maskKey accepted a negative core")
	}
}

func TestCachedOracleMemoizesErrors(t *testing.T) {
	_, _, oracle := alphaGenSetup(t)
	failing := &failingOracle{inner: oracle, after: 0}
	cached := NewCachedOracle(failing)
	if _, err := cached.BlockTemps([]int{1}); err == nil {
		t.Fatal("expected propagated error")
	}
	if _, err := cached.BlockTemps([]int{1}); err == nil {
		t.Fatal("expected memoized error")
	}
	if got := failing.calls.Load(); got != 1 {
		t.Errorf("inner calls = %d, want 1 (errors memoized, no retry storm)", got)
	}
}

func TestCachedOracleConcurrentDedup(t *testing.T) {
	// Many goroutines hammer the same small set of keys; the inner oracle
	// must run exactly once per distinct key and every caller must see the
	// same temperatures.
	_, _, oracle := alphaGenSetup(t)
	counting := &countingOracle{Inner: oracle}
	cached := NewCachedOracle(counting)

	sessions := [][]int{{0}, {1}, {0, 1}, {2, 7, 11}, {3, 4}}
	want := make([][]float64, len(sessions))
	for i, s := range sessions {
		temps, err := oracle.BlockTemps(s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = temps
	}
	counting.calls.Store(0)

	const goroutines = 16
	const rounds = 50
	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(sessions)
				temps, err := cached.BlockTemps(sessions[i])
				if err != nil {
					failures.Add(1)
					return
				}
				for k := range temps {
					if math.Abs(temps[k]-want[i][k]) > 1e-12 {
						failures.Add(1)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d goroutines saw wrong temps or errors", failures.Load())
	}
	if counting.Calls() != int64(len(sessions)) {
		t.Errorf("inner calls = %d, want %d (one per distinct key)", counting.Calls(), len(sessions))
	}
	h, m := cached.Stats()
	if m != int64(len(sessions)) {
		t.Errorf("misses = %d, want %d (deterministic under concurrency)", m, len(sessions))
	}
	if h+m != goroutines*rounds {
		t.Errorf("hits+misses = %d, want %d", h+m, goroutines*rounds)
	}
}

func TestCachedOracleAccountingUnderGenerator(t *testing.T) {
	// Two identical generator runs through one shared cache: the second run
	// must be answered entirely from the cache, and the per-run query count
	// must match the generator's own effort accounting.
	spec, sm, oracle := alphaGenSetup(t)
	cached := NewCachedOracle(oracle)
	cfg := Config{TL: 165, STCL: 60}

	first, err := Generate(spec, sm, cached, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h1, m1 := cached.Stats()
	queries := int64(spec.NumCores() + first.Attempts)
	if h1+m1 != queries {
		t.Errorf("first run: hits+misses = %d, want %d oracle queries", h1+m1, queries)
	}
	if m1 == 0 || m1 > queries {
		t.Errorf("first run: misses = %d out of %d queries", m1, queries)
	}

	second, err := Generate(spec, sm, cached, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h2, m2 := cached.Stats()
	if m2 != m1 {
		t.Errorf("second identical run simulated %d new sessions, want 0", m2-m1)
	}
	if h2-h1 != queries {
		t.Errorf("second run: %d hits, want all %d queries cached", h2-h1, queries)
	}
	if first.Schedule.Describe(spec) != second.Schedule.Describe(spec) {
		t.Error("cached run produced a different schedule")
	}
}

func TestCountingOracleConcurrent(t *testing.T) {
	// The atomic counter must survive concurrent callers without losing
	// increments (this is a data race with a plain int field; run under
	// -race in CI).
	_, _, oracle := alphaGenSetup(t)
	counting := &countingOracle{Inner: oracle}
	const goroutines = 8
	const calls = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if _, err := counting.BlockTemps([]int{g % 15}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if counting.Calls() != goroutines*calls {
		t.Errorf("calls = %d, want %d", counting.Calls(), goroutines*calls)
	}
}

func TestCachedOracleErrorsAreErrors(t *testing.T) {
	// Sanity: a cached error still matches errors.Is/As chains.
	inner := &failingOracle{inner: nil, after: 0}
	cached := NewCachedOracle(inner)
	_, err := cached.BlockTemps([]int{0})
	if err == nil || !errors.Is(err, err) {
		t.Fatal("expected an error value")
	}
}

func TestCachedOracleBatch(t *testing.T) {
	inner := &fakeOracle{solo: []float64{90, 95, 100, 105}, coupling: 2, ambient: 40}
	c := NewCachedOracle(inner)
	// Warm one key through the single path.
	warm, err := c.BlockTemps([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	// Batch mixing a hit, two misses and a within-batch repeat.
	sessions := [][]int{{0}, {1}, {2, 3}, {1}}
	got, err := c.BlockTempsBatch(sessions)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := c.Stats(); hits != 2 || misses != 3 {
		t.Errorf("stats = (%d hits, %d misses), want (2, 3): counts must match serial querying", hits, misses)
	}
	for i, s := range sessions {
		want, err := inner.BlockTemps(s)
		if err != nil {
			t.Fatal(err)
		}
		for b := range want {
			if got[i][b] != want[b] {
				t.Fatalf("batch session %v block %d: %g, want %g", s, b, got[i][b], want[b])
			}
		}
	}
	for b := range warm {
		if got[0][b] != warm[b] {
			t.Fatalf("batch hit differs from warmed single query at block %d", b)
		}
	}
	// Hits share the answer the batch filled the entry with, by reference:
	// the within-batch repeat and a later single query alike.
	again, err := c.BlockTemps([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &got[1][0] || &got[3][0] != &got[1][0] {
		t.Error("a hit on {1} is not the batch's first answer's backing array")
	}
	// A second identical batch is all hits, no inner traffic.
	before := c.misses.Load()
	if _, err := c.BlockTempsBatch(sessions); err != nil {
		t.Fatal(err)
	}
	if c.misses.Load() != before {
		t.Error("repeat batch re-simulated cached sessions")
	}
}

func TestCachedOracleBatchMemoizesErrors(t *testing.T) {
	// A failing inner batch falls back to per-session queries so each key
	// memoizes its own error, exactly like the serial path.
	boom := &erroringOracle{}
	c := NewCachedOracle(boom)
	if _, err := c.BlockTempsBatch([][]int{{0}, {1}}); err == nil {
		t.Fatal("expected batch error")
	}
	calls := boom.calls
	if _, err := c.BlockTemps([]int{0}); err == nil {
		t.Fatal("expected memoized error")
	}
	if boom.calls != calls {
		t.Errorf("error was re-simulated: %d calls, want %d", boom.calls, calls)
	}
}

// shortBatchOracle answers every single query like inner, but its batch path
// drops the last session while reporting no error.
type shortBatchOracle struct{ inner Oracle }

func (o shortBatchOracle) BlockTemps(active []int) ([]float64, error) {
	return o.inner.BlockTemps(active)
}

func (o shortBatchOracle) BlockTempsBatch(sessions [][]int) ([][]float64, error) {
	out, err := sweepBlockTemps(o.inner, sessions)
	return out[:len(out)-1], err
}

// TestCachedOracleBatchShortInnerResult: an inner batch that answers one
// session too few, with a nil error, is a whole-batch failure, so every miss
// falls back to its own query instead of panicking on the missing index.
func TestCachedOracleBatchShortInnerResult(t *testing.T) {
	inner := &fakeOracle{solo: []float64{90, 95, 100, 105}, coupling: 2, ambient: 40}
	c := NewCachedOracle(shortBatchOracle{inner})
	sessions := [][]int{{0}, {1, 2}, {3}}
	got, err := c.BlockTempsBatch(sessions)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sessions) {
		t.Fatalf("%d results for %d sessions", len(got), len(sessions))
	}
	for i, s := range sessions {
		want, _ := inner.BlockTemps(s)
		for b := range want {
			if got[i][b] != want[b] {
				t.Fatalf("session %v block %d: %g, want %g", s, b, got[i][b], want[b])
			}
		}
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 3 {
		t.Errorf("stats = (%d hits, %d misses), want (0, 3)", hits, misses)
	}
}

// erroringOracle fails every query and counts them.
type erroringOracle struct{ calls int }

func (e *erroringOracle) BlockTemps(active []int) ([]float64, error) {
	e.calls++
	return nil, fmt.Errorf("synthetic failure for %v", active)
}
