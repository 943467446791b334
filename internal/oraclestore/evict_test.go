package oraclestore

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

// syntheticDesc returns the alpha system under a synthetic backend name, so
// each i is a distinct content address (and so a distinct record file).
func syntheticDesc(t *testing.T, i int) SystemDesc {
	t.Helper()
	desc, _, _ := alphaDesc(t)
	desc.Backend = fmt.Sprintf("synthetic-%d", i)
	return desc
}

// fillSynthetic creates n synthetic system files with r records each and
// returns their paths in creation order. The store is closed on return.
func fillSynthetic(t *testing.T, dir string, n, r int) []string {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, n)
	temps := make([]float64, 15)
	for i := 0; i < n; i++ {
		sc, err := st.System(syntheticDesc(t, i))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < r; j++ {
			temps[0] = float64(i*1000 + j)
			if err := sc.Put([]int{j % 15}, slices.Clone(temps)); err != nil {
				t.Fatal(err)
			}
		}
		paths[i] = sc.Path()
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return paths
}

// stampAges gives paths[i] a distinct age: paths[0] oldest, last newest.
func stampAges(t *testing.T, paths []string) {
	t.Helper()
	base := time.Now().Add(-time.Duration(len(paths)+1) * time.Hour)
	for i, p := range paths {
		ts := base.Add(time.Duration(i) * time.Hour)
		if err := os.Chtimes(p, ts, ts); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreEvictLRUBudget fills a store past a budget and asserts Evict
// removes exactly the least-recently-used files, oldest first, until the
// directory fits — and that every survivor still loads.
func TestStoreEvictLRUBudget(t *testing.T) {
	dir := t.TempDir()
	const n = 5
	paths := fillSynthetic(t, dir, n, 6)
	stampAges(t, paths)

	var sizes []int64
	var total int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, fi.Size())
		total += fi.Size()
	}

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stats, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Files != n || stats.Bytes != total {
		t.Fatalf("Stats = %d files / %d bytes, want %d / %d", stats.Files, stats.Bytes, n, total)
	}

	// Budget that keeps the two newest files: evicting the three oldest is
	// both necessary and sufficient.
	budget := sizes[3] + sizes[4]
	evicted, err := st.Evict(budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 3 {
		t.Fatalf("evicted %d files, want 3", len(evicted))
	}
	for i, ev := range evicted {
		if ev.Path != paths[i] {
			t.Errorf("victim %d = %s, want the %d-th oldest %s", i, ev.Path, i, paths[i])
		}
		if _, err := os.Stat(ev.Path); !os.IsNotExist(err) {
			t.Errorf("victim %s still on disk", ev.Path)
		}
	}
	stats, err = st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Files != 2 || stats.Bytes > budget {
		t.Fatalf("post-evict Stats = %d files / %d bytes, want 2 files <= %d bytes", stats.Files, stats.Bytes, budget)
	}
	if stats.EvictedFiles != 3 || stats.EvictedBytes != sizes[0]+sizes[1]+sizes[2] {
		t.Fatalf("eviction counters = %d files / %d bytes, want 3 / %d",
			stats.EvictedFiles, stats.EvictedBytes, sizes[0]+sizes[1]+sizes[2])
	}

	// Survivors still load warm; victims start over empty.
	for i := 0; i < n; i++ {
		sc, err := st.System(syntheticDesc(t, i))
		if err != nil {
			t.Fatal(err)
		}
		wantLoaded := 0
		if i >= 3 {
			wantLoaded = 6
		}
		if sc.Loaded() != wantLoaded {
			t.Errorf("system %d loaded %d records, want %d", i, sc.Loaded(), wantLoaded)
		}
	}

	// A store already inside its budget evicts nothing.
	if more, err := st.Evict(1 << 30); err != nil || more != nil {
		t.Fatalf("Evict under budget = %v, %v; want nil, nil", more, err)
	}
}

// fixedOracle answers every query with a constant vector and counts calls.
type fixedOracle struct {
	n     int
	calls int
}

func (f *fixedOracle) BlockTemps([]int) ([]float64, error) {
	f.calls++
	out := make([]float64, f.n)
	for i := range out {
		out[i] = 77
	}
	return out, nil
}

// TestStoreEvictOpenSystemReSimulates evicts a system that is open and in
// use: the live handle goes cold (Get misses, Put fails softly through the
// oracle layer), queries re-simulate correctly, and re-opening the system
// through the store starts a fresh file that persists again.
func TestStoreEvictOpenSystemReSimulates(t *testing.T) {
	dir := t.TempDir()
	desc, spec, _ := alphaDesc(t)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sc, err := st.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	inner := &fixedOracle{n: spec.NumCores()}
	oracle := sc.Wrap(inner)

	if _, err := oracle.BlockTemps([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.BlockTemps([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if inner.calls != 1 {
		t.Fatalf("inner simulated %d times before eviction, want 1", inner.calls)
	}

	// Budget 0 is the "clear everything" spelling.
	evicted, err := st.Evict(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 {
		t.Fatalf("evicted %d files, want 1", len(evicted))
	}
	if !sc.Evicted() {
		t.Fatal("open SystemCache not marked evicted")
	}
	if _, ok := sc.Get([]int{1, 2}); ok {
		t.Fatal("evicted cache still answers")
	}
	if err := sc.Put([]int{3}, make([]float64, spec.NumCores())); err == nil {
		t.Fatal("Put on evicted cache succeeded")
	}

	// The wrapped oracle keeps answering — by re-simulating — and the failed
	// spill is non-fatal.
	if temps, err := oracle.BlockTemps([]int{1, 2}); err != nil || temps[0] != 77 {
		t.Fatalf("post-eviction query = %v, %v", temps, err)
	}
	if inner.calls != 2 {
		t.Fatalf("inner simulated %d times after eviction, want 2 (re-simulation)", inner.calls)
	}

	// Re-opening through the store starts a fresh file.
	sc2, err := st.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	if sc2 == sc {
		t.Fatal("store returned the evicted handle")
	}
	if err := sc2.Put([]int{1, 2}, make([]float64, spec.NumCores())); err != nil {
		t.Fatal(err)
	}
	if sc2.Len() != 1 || sc2.Appended() != 1 {
		t.Fatalf("fresh cache Len/Appended = %d/%d, want 1/1", sc2.Len(), sc2.Appended())
	}
}

// TestStoreEvictTornWriteRecovery: a file with a torn tail coexists with an
// eviction pass that removes its older sibling; re-opening the survivor
// still recovers cleanly.
func TestStoreEvictTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	paths := fillSynthetic(t, dir, 2, 4)
	// Tear the newer file's tail: a partial append, as a crash would leave.
	f, err := os.OpenFile(paths[1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	stampAges(t, paths)

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fi, err := os.Stat(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	evicted, err := st.Evict(fi.Size())
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0].Path != paths[0] {
		t.Fatalf("evicted %v, want exactly the older file %s", evicted, paths[0])
	}

	sc, err := st.System(syntheticDesc(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Recovered() != 3 {
		t.Fatalf("Recovered() = %d bytes, want 3 (the torn tail)", sc.Recovered())
	}
	if sc.Loaded() != 4 || sc.Duplicates() != 0 {
		t.Fatalf("Loaded/Duplicates = %d/%d, want 4/0", sc.Loaded(), sc.Duplicates())
	}
	if _, ok := sc.Get([]int{0}); !ok {
		t.Fatal("recovered record missing")
	}
}

// TestStoreEvictInProcessLRUClock: with every file equally old on disk, the
// in-process access clock decides — the least recently *used* open system is
// the victim.
func TestStoreEvictInProcessLRUClock(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	temps := make([]float64, 15)
	var caches []*SystemCache
	for i := 0; i < 3; i++ {
		sc, err := st.System(syntheticDesc(t, i))
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Put([]int{i}, temps); err != nil {
			t.Fatal(err)
		}
		caches = append(caches, sc)
	}
	// Touch 0 and 2, leaving 1 the least recently used.
	time.Sleep(2 * time.Millisecond)
	caches[0].Get([]int{0})
	caches[2].Get([]int{2})

	stats, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	evicted, err := st.Evict(stats.Bytes - 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0].Path != caches[1].Path() {
		t.Fatalf("evicted %v, want the untouched system %s", evicted, caches[1].Path())
	}
	if !caches[1].Evicted() || caches[0].Evicted() || caches[2].Evicted() {
		t.Fatal("wrong live handles marked evicted")
	}
}

// TestDescForBlockModelMatchesBuiltModel: a description read off a built
// block model hashes to the same content address as the model-free one that
// experiments.OracleDesc gives the schedule service and every Env — the
// invariant the service's warm-map lookup relies on — and the model-free one
// names the backend of its side of the dense/sparse cutoff: alpha (dense)
// and an 80-block random floorplan (sparse). thermal's
// TestNewModelBackendFollowsBlockCount pins NewModel's factorization to the
// same name.
func TestDescForBlockModelMatchesBuiltModel(t *testing.T) {
	fp, err := floorplan.Random(floorplan.RandomOptions{Blocks: 80, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	var lines strings.Builder
	for i := 0; i < fp.NumBlocks(); i++ {
		fmt.Fprintf(&lines, "%s 2.0 6.0 1.0\n", fp.Block(i).Name)
	}
	random, err := testspec.ParseString(lines.String(), "random80", fp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := thermal.DefaultPackageConfig()
	for _, c := range []struct {
		spec    *testspec.Spec
		backend string
	}{
		{testspec.Alpha21364(), "dense-cholesky"},
		{random, "sparse-cholesky"},
	} {
		m, err := thermal.NewModel(c.spec.Floorplan(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		desc := DescForBlockModel(c.spec.Floorplan(), cfg, c.spec.Profile())
		if desc.Backend != c.backend {
			t.Errorf("%s: backend %q, want %q", c.spec.Name(), desc.Backend, c.backend)
		}
		built := SystemDesc{Floorplan: m.Floorplan(), Package: m.Config(), Profile: c.spec.Profile(), Backend: c.backend}
		a, err := built.Key()
		if err != nil {
			t.Fatal(err)
		}
		b, err := desc.Key()
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: DescForBlockModel key %x != built model's key %x", c.spec.Name(), b, a)
		}
	}
}

var _ core.Oracle = (*fixedOracle)(nil)
