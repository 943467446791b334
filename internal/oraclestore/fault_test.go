package oraclestore_test

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	. "repro/internal/oraclestore"
	"repro/internal/oraclestore/faultfs"
)

// faultStore opens a store over a faultfs.FaultFS with fast, deterministic
// policies.
func faultStore(t *testing.T, dir string, retry RetryPolicy, brk BreakerPolicy) (*Store, *faultfs.FaultFS) {
	t.Helper()
	ffs := faultfs.New(nil)
	st, err := OpenWithOptions(dir, StoreOptions{FS: ffs, Retry: retry, Breaker: brk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, ffs
}

// TestAppendRetriesTransientFault: a single injected EIO on the append is
// absorbed by the retry loop — the Put succeeds, the record lands on disk,
// and a clean reload recovers nothing.
func TestAppendRetriesTransientFault(t *testing.T) {
	dir := t.TempDir()
	st, ffs := faultStore(t, dir, RetryPolicy{Attempts: 4, Base: time.Microsecond, Cap: time.Microsecond}, BreakerPolicy{})
	desc, _, _ := AlphaDesc(t)
	sc, err := st.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	nb := desc.Floorplan.NumBlocks()

	ffs.Inject(faultfs.Fault{Op: faultfs.OpAppend, Err: syscall.EIO, Count: 1})
	if err := sc.Put([]int{0, 2}, TempsFor(nb, 50)); err != nil {
		t.Fatalf("Put with one transient fault: %v", err)
	}
	h := st.Health()
	if h.AppendRetries != 1 || h.AppendFailures != 0 || h.Unpersisted != 0 {
		t.Errorf("health after transient fault = %+v, want 1 retry, 0 failures, 0 unpersisted", h)
	}
	if h.Breaker != BreakerClosed {
		t.Errorf("breaker = %v after a recovered retry, want closed", h.Breaker)
	}
	st.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sc2, err := st2.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	if sc2.Loaded() != 1 || sc2.Recovered() != 0 || sc2.Duplicates() != 0 {
		t.Errorf("reload: loaded=%d recovered=%d dupes=%d, want 1/0/0",
			sc2.Loaded(), sc2.Recovered(), sc2.Duplicates())
	}
}

// TestTornAppendHealedBeforeRetry: the injected fault writes a prefix of the
// record before failing (a torn append). The retry loop must truncate the
// torn bytes away before writing again, so the final file carries exactly
// one clean record and the next load recovers zero bytes.
func TestTornAppendHealedBeforeRetry(t *testing.T) {
	dir := t.TempDir()
	st, ffs := faultStore(t, dir, RetryPolicy{Attempts: 4, Base: time.Microsecond, Cap: time.Microsecond}, BreakerPolicy{})
	desc, _, _ := AlphaDesc(t)
	sc, err := st.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	nb := desc.Floorplan.NumBlocks()

	ffs.Inject(faultfs.Fault{Op: faultfs.OpAppend, Err: syscall.EIO, TornBytes: 7, Count: 2})
	if err := sc.Put([]int{1}, TempsFor(nb, 60)); err != nil {
		t.Fatalf("Put with torn faults: %v", err)
	}
	if got := ffs.OpCount(faultfs.OpTruncate); got != 2 {
		t.Errorf("truncate ops = %d, want 2 (one per torn attempt)", got)
	}
	st.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sc2, err := st2.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	if sc2.Loaded() != 1 || sc2.Recovered() != 0 {
		t.Errorf("reload after torn appends: loaded=%d recovered=%d, want 1/0", sc2.Loaded(), sc2.Recovered())
	}
	temps, ok := sc2.Get([]int{1})
	if !ok || temps[0] != 60 {
		t.Errorf("record content lost across torn-append healing: ok=%v temps[0]=%v", ok, temps)
	}
}

// TestBreakerOpensAndServesMemoryOnly: persistent append failure trips the
// breaker; further Puts memoize without touching the disk at all, Gets keep
// answering, and Health reports the degradation.
func TestBreakerOpensAndServesMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	st, ffs := faultStore(t, dir,
		RetryPolicy{Attempts: 1, Base: time.Microsecond, Cap: time.Microsecond},
		BreakerPolicy{Failures: 2, Probe: time.Hour})
	desc, _, _ := AlphaDesc(t)
	sc, err := st.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	nb := desc.Floorplan.NumBlocks()

	ffs.Inject(faultfs.Fault{Op: faultfs.OpAppend, Err: syscall.EIO})
	for i := 0; i < 2; i++ {
		if err := sc.Put([]int{i}, TempsFor(nb, float64(40+i))); err != nil {
			t.Fatalf("Put %d: %v (disk failure must degrade, not error)", i, err)
		}
	}
	if got := st.Health().Breaker; got != BreakerOpen {
		t.Fatalf("breaker = %v after %d failed appends, want open", got, 2)
	}
	appendsBefore := ffs.OpCount(faultfs.OpAppend)
	if err := sc.Put([]int{5}, TempsFor(nb, 70)); err != nil {
		t.Fatalf("Put under open breaker: %v", err)
	}
	if got := ffs.OpCount(faultfs.OpAppend); got != appendsBefore {
		t.Errorf("open breaker still touched disk: appends %d -> %d", appendsBefore, got)
	}
	for i, want := range map[int]float64{0: 40, 1: 41, 5: 70} {
		temps, ok := sc.Get([]int{i})
		if !ok || temps[i] != want+float64(i) {
			t.Errorf("Get(%d) after degradation: ok=%v", i, ok)
		}
	}
	h := st.Health()
	if h.AppendFailures != 2 || h.Unpersisted != 3 {
		t.Errorf("health = %+v, want 2 append failures and 3 unpersisted", h)
	}
	if h.LastError == "" {
		t.Error("health.LastError empty while degraded")
	}
}

// TestProbeClosesBreakerAndPersistenceResumes: once the fault is cleared and
// the probe interval has elapsed, Probe half-opens the breaker, the trial
// write succeeds, and subsequent Puts persist to disk again.
func TestProbeClosesBreakerAndPersistenceResumes(t *testing.T) {
	dir := t.TempDir()
	st, ffs := faultStore(t, dir,
		RetryPolicy{Attempts: 1, Base: time.Microsecond, Cap: time.Microsecond},
		BreakerPolicy{Failures: 1, Probe: 5 * time.Millisecond})
	desc, _, _ := AlphaDesc(t)
	sc, err := st.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	nb := desc.Floorplan.NumBlocks()

	ffs.Inject(faultfs.Fault{Op: faultfs.OpAppend, Err: syscall.EIO})
	_ = sc.Put([]int{0}, TempsFor(nb, 40))
	if got := st.Health().Breaker; got != BreakerOpen {
		t.Fatalf("breaker = %v, want open", got)
	}

	// Probing while the fault persists re-opens the breaker.
	time.Sleep(10 * time.Millisecond)
	if got := st.Probe(); got != BreakerOpen {
		t.Fatalf("Probe under persistent fault = %v, want open", got)
	}

	ffs.Clear()
	time.Sleep(10 * time.Millisecond)
	if got := st.Probe(); got != BreakerClosed {
		t.Fatalf("Probe after fault cleared = %v, want closed", got)
	}
	if err := sc.Put([]int{3}, TempsFor(nb, 55)); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	if sc.Appended() != 1 {
		t.Errorf("appended = %d after recovery Put, want 1", sc.Appended())
	}
	st.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sc2, err := st2.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	// Only the post-recovery record persisted; the pre-recovery one was
	// memory-only and is legitimately gone.
	if sc2.Loaded() != 1 || sc2.Recovered() != 0 {
		t.Errorf("reload: loaded=%d recovered=%d, want 1/0", sc2.Loaded(), sc2.Recovered())
	}
}

// TestSystemOpenFailureDegradesToMemoryOnly: when the record file cannot
// even be opened, System returns a working memory-only cache instead of an
// error, and Health counts it.
func TestSystemOpenFailureDegradesToMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	st, ffs := faultStore(t, dir, RetryPolicy{}, BreakerPolicy{})
	desc, _, _ := AlphaDesc(t)
	nb := desc.Floorplan.NumBlocks()

	ffs.Inject(faultfs.Fault{Op: faultfs.OpCreate, Err: syscall.ENOSPC})
	sc, err := st.System(desc)
	if err != nil {
		t.Fatalf("System with failing disk: %v (must degrade, not error)", err)
	}
	if !sc.MemOnly() {
		t.Fatal("cache not memory-only after open failure")
	}
	if err := sc.Put([]int{0}, TempsFor(nb, 42)); err != nil {
		t.Fatalf("Put on degraded cache: %v", err)
	}
	if _, ok := sc.Get([]int{0}); !ok {
		t.Error("Get missed on degraded cache")
	}
	h := st.Health()
	if h.DegradedSystems != 1 || h.Unpersisted != 1 {
		t.Errorf("health = %+v, want 1 degraded system, 1 unpersisted", h)
	}
}

// TestUnhealableTornAppendRetiresFile: when the torn-tail truncate itself
// fails, the cache must stop using the file (memory-only) rather than risk
// appending after garbage.
func TestUnhealableTornAppendRetiresFile(t *testing.T) {
	dir := t.TempDir()
	st, ffs := faultStore(t, dir,
		RetryPolicy{Attempts: 2, Base: time.Microsecond, Cap: time.Microsecond},
		BreakerPolicy{})
	desc, _, _ := AlphaDesc(t)
	sc, err := st.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	nb := desc.Floorplan.NumBlocks()

	ffs.Inject(faultfs.Fault{Op: faultfs.OpAppend, Err: syscall.EIO, TornBytes: 3})
	ffs.Inject(faultfs.Fault{Op: faultfs.OpTruncate, Err: syscall.EIO})
	if err := sc.Put([]int{0}, TempsFor(nb, 48)); err != nil {
		t.Fatalf("Put must absorb the failure: %v", err)
	}
	if !sc.MemOnly() {
		t.Error("cache still using a file it could not heal")
	}
	if _, ok := sc.Get([]int{0}); !ok {
		t.Error("answer lost despite memoization")
	}
	ffs.Clear()
	st.Close()

	// The torn bytes are still on disk; the next load's CRC pass discards
	// exactly them.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sc2, err := st2.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	if sc2.Loaded() != 0 || sc2.Recovered() != 3 {
		t.Errorf("reload: loaded=%d recovered=%d, want 0 records and 3 torn bytes", sc2.Loaded(), sc2.Recovered())
	}
}

func TestRecordLogAppendRetriesTransientFault(t *testing.T) {
	ffs := faultfs.New(nil)
	path := filepath.Join(t.TempDir(), "test.wal")
	l, _ := OpenTestLog(t, path, RecordLogOptions{FS: ffs, Retry: RetryPolicy{Attempts: 4}})
	ffs.Inject(faultfs.Fault{Op: faultfs.OpAppend, Err: syscall.EIO, Count: 2})
	if err := l.Append([]byte("persisted-after-retries")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	st := l.Stats()
	if st.Appended != 1 || st.Retries < 2 || st.Failures != 0 {
		t.Fatalf("stats: %+v", st)
	}
	l.Close()
	l2, frames := OpenTestLog(t, path, RecordLogOptions{})
	defer l2.Close()
	if len(frames) != 1 || string(frames[0]) != "persisted-after-retries" {
		t.Fatalf("replay: %q", frames)
	}
}

func TestRecordLogDegradesMemoryOnly(t *testing.T) {
	ffs := faultfs.New(nil)
	path := filepath.Join(t.TempDir(), "test.wal")
	l, _ := OpenTestLog(t, path, RecordLogOptions{
		FS:      ffs,
		Retry:   RetryPolicy{Attempts: 1},
		Breaker: BreakerPolicy{Failures: 2},
	})
	if err := l.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	ffs.Inject(faultfs.Fault{Op: faultfs.OpAppend, Err: syscall.ENOSPC})
	// Appends degrade (nil error) instead of failing; the second failure
	// trips the breaker, so the third append never touches the disk.
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte("lost")); err != nil {
			t.Fatalf("degraded Append %d: %v", i, err)
		}
	}
	st := l.Stats()
	if st.Failures != 2 || st.Unpersisted != 3 || st.Breaker != BreakerOpen {
		t.Fatalf("stats after fault storm: %+v", st)
	}
	ffs.Clear()
	l.Close()
	l2, frames := OpenTestLog(t, path, RecordLogOptions{})
	defer l2.Close()
	if len(frames) != 1 || string(frames[0]) != "good" {
		t.Fatalf("replay after degraded appends: %q", frames)
	}
}

// TestStoreEvictHealedFileStaysCold: torn-tail recovery truncates and seeks
// the file, which would refresh its mtime — and off Linux mtime is the whole
// LRU clock. The heal path must restore the pre-heal timestamp so a
// healed-but-cold file is still the first eviction victim, not promoted
// ahead of genuinely warm files.
func TestStoreEvictHealedFileStaysCold(t *testing.T) {
	dir := t.TempDir()
	paths := FillSynthetic(t, dir, 3, 4)
	// Tear the oldest file's tail, as a crash mid-append would.
	f, err := os.OpenFile(paths[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	StampAges(t, paths)
	preHeal, err := os.Stat(paths[0])
	if err != nil {
		t.Fatal(err)
	}

	// Heal in a first process: opening the system truncates the torn tail.
	ffs := faultfs.New(OSFS())
	st, err := OpenWithOptions(dir, StoreOptions{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := st.System(SyntheticDesc(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Recovered() != 3 || sc.Loaded() != 4 {
		t.Fatalf("Recovered/Loaded = %d/%d, want 3/4", sc.Recovered(), sc.Loaded())
	}
	if n := ffs.OpCount(faultfs.OpChtimes); n == 0 {
		t.Fatal("heal did not restore the file timestamp (no Chtimes issued)")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if !fi.ModTime().Equal(preHeal.ModTime()) {
		t.Fatalf("healed mtime = %v, want pre-heal %v", fi.ModTime(), preHeal.ModTime())
	}

	// A later process under budget pressure: the healed file is still the
	// coldest and must go first.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var keep int64
	for _, p := range paths[1:] {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		keep += fi.Size()
	}
	evicted, err := st2.Evict(keep)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0].Path != paths[0] {
		t.Fatalf("evicted %v, want exactly the healed-but-cold file %s", evicted, paths[0])
	}
}
