package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/oraclestore"
)

func openTestManager(t *testing.T, path string, cfg Config) *Manager {
	t.Helper()
	cfg.Path = path
	m, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return m
}

func TestJobLifecycleJournaledAndReplayed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	m := openTestManager(t, path, Config{})

	req := json.RawMessage(`{"system":"alpha21364","tl":165}`)
	j := m.Submit(req)
	if j.ID() == "" {
		t.Fatal("empty job id")
	}
	m.SetQueued(j)
	m.SetRunning(j)
	m.Progress(j, map[string]int{"sessions": 3})
	result := json.RawMessage(`{"result":{"sessions":9}}`)
	m.SetDone(j, result, "abc123")

	select {
	case <-j.Done():
	default:
		t.Fatal("Done channel not closed after SetDone")
	}
	st := j.Snapshot()
	if st.State != StateDone || st.Digest != "abc123" || string(st.Result) != string(result) {
		t.Fatalf("snapshot: %+v", st)
	}
	c := m.Counts()
	if c.Queued != 1 || c.Running != 1 || c.Done != 1 || c.Active != 0 {
		t.Fatalf("counts: %+v", c)
	}
	// Events: accepted, queued, running, progress, done.
	evs, _ := m.EventsSince(j, 0)
	if len(evs) != 5 {
		t.Fatalf("got %d events: %+v", len(evs), evs)
	}
	if evs[3].Type != "progress" || evs[4].Type != "state" || !evs[4].Final() {
		t.Fatalf("event tail: %+v", evs[3:])
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay: the terminal job comes back with its result; no resumables.
	m2 := openTestManager(t, path, Config{})
	defer m2.Close()
	j2, ok := m2.Get(j.ID())
	if !ok {
		t.Fatal("job not replayed")
	}
	st2 := j2.Snapshot()
	if st2.State != StateDone || st2.Digest != "abc123" ||
		string(st2.Result) != string(result) || string(st2.Request) != string(req) {
		t.Fatalf("replayed snapshot: %+v", st2)
	}
	if r := m2.Resumable(); len(r) != 0 {
		t.Fatalf("terminal job reported resumable: %v", r)
	}
	if c := m2.Counts(); c.Done != 0 || c.Active != 0 {
		t.Fatalf("replay should not count transitions: %+v", c)
	}
}

func TestReplayReportsInterruptedJobsResumable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	m := openTestManager(t, path, Config{})
	a := m.Submit(json.RawMessage(`{"n":1}`))
	m.SetQueued(a)
	m.SetRunning(a)
	m.SetInterrupted(a, "draining")
	b := m.Submit(json.RawMessage(`{"n":2}`))
	m.SetQueued(b)
	done := m.Submit(json.RawMessage(`{"n":3}`))
	m.SetQueued(done)
	m.SetRunning(done)
	m.SetDone(done, json.RawMessage(`{"ok":true}`), "d")
	m.Close()

	m2 := openTestManager(t, path, Config{})
	defer m2.Close()
	res := m2.Resumable()
	if len(res) != 2 || res[0].ID() != a.ID() || res[1].ID() != b.ID() {
		ids := make([]string, len(res))
		for i, j := range res {
			ids[i] = j.ID()
		}
		t.Fatalf("resumable = %v, want [%s %s]", ids, a.ID(), b.ID())
	}
	// Replayed jobs carry one synthetic state event so a subscriber sees
	// where they stand immediately.
	evs, _ := m2.EventsSince(res[0], 0)
	if len(evs) != 1 || evs[0].Type != "state" {
		t.Fatalf("replayed events: %+v", evs)
	}
	var sd StateEventData
	if err := json.Unmarshal(evs[0].Data, &sd); err != nil || sd.State != StateInterrupted {
		t.Fatalf("replayed state event: %s", evs[0].Data)
	}

	// Requeue re-arms the interrupted job: fresh done channel, resumed flag,
	// counted as a resume.
	m2.Requeue(res[0])
	st := res[0].Snapshot()
	if st.State != StateQueued || !st.Resumed {
		t.Fatalf("after Requeue: %+v", st)
	}
	select {
	case <-res[0].Done():
		t.Fatal("Done channel should be re-armed after Requeue")
	default:
	}
	if c := m2.Counts(); c.Resumed != 1 || c.Active != 2 {
		t.Fatalf("counts after requeue: %+v", c)
	}
	m2.SetRunning(res[0])
	m2.SetDone(res[0], json.RawMessage(`{"ok":1}`), "x")
	select {
	case <-res[0].Done():
	default:
		t.Fatal("Done not closed after resumed job finished")
	}
}

func TestJournalTornTailHealsAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	m := openTestManager(t, path, Config{})
	j := m.Submit(json.RawMessage(`{"n":1}`))
	m.SetQueued(j)
	m.Close()

	// Crash mid-append: torn bytes after the last full record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{200, 1, 0, 0, '{', '"'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2 := openTestManager(t, path, Config{})
	defer m2.Close()
	if st := m2.JournalStats(); st.Recovered != 6 || st.Replayed != 2 {
		t.Fatalf("journal stats after heal: %+v", st)
	}
	res := m2.Resumable()
	if len(res) != 1 || res[0].ID() != j.ID() {
		t.Fatalf("resumable after heal: %v", res)
	}
	if st := res[0].Snapshot(); st.State != StateQueued {
		t.Fatalf("healed job state: %+v", st)
	}
}

func TestEventsSinceCursorAndNotification(t *testing.T) {
	m := openTestManager(t, filepath.Join(t.TempDir(), "jobs.wal"), Config{})
	defer m.Close()
	j := m.Submit(json.RawMessage(`{}`))
	m.SetQueued(j)

	evs, changed := m.EventsSince(j, 0)
	if len(evs) != 2 || evs[0].ID != 1 || evs[1].ID != 2 {
		t.Fatalf("events: %+v", evs)
	}
	// Cursor skips already-seen events.
	evs, changed = m.EventsSince(j, 2)
	if len(evs) != 0 {
		t.Fatalf("cursor miss: %+v", evs)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-changed:
		case <-time.After(5 * time.Second):
			t.Error("changed channel never fired")
		}
	}()
	m.SetRunning(j)
	wg.Wait()
	evs, _ = m.EventsSince(j, 2)
	if len(evs) != 1 || evs[0].ID != 3 {
		t.Fatalf("post-notify events: %+v", evs)
	}
	m.SetDone(j, json.RawMessage(`{}`), "d")
}

func TestEventRingBounded(t *testing.T) {
	m := openTestManager(t, filepath.Join(t.TempDir(), "jobs.wal"), Config{MaxEvents: 4})
	defer m.Close()
	j := m.Submit(json.RawMessage(`{}`))
	for i := 0; i < 10; i++ {
		m.Progress(j, map[string]int{"i": i})
	}
	evs, _ := m.EventsSince(j, 0)
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	// Newest events retained, ids still monotonic.
	if evs[0].ID != 8 || evs[3].ID != 11 {
		t.Fatalf("ring ids: %d..%d", evs[0].ID, evs[3].ID)
	}
	// A cursor behind the ring's head gets everything retained.
	evs, _ = m.EventsSince(j, 2)
	if len(evs) != 4 {
		t.Fatalf("behind-head cursor got %d events", len(evs))
	}
}

func TestCancelActiveAndLateRegistration(t *testing.T) {
	m := openTestManager(t, filepath.Join(t.TempDir(), "jobs.wal"), Config{})
	defer m.Close()
	cause := errors.New("draining")

	j := m.Submit(json.RawMessage(`{}`))
	m.SetQueued(j)
	var got error
	j.SetCancel(func(err error) { got = err })
	if n := m.CancelActive(cause); n != 1 {
		t.Fatalf("CancelActive hit %d jobs", n)
	}
	if got != cause {
		t.Fatalf("cancel cause = %v", got)
	}
	if draining, c := m.Draining(); !draining || c != cause {
		t.Fatalf("Draining = %v, %v", draining, c)
	}
	// A hook registered after the drain fires immediately.
	late := m.Submit(json.RawMessage(`{}`))
	var lateGot error
	late.SetCancel(func(err error) { lateGot = err })
	if lateGot != cause {
		t.Fatalf("late registration cause = %v", lateGot)
	}
}

func TestFinalTransitionWinsRace(t *testing.T) {
	m := openTestManager(t, filepath.Join(t.TempDir(), "jobs.wal"), Config{})
	defer m.Close()
	j := m.Submit(json.RawMessage(`{}`))
	m.SetRunning(j)
	m.SetCancelled(j, "client cancel")
	// A drain landing just after the cancel must not resurrect the job.
	m.SetInterrupted(j, "draining")
	if st := j.Snapshot(); st.State != StateCancelled {
		t.Fatalf("state after racing finals: %+v", st)
	}
	if c := m.Counts(); c.Cancelled != 1 || c.Active != 0 {
		t.Fatalf("counts: %+v", c)
	}
}

// TestRefusedTransitionNotCounted: a transition refused because the job is
// already final leaves every counter as the accepted ones set it, so a
// /metrics read never shows one job as both done and cancelled, or as both
// done and active.
func TestRefusedTransitionNotCounted(t *testing.T) {
	m := openTestManager(t, "", Config{})
	defer m.Close()
	j := m.Submit(json.RawMessage(`{}`))
	m.SetDone(j, json.RawMessage(`{}`), "d")
	m.SetCancelled(j, "client cancel")
	m.SetInterrupted(j, "draining")
	m.SetFailed(j, "late")
	m.SetRunning(j)
	m.SetQueued(j)
	m.Requeue(j)
	if c := m.Counts(); c != (Counters{Done: 1}) {
		t.Fatalf("counts after refused transitions: %+v, want only Done 1", c)
	}
	if st := j.Snapshot(); st.State != StateDone {
		t.Fatalf("state: %+v", st)
	}
}

func TestJournalFaultDegradesMemoryOnly(t *testing.T) {
	ffs := oraclestore.NewFaultFS(nil)
	path := filepath.Join(t.TempDir(), "jobs.wal")
	var logged []string
	m := openTestManager(t, path, Config{
		FS:      ffs,
		Retry:   oraclestore.RetryPolicy{Attempts: 1},
		Breaker: oraclestore.BreakerPolicy{Failures: 1},
		Logf:    func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) },
	})
	defer m.Close()
	j := m.Submit(json.RawMessage(`{"n":1}`))
	ffs.Inject(Fault{Op: oraclestore.OpAppend, Err: syscall.ENOSPC})
	m.SetQueued(j) // append fails, breaker trips, transition still lands
	m.SetRunning(j)
	if st := j.Snapshot(); st.State != StateRunning {
		t.Fatalf("transitions must survive journal faults: %+v", st)
	}
	st := m.JournalStats()
	if st.Failures == 0 || st.Unpersisted == 0 {
		t.Fatalf("journal stats: %+v", st)
	}
	ffs.Clear()
}

// Fault is re-exported for test brevity.
type Fault = oraclestore.Fault

func TestOpenUnreadableJournalDegradesMemoryOnly(t *testing.T) {
	ffs := oraclestore.NewFaultFS(nil)
	ffs.Inject(Fault{Op: oraclestore.OpOpen, Err: syscall.EACCES})
	ffs.Inject(Fault{Op: oraclestore.OpCreate, Err: syscall.EACCES})
	var logged int
	m := openTestManager(t, filepath.Join(t.TempDir(), "jobs.wal"), Config{
		FS:    ffs,
		Retry: oraclestore.RetryPolicy{Attempts: 1},
		Logf:  func(string, ...any) { logged++ },
	})
	defer m.Close()
	if logged == 0 {
		t.Fatal("degradation not logged")
	}
	// Fully functional, just not durable.
	j := m.Submit(json.RawMessage(`{}`))
	m.SetQueued(j)
	m.SetDone(j, json.RawMessage(`{}`), "d")
	if st := m.JournalStats(); !st.MemOnly {
		t.Fatalf("journal stats: %+v", st)
	}
}
