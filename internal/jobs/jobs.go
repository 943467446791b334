// Package jobs is the durable async job subsystem behind the schedule
// service's POST /v1/jobs API. A Manager tracks every job's lifecycle
// (accepted → queued → running → done|failed|cancelled, plus interrupted for
// jobs a drain or crash stopped mid-run), journals each state transition to a
// crash-safe oraclestore.RecordLog, and publishes per-job event streams the
// HTTP layer serves as SSE.
//
// Durability story. Every transition is one CRC-framed JSON record appended
// through the oraclestore record discipline: torn tails heal on open,
// appends retry with backoff, and a failing journal disk degrades the
// manager to memory-only (availability over durability — the store tier
// already preserves the expensive simulation work). A restarted manager
// replays the journal: terminal jobs come back queryable with their full
// result, and jobs that were accepted/queued/running when the process died
// surface through Resumable so the server can re-run them — warm, because
// the oracle store still holds everything they simulated.
//
// Events. Each job carries a bounded ring of monotonically numbered events
// ("state" transitions and un-journaled "progress" snapshots). EventsSince
// supports the SSE Last-Event-ID reconnect contract: a client that lost its
// stream re-reads everything after the last id it saw, then blocks on the
// job's change channel.
package jobs

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/oraclestore"
)

// State is a job lifecycle state.
type State string

const (
	// StateAccepted: the request was validated and journaled.
	StateAccepted State = "accepted"
	// StateQueued: the job is waiting for its goroutine/worker slot.
	StateQueued State = "queued"
	// StateRunning: generation is in progress.
	StateRunning State = "running"
	// StateDone: the job finished; its result and digest are recorded.
	StateDone State = "done"
	// StateFailed: generation failed (bad config discovered late, deadline,
	// max-attempts); the error message is recorded.
	StateFailed State = "failed"
	// StateCancelled: a client cancelled the job via DELETE.
	StateCancelled State = "cancelled"
	// StateInterrupted: a drain (or crash) stopped the job mid-run. Not
	// terminal across processes: a restarted manager reports interrupted jobs
	// as Resumable and the server re-runs them warm from the store.
	StateInterrupted State = "interrupted"
)

// Terminal reports whether the state ends a job for good: no resume, no
// further transitions. Interrupted is deliberately non-terminal — it is the
// state a restart picks jobs back up from.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// final reports whether the state ends the job's event stream in *this*
// process: terminal states plus interrupted (the process is draining; the
// resumed run in the next process starts a fresh stream).
func (s State) final() bool { return s.Terminal() || s == StateInterrupted }

// Event is one entry of a job's event stream. IDs are per-job, monotonic
// from 1, and restart from 1 in a resumed process (SSE reconnect across a
// restart replays from scratch — the journal, not the ring, is the durable
// record).
type Event struct {
	ID   int64           `json:"id"`
	Type string          `json:"type"` // "state" | "progress"
	Data json.RawMessage `json:"data"`

	// final marks the last event of the stream in this process.
	final bool
}

// Final reports whether this event ends the stream (terminal or interrupted
// state event).
func (e Event) Final() bool { return e.final }

// StateEventData is the payload of a "state" event.
type StateEventData struct {
	State   State  `json:"state"`
	Error   string `json:"error,omitempty"`
	Resumed bool   `json:"resumed,omitempty"`
}

// Job is one tracked job. All mutable fields are guarded by the owning
// Manager's lock; read them through Snapshot or the accessors.
type Job struct {
	m  *Manager
	id string

	// Everything below is guarded by m.mu.
	state   State
	payload json.RawMessage
	result  json.RawMessage
	digest  string
	errMsg  string
	resumed bool
	created time.Time
	updated time.Time
	// pendingCancel is a cancellation requested before the runner registered
	// its hook; SetCancel delivers it.
	pendingCancel error

	events    []Event
	nextEvent int64
	dropped   int64 // events trimmed from the ring's head
	changed   chan struct{}

	cancel func(error)
	done   chan struct{}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a final state in this
// process (terminal or interrupted).
func (j *Job) Done() <-chan struct{} { return j.done }

// Status is a consistent read of one job.
type Status struct {
	ID      string
	State   State
	Resumed bool
	Created time.Time
	Updated time.Time
	Request json.RawMessage
	Result  json.RawMessage
	Digest  string
	Error   string
	// LastEventID is the id of the newest event published so far.
	LastEventID int64
}

// Snapshot returns the job's current status.
func (j *Job) Snapshot() Status {
	j.m.mu.Lock()
	defer j.m.mu.Unlock()
	return Status{
		ID:          j.id,
		State:       j.state,
		Resumed:     j.resumed,
		Created:     j.created,
		Updated:     j.updated,
		Request:     j.payload,
		Result:      j.result,
		Digest:      j.digest,
		Error:       j.errMsg,
		LastEventID: j.nextEvent,
	}
}

// SetCancel registers the run's cancellation hook (a context.CancelCauseFunc)
// so DELETE and drain can interrupt the generation. If a drain or a
// cancellation was already requested the hook is invoked immediately with
// that cause (drain wins).
func (j *Job) SetCancel(cancel func(error)) {
	j.m.mu.Lock()
	j.cancel = cancel
	cause := j.m.drainCause
	if cause == nil {
		cause = j.pendingCancel
	}
	j.m.mu.Unlock()
	if cause != nil {
		cancel(cause)
	}
}

// Cancel requests the job's cancellation with cause, invoking the registered
// hook — or, when the runner has not registered one yet, recording the cause
// so SetCancel fires it on registration (no window where a DELETE is lost).
// It reports false only when the job is already final.
func (j *Job) Cancel(cause error) bool {
	j.m.mu.Lock()
	if j.state.final() {
		j.m.mu.Unlock()
		return false
	}
	cancel := j.cancel
	if cancel == nil {
		j.pendingCancel = cause
		j.m.mu.Unlock()
		return true
	}
	j.m.mu.Unlock()
	cancel(cause)
	return true
}

// Counters are the manager's lifetime transition counts (this process only —
// replayed history does not count, resumes do).
type Counters struct {
	Queued, Running, Done, Failed, Cancelled, Interrupted, Resumed int64
	// Active is the current number of non-final jobs.
	Active int64
}

// Config parameterises a Manager.
type Config struct {
	// Path is the journal file; empty runs memory-only (no durability, jobs
	// die with the process).
	Path string
	// FS / Retry / Breaker tune the journal's fault plumbing, mirroring the
	// oracle store's knobs; zero values select production defaults.
	FS      oraclestore.FS
	Retry   oraclestore.RetryPolicy
	Breaker oraclestore.BreakerPolicy
	// MaxEvents bounds each job's in-RAM event ring; 0 → 1024. A reconnect
	// whose Last-Event-ID predates the ring's head replays from the oldest
	// retained event.
	MaxEvents int
	// Logf receives journal degradation notices; nil disables.
	Logf func(format string, args ...any)
}

// Manager owns the job table, the journal and the event plumbing.
type Manager struct {
	cfg Config
	log *oraclestore.RecordLog

	mu         sync.Mutex
	jobs       map[string]*Job
	order      []string // insertion order, for deterministic resume
	drainCause error
	counts     Counters
}

// journalTag names the journal schema; bump the string to invalidate old
// journals on an incompatible record change.
var journalTag = sha256.Sum256([]byte("thermserve-jobs-journal-v1"))

// Open builds a Manager, replaying cfg.Path when it exists. A journal whose
// disk cannot be opened degrades to memory-only (logged) rather than failing:
// job durability is best-effort by design, serving is not.
func Open(cfg Config) (*Manager, error) {
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = 1024
	}
	m := &Manager{cfg: cfg, jobs: make(map[string]*Job)}
	if cfg.Path == "" {
		m.log = oraclestore.NewMemRecordLog()
		return m, nil
	}
	var replayErrs int
	log, err := oraclestore.OpenRecordLog(cfg.Path, journalTag, oraclestore.RecordLogOptions{
		FS:      cfg.FS,
		Retry:   cfg.Retry,
		Breaker: cfg.Breaker,
	}, func(payload []byte) error {
		if err := m.replay(payload); err != nil {
			// A frame that passed its CRC but does not decode is a schema
			// drift bug, not corruption; skip it rather than refuse every
			// job that came after it.
			replayErrs++
		}
		return nil
	})
	if err != nil {
		if cfg.Logf != nil {
			cfg.Logf("jobs: journal %s unavailable, running memory-only: %v", cfg.Path, err)
		}
		m.log = oraclestore.NewMemRecordLog()
		return m, nil
	}
	if replayErrs > 0 && cfg.Logf != nil {
		cfg.Logf("jobs: skipped %d undecodable journal records", replayErrs)
	}
	m.log = log
	// Replayed non-final jobs are owed a resume; give every replayed job one
	// synthetic state event so a status poll or SSE subscription sees where
	// it stands even before the server re-queues it.
	m.mu.Lock()
	for _, id := range m.order {
		j := m.jobs[id]
		m.publishStateLocked(j)
	}
	m.mu.Unlock()
	return m, nil
}

// journalRecord is one journal frame: a state transition with whichever
// fields that transition carries.
type journalRecord struct {
	ID      string          `json:"id"`
	State   State           `json:"state"`
	Time    time.Time       `json:"time"`
	Request json.RawMessage `json:"request,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Digest  string          `json:"digest,omitempty"`
	Error   string          `json:"error,omitempty"`
	Resumed bool            `json:"resumed,omitempty"`
}

// replay applies one journal record during Open (no events, no counters —
// history is state, not traffic).
func (m *Manager) replay(payload []byte) error {
	var rec journalRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return err
	}
	if rec.ID == "" || rec.State == "" {
		return fmt.Errorf("journal record missing id or state")
	}
	j, ok := m.jobs[rec.ID]
	if !ok {
		if rec.State != StateAccepted {
			return fmt.Errorf("journal transition %s for unknown job %s", rec.State, rec.ID)
		}
		j = &Job{
			m:       m,
			id:      rec.ID,
			state:   StateAccepted,
			payload: rec.Request,
			created: rec.Time,
			updated: rec.Time,
			changed: make(chan struct{}),
			done:    make(chan struct{}),
		}
		m.jobs[rec.ID] = j
		m.order = append(m.order, rec.ID)
		m.counts.Active++
		return nil
	}
	j.state = rec.State
	j.updated = rec.Time
	if rec.Resumed {
		j.resumed = true
	}
	if rec.State == StateDone {
		j.result = rec.Result
		j.digest = rec.Digest
	}
	if rec.Error != "" {
		j.errMsg = rec.Error
	}
	if rec.State.final() {
		select {
		case <-j.done:
		default:
			close(j.done)
		}
		if rec.State.Terminal() {
			m.counts.Active--
		}
	}
	return nil
}

// Resumable returns, in submission order, every job the journal left in a
// non-terminal state — the jobs a restarted server must re-queue. Jobs
// interrupted by a drain count; jobs that reached done/failed/cancelled do
// not.
func (m *Manager) Resumable() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []*Job
	for _, id := range m.order {
		if j := m.jobs[id]; !j.state.Terminal() {
			out = append(out, j)
		}
	}
	return out
}

// newID mints a 16-hex-char job id.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: reading random id: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Submit registers a new job in state accepted with the given request
// payload, journaling it. The caller transitions it onward (SetQueued, ...).
func (m *Manager) Submit(payload json.RawMessage) *Job {
	now := time.Now().UTC()
	j := &Job{
		m:       m,
		id:      newID(),
		state:   StateAccepted,
		payload: payload,
		created: now,
		updated: now,
		changed: make(chan struct{}),
		done:    make(chan struct{}),
	}
	m.mu.Lock()
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.counts.Active++
	m.journalLocked(journalRecord{ID: j.id, State: StateAccepted, Time: now, Request: payload})
	m.publishStateLocked(j)
	m.mu.Unlock()
	return j
}

// Get returns a job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns every tracked job id in submission order.
func (m *Manager) Jobs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.order...)
}

// transition journals, counts and publishes one state change. mutate runs
// under the lock after the state is set, to attach transition-specific
// fields. A refused transition changes nothing, counters included.
func (m *Manager) transition(j *Job, state State, rec journalRecord, mutate func()) {
	now := time.Now().UTC()
	rec.ID = j.id
	rec.State = state
	rec.Time = now
	m.mu.Lock()
	// A final job normally rejects further transitions: the first final
	// transition wins a race (e.g. DELETE landing as the drain interrupts)
	// rather than resurrecting the job. The one sanctioned revival is a
	// resumed requeue of an interrupted job on restart.
	if j.state.final() && !(rec.Resumed && j.state == StateInterrupted && state == StateQueued) {
		m.mu.Unlock()
		return
	}
	j.state = state
	j.updated = now
	if mutate != nil {
		mutate()
	}
	switch state {
	case StateQueued:
		m.counts.Queued++
		if rec.Resumed {
			m.counts.Resumed++
		}
	case StateRunning:
		m.counts.Running++
	case StateDone:
		m.counts.Done++
	case StateFailed:
		m.counts.Failed++
	case StateCancelled:
		m.counts.Cancelled++
	case StateInterrupted:
		m.counts.Interrupted++
	}
	m.journalLocked(rec)
	m.publishStateLocked(j)
	if state.final() {
		close(j.done)
		if state.Terminal() {
			m.counts.Active--
		}
	}
	m.mu.Unlock()
}

// SetQueued marks the job waiting for its runner.
func (m *Manager) SetQueued(j *Job) {
	m.transition(j, StateQueued, journalRecord{}, nil)
}

// Requeue marks a replayed job queued again with the resumed flag, counting
// it as a resume. The server calls this once per Resumable job on restart.
func (m *Manager) Requeue(j *Job) {
	m.transition(j, StateQueued, journalRecord{Resumed: true}, func() {
		j.resumed = true
		// The job may have been left final-in-process (interrupted) by the
		// previous run's drain; its replay closed done. Re-arm it for the
		// fresh run. Active already counts it: interrupted is not terminal.
		select {
		case <-j.done:
			j.done = make(chan struct{})
		default:
		}
	})
}

// SetRunning marks the job generating.
func (m *Manager) SetRunning(j *Job) {
	m.transition(j, StateRunning, journalRecord{}, nil)
}

// SetDone records the result (the full response body the GET endpoint will
// return) and its digest (SHA-256 of the deterministic result section).
func (m *Manager) SetDone(j *Job, result json.RawMessage, digest string) {
	m.transition(j, StateDone, journalRecord{Result: result, Digest: digest}, func() {
		j.result = result
		j.digest = digest
	})
}

// SetFailed records a failure.
func (m *Manager) SetFailed(j *Job, msg string) {
	m.transition(j, StateFailed, journalRecord{Error: msg}, func() { j.errMsg = msg })
}

// SetCancelled records a client cancellation.
func (m *Manager) SetCancelled(j *Job, msg string) {
	m.transition(j, StateCancelled, journalRecord{Error: msg}, func() { j.errMsg = msg })
}

// SetInterrupted records a drain interruption; the journal record is what a
// restarted server resumes from.
func (m *Manager) SetInterrupted(j *Job, msg string) {
	m.transition(j, StateInterrupted, journalRecord{Error: msg}, func() { j.errMsg = msg })
}

// Progress publishes one un-journaled progress event (SSE only — progress is
// derivable by re-running, so it does not earn journal writes).
func (m *Manager) Progress(j *Job, data any) {
	raw, err := json.Marshal(data)
	if err != nil {
		return
	}
	m.mu.Lock()
	if !j.state.final() {
		m.publishLocked(j, Event{Type: "progress", Data: raw})
	}
	m.mu.Unlock()
}

// publishStateLocked emits the job's current state as a "state" event.
func (m *Manager) publishStateLocked(j *Job) {
	data, _ := json.Marshal(StateEventData{State: j.state, Error: j.errMsg, Resumed: j.resumed})
	m.publishLocked(j, Event{Type: "state", Data: data, final: j.state.final()})
}

// publishLocked assigns the next event id, appends to the bounded ring and
// wakes every EventsSince waiter.
func (m *Manager) publishLocked(j *Job, ev Event) {
	j.nextEvent++
	ev.ID = j.nextEvent
	j.events = append(j.events, ev)
	if over := len(j.events) - m.cfg.MaxEvents; over > 0 {
		j.events = append(j.events[:0:0], j.events[over:]...)
		j.dropped += int64(over)
	}
	close(j.changed)
	j.changed = make(chan struct{})
}

// EventsSince returns a copy of the job's retained events with ID > afterID,
// plus a channel that is closed the next time any event is published — the
// SSE loop's wait handle. A reconnect whose afterID predates the ring's head
// gets everything retained (the ring bound is the documented replay horizon).
func (m *Manager) EventsSince(j *Job, afterID int64) ([]Event, <-chan struct{}) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Event
	for _, ev := range j.events {
		if ev.ID > afterID {
			out = append(out, ev)
		}
	}
	return out, j.changed
}

// CancelActive invokes every non-final job's cancellation hook with cause and
// records it as the standing drain cause, so runs that register their hook
// later are cancelled on registration. Returns how many hooks were invoked.
func (m *Manager) CancelActive(cause error) int {
	m.mu.Lock()
	m.drainCause = cause
	var cancels []func(error)
	for _, j := range m.jobs {
		if !j.state.final() && j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
	}
	m.mu.Unlock()
	for _, c := range cancels {
		c(cause)
	}
	return len(cancels)
}

// Draining reports whether CancelActive has been called, and with what cause.
func (m *Manager) Draining() (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.drainCause != nil, m.drainCause
}

// Counts returns the lifetime transition counters.
func (m *Manager) Counts() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts
}

// JournalStats exposes the journal's durability counters.
func (m *Manager) JournalStats() oraclestore.RecordLogStats {
	return m.log.Stats()
}

// JournalPath returns the journal file path, empty when memory-only.
func (m *Manager) JournalPath() string { return m.cfg.Path }

// journalLocked appends one record; journal failures degrade (RecordLog
// counts them) rather than failing the transition.
func (m *Manager) journalLocked(rec journalRecord) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return
	}
	if err := m.log.Append(payload); err != nil && m.cfg.Logf != nil {
		m.cfg.Logf("jobs: journal append: %v", err)
	}
}

// Sync flushes the journal to stable storage.
func (m *Manager) Sync() error { return m.log.Sync() }

// Close syncs and closes the journal. Jobs stay readable; transitions stop
// being journaled (and error through RecordLog, logged only).
func (m *Manager) Close() error { return m.log.Close() }
