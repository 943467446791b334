package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
)

// Cancellation causes, distinguished via context.Cause so the runner can
// classify how a run ended: a drain journals "interrupted" (resumable on
// restart), a client DELETE journals "cancelled" (final).
var (
	errDraining     = errors.New("server draining")
	errJobCancelled = errors.New("job cancelled by client")
)

// defaultMaxJobs bounds tracked non-terminal jobs when Config.MaxJobs is 0.
const defaultMaxJobs = 1024

// decodeScheduleRequest strictly decodes one request body: unknown fields
// and anything but whitespace after the JSON object are errors.
func decodeScheduleRequest(body io.Reader) (*ScheduleRequest, error) {
	var req ScheduleRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("trailing data after the JSON object")
		}
		return nil, err
	}
	return &req, nil
}

// readScheduleRequest decodes a POST body of at most maxBodyBytes and, when
// raw is non-nil, copies the bytes it read into raw. On failure it writes the
// error response itself — 413 body_too_large past the limit, 400 bad_json
// otherwise — and returns false.
func readScheduleRequest(w http.ResponseWriter, r *http.Request, raw io.Writer) (*ScheduleRequest, bool) {
	var body io.Reader = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if raw != nil {
		body = io.TeeReader(body, raw)
	}
	req, err := decodeScheduleRequest(body)
	if err == nil {
		return req, true
	}
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
	} else {
		writeError(w, http.StatusBadRequest, "bad_json", fmt.Sprintf("decoding request body: %v", err))
	}
	return nil, false
}

// jobDeadline resolves an async job's per-run deadline. Only the body's
// deadline_ms participates — the X-Request-Deadline header scopes the HTTP
// exchange, and an async job outlives its submission request. The deadline
// restarts on resume: it bounds one generation attempt, not wall time across
// process restarts.
func (s *Server) jobDeadline(req *ScheduleRequest) time.Duration {
	if req.DeadlineMS != 0 {
		return time.Duration(req.DeadlineMS) * time.Millisecond
	}
	return s.cfg.DefaultDeadline
}

// handleJobSubmit serves POST /v1/jobs: validate fully (same 400s as the
// synchronous endpoint), journal, 202 with the job id, and run in the
// background.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var body bytes.Buffer
	req, ok := readScheduleRequest(w, r, &body)
	if !ok {
		return
	}
	if _, code, err := s.resolveProblem(req); err != nil {
		writeError(w, http.StatusBadRequest, code, err.Error())
		return
	}
	maxJobs := s.cfg.MaxJobs
	if maxJobs <= 0 {
		maxJobs = defaultMaxJobs
	}
	if active := int(s.jobs.Counts().Active); active >= maxJobs {
		w.Header().Set("Retry-After", retryAfterHint(active, maxJobs))
		writeError(w, http.StatusTooManyRequests, "jobs_saturated",
			fmt.Sprintf("%d jobs already tracked; retry later", maxJobs))
		return
	}

	// Admission is ordered against Drain under drainMu: either this job's
	// goroutine is registered before Drain starts waiting, or the submit
	// observes draining and sheds.
	s.drainMu.Lock()
	if s.draining.Load() {
		s.drainMu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "draining",
			"server is draining; not admitting new jobs")
		return
	}
	// The job keeps its payload while it is retained; an exact-size copy
	// does not pin the buffer's growth slack.
	j := s.jobs.Submit(json.RawMessage(bytes.Clone(body.Bytes())))
	s.jobs.SetQueued(j)
	s.jobsWG.Add(1)
	s.drainMu.Unlock()
	go s.runJob(j)

	w.Header().Set("Location", "/v1/jobs/"+j.ID())
	writeJSON(w, http.StatusAccepted, JobSubmitResponse{ID: j.ID(), State: string(jobs.StateQueued)})
}

// jobFromPath resolves the {id} segment of /v1/jobs/{id}[/events].
func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id = strings.TrimSuffix(id, "/events")
	j, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "job_not_found", fmt.Sprintf("no job %q", id))
		return nil, false
	}
	return j, true
}

// jobStatusResponse assembles the GET /v1/jobs/{id} body.
func jobStatusResponse(st jobs.Status) JobStatusResponse {
	resp := JobStatusResponse{
		ID:          st.ID,
		State:       string(st.State),
		Resumed:     st.Resumed,
		Created:     st.Created.Format(time.RFC3339Nano),
		Updated:     st.Updated.Format(time.RFC3339Nano),
		Error:       st.Error,
		Digest:      st.Digest,
		LastEventID: st.LastEventID,
	}
	if st.State == jobs.StateDone {
		resp.Response = st.Result
	}
	return resp
}

// handleJobGet serves GET /v1/jobs/{id}: current state, and on done the full
// schedule response the synchronous endpoint would have returned.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, jobStatusResponse(j.Snapshot()))
}

// handleJobDelete serves DELETE /v1/jobs/{id}: cancel a non-terminal job via
// the generator's interrupt plumbing. 202 (cancellation is asynchronous — the
// run must observe its context), 409 once the job is already final.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	if !j.Cancel(errJobCancelled) {
		writeError(w, http.StatusConflict, "job_finished",
			fmt.Sprintf("job %s already %s", j.ID(), j.Snapshot().State))
		return
	}
	writeJSON(w, http.StatusAccepted, jobStatusResponse(j.Snapshot()))
}

// handleJobEvents serves GET /v1/jobs/{id}/events as Server-Sent Events:
// state transitions and generation progress, each with a monotonic event id.
// A reconnecting client sends Last-Event-ID and replays everything it missed
// (within the per-job ring bound). The stream closes itself after the final
// event of a terminal or interrupted job.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming_unsupported",
			"response writer cannot stream")
		return
	}
	var after int64
	if h := r.Header.Get("Last-Event-ID"); h != "" {
		v, err := strconv.ParseInt(h, 10, 64)
		if err != nil {
			// A malformed cursor silently replaying from 0 would hand a
			// confused client every event again with no indication its header
			// was ignored; refuse before committing to the SSE content type.
			writeError(w, http.StatusBadRequest, "bad_cursor",
				fmt.Sprintf("Last-Event-ID %q: want a decimal event id", h))
			return
		}
		if v < 0 {
			// Negative ids never exist; clamp to a full replay, which is what
			// a client holding a nonsense-but-numeric cursor needs.
			v = 0
		}
		after = v
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ctx := r.Context()
	for {
		evs, changed := s.jobs.EventsSince(j, after)
		for _, ev := range evs {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, ev.Data)
			after = ev.ID
			if ev.Final() {
				fl.Flush()
				return
			}
		}
		fl.Flush()
		select {
		case <-changed:
		case <-ctx.Done():
			return
		}
	}
}

// resultDigest fingerprints the deterministic result section; byte-identical
// results across restarts/resumes hash identically (asserted by the chaos
// tests).
func resultDigest(result ScheduleResult) string {
	raw, _ := json.Marshal(result)
	return fmt.Sprintf("%x", sha256.Sum256(raw))
}

// runJob executes one queued job end to end on its own goroutine: resolve the
// journaled request, acquire (or build) the warm system, generate with
// progress streaming, and journal the outcome. Drain-interrupted runs journal
// "interrupted" so the next process resumes them.
func (s *Server) runJob(j *jobs.Job) {
	defer s.jobsWG.Done()
	start := time.Now()

	req, err := decodeScheduleRequest(bytes.NewReader(j.Snapshot().Request))
	if err != nil {
		// Unreachable for jobs submitted by this binary (validated on POST);
		// reachable for a journal written by an older schema.
		s.jobs.SetFailed(j, fmt.Sprintf("journaled request no longer decodes: %v", err))
		return
	}
	p, _, err := s.resolveProblem(req)
	if err != nil {
		s.jobs.SetFailed(j, err.Error())
		return
	}

	ctx, cancelCause := context.WithCancelCause(context.Background())
	defer cancelCause(nil)
	if d := s.jobDeadline(req); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	// From here DELETE and Drain reach this run; if either already happened,
	// SetCancel fires immediately and the generation exits at its first
	// interrupt check.
	j.SetCancel(cancelCause)

	entry, env, warm, err := s.acquireSystem(p)
	if err != nil {
		s.jobs.SetFailed(j, fmt.Sprintf("building system: %v", err))
		return
	}
	defer s.release(entry)

	t0 := snapshotTiers(env)
	// Progress events ride the generator's callback: phase/coverage from the
	// generator, tier-hit deltas read from the live caches. Runs on the
	// generation goroutine, so it must stay cheap — two atomic reads and one
	// small marshal per committed session.
	genCfg := p.genCfg
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

	var (
		res      *core.Result
		genErr   error
		queueDur time.Duration
		genDur   time.Duration
	)
	queued := time.Now()
	// Jobs were admitted at POST time (MaxJobs); the pool's trusted path just
	// bounds their simulation parallelism alongside synchronous traffic.
	poolErr := s.pool.Do(ctx, func() {
		queueDur = time.Since(queued)
		s.jobs.SetRunning(j)
		g0 := time.Now()
		res, genErr = env.GenerateContext(ctx, genCfg)
		genDur = time.Since(g0)
	})
	s.maybeEvict()
	s.pushRemote()

	if poolErr == nil && genErr == nil {
		result := buildScheduleResult(req, p, res)
		digest := resultDigest(result)
		resp := ScheduleResponse{
			Result: result,
			Cache:  cacheInfo(env, warm, t0),
			Timing: TimingInfo{
				QueueMS:    float64(queueDur) / float64(time.Millisecond),
				GenerateMS: float64(genDur) / float64(time.Millisecond),
				TotalMS:    float64(time.Since(start)) / float64(time.Millisecond),
			},
		}
		full, err := json.Marshal(resp)
		if err != nil {
			s.jobs.SetFailed(j, fmt.Sprintf("encoding result: %v", err))
			return
		}
		s.jobs.SetDone(j, full, digest)
		return
	}

	runErr := genErr
	if runErr == nil {
		runErr = poolErr
	}
	switch cause := context.Cause(ctx); {
	case errors.Is(cause, errDraining):
		s.jobs.SetInterrupted(j, "interrupted by drain; will resume on restart")
	case errors.Is(cause, errJobCancelled):
		s.jobs.SetCancelled(j, "cancelled by client")
	case errors.Is(cause, context.DeadlineExceeded) || errors.Is(runErr, context.DeadlineExceeded):
		s.jobs.SetFailed(j, fmt.Sprintf("deadline expired: %v", runErr))
	default:
		s.jobs.SetFailed(j, runErr.Error())
	}
}

// Drain gracefully winds the job subsystem down: stop admitting (schedule
// requests and job submissions shed with 503 "draining"), give running jobs
// up to timeout to finish, then interrupt the rest — each journals an
// "interrupted" record a restarted server resumes from — and sync the
// journal. A timeout <= 0 interrupts immediately. Safe to call once; later
// calls return after the first completes.
func (s *Server) Drain(timeout time.Duration) {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(finished)
	}()
	if timeout > 0 {
		select {
		case <-finished:
			_ = s.jobs.Sync()
			return
		case <-time.After(timeout):
		}
	}
	s.jobs.CancelActive(errDraining)
	// The cancelled runners still need to observe their contexts and journal
	// their interrupted records.
	<-finished
	_ = s.jobs.Sync()
}
