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

// readScheduleRequest reads a POST body of at most maxBodyBytes whole and
// accepts it. On failure it writes the error response itself — 413
// body_too_large past the limit, 400 bad_json otherwise — and returns false.
func (s *Server) readScheduleRequest(w http.ResponseWriter, r *http.Request) (*accepted, bool) {
	a, err := s.accept(readBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength))
	if err == nil {
		return a, true
	}
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
	} else {
		writeError(w, http.StatusBadRequest, "bad_json", fmt.Sprintf("decoding request body: %v", err))
	}
	return nil, false
}

// accept turns a request body into an accepted request: the body layer's
// entry when it holds these exact bytes, else their strict decode. readErr is
// the error that ended reading the body, if any; a miss decodes the bytes
// read followed by it, so the decoder sees exactly what it would see reading
// the body itself and every accept/reject decision and error stays the same.
func (s *Server) accept(raw []byte, readErr error) (*accepted, error) {
	if readErr == nil {
		s.mu.Lock()
		a := s.bodies[string(raw)]
		s.mu.Unlock()
		if a != nil {
			return a, nil
		}
	}
	var body io.Reader = bytes.NewReader(raw)
	if readErr != nil {
		body = io.MultiReader(body, errReader{readErr})
	}
	req, err := decodeScheduleRequest(body)
	if err != nil {
		return nil, err
	}
	return &accepted{body: string(raw), deadlineMS: req.DeadlineMS, req: req}, nil
}

// readBody reads body to its end. sizeHint (the request's Content-Length, -1
// when unknown) presizes the buffer, so a body whose length is declared is
// read without regrowth.
func readBody(body io.Reader, sizeHint int64) ([]byte, error) {
	var buf bytes.Buffer
	if sizeHint > 0 && sizeHint <= maxBodyBytes {
		buf.Grow(int(sizeHint) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(body)
	return buf.Bytes(), err
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// jobDeadline resolves an async job's per-run deadline. Only the body's
// deadline_ms participates — the X-Request-Deadline header scopes the HTTP
// exchange, and an async job outlives its submission request. The deadline
// restarts on resume: it bounds one generation attempt, not wall time across
// process restarts.
func (s *Server) jobDeadline(a *accepted) time.Duration {
	if a.deadlineMS != 0 {
		return time.Duration(a.deadlineMS) * time.Millisecond
	}
	return s.cfg.DefaultDeadline
}

// handleJobSubmit serves POST /v1/jobs: validate fully (same 400s as the
// synchronous endpoint), journal, 202 with the job id, and run in the
// background.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	a, ok := s.readScheduleRequest(w, r)
	if !ok {
		return
	}
	if code, err := s.resolve(a); err != nil {
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
	// The job keeps its own exact-size copy of the body while it is
	// retained.
	j := s.jobs.Submit(json.RawMessage(a.body))
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

// lastEventID parses a Last-Event-ID header into the id to replay after.
// An absent header replays everything, as does a negative id: ids never are
// negative, and a full replay is what a client holding a
// nonsense-but-numeric cursor needs. Anything but a decimal int64 is an
// error, which the handler answers with 400 bad_cursor.
func lastEventID(h string) (int64, error) {
	if h == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(h, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("Last-Event-ID %q: want a decimal event id", h)
	}
	return max(v, 0), nil
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
	after, err := lastEventID(r.Header.Get("Last-Event-ID"))
	if err != nil {
		// A malformed cursor silently replaying from 0 would hand a
		// confused client every event again with no indication its header
		// was ignored; refuse before committing to the SSE content type.
		writeError(w, http.StatusBadRequest, "bad_cursor", err.Error())
		return
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

	// The journaled request is the submitted body byte for byte, so it
	// shares the body layer with the synchronous endpoint.
	a, err := s.accept(j.Snapshot().Request, nil)
	if err != nil {
		// Unreachable for jobs submitted by this binary (validated on POST);
		// reachable for a journal written by an older schema.
		s.jobs.SetFailed(j, fmt.Sprintf("journaled request no longer decodes: %v", err))
		return
	}
	if _, err := s.resolve(a); err != nil {
		s.jobs.SetFailed(j, err.Error())
		return
	}

	ctx, cancelCause := context.WithCancelCause(context.Background())
	defer cancelCause(nil)
	if d := s.jobDeadline(a); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	// From here DELETE and Drain reach this run; if either already happened,
	// SetCancel fires immediately and the generation exits at its first
	// interrupt check.
	j.SetCancel(cancelCause)
	if s.cfg.jobRunning != nil {
		s.cfg.jobRunning(j)
	}

	resp, err := s.generate(ctx, start, a, j)
	var re *runError
	switch cause := context.Cause(ctx); {
	case err == nil:
		full, err := json.Marshal(resp)
		if err != nil {
			s.jobs.SetFailed(j, fmt.Sprintf("encoding result: %v", err))
			return
		}
		s.jobs.SetDone(j, full, resultDigest(resp.Result))
	case errors.As(err, &re) && re.stage == "build":
		s.jobs.SetFailed(j, fmt.Sprintf("building system: %v", err))
	case errors.Is(cause, errDraining):
		s.jobs.SetInterrupted(j, "interrupted by drain; will resume on restart")
	case errors.Is(cause, errJobCancelled):
		s.jobs.SetCancelled(j, "cancelled by client")
	case errors.Is(cause, context.DeadlineExceeded) || errors.Is(err, context.DeadlineExceeded):
		s.jobs.SetFailed(j, fmt.Sprintf("deadline expired: %v", err))
	default:
		s.jobs.SetFailed(j, err.Error())
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
