package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/jobs"
	"repro/internal/oraclestore"
	"repro/internal/thermal"
)

// postJob submits an async job and returns its id.
func postJob(t *testing.T, base string, body any) string {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/jobs status %d: %s", resp.StatusCode, data)
	}
	var out JobSubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.ID == "" {
		t.Fatalf("job submit reply: %+v (%v)", out, err)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+out.ID {
		t.Fatalf("Location = %q", loc)
	}
	return out.ID
}

// getJob fetches a job's status.
func getJob(t *testing.T, base, id string) JobStatusResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /v1/jobs/%s status %d: %s", id, resp.StatusCode, data)
	}
	var out JobStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// awaitJob polls until the job leaves queued/running and returns the final
// status.
func awaitJob(t *testing.T, base, id string) JobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getJob(t, base, id)
		switch st.State {
		case "done", "failed", "cancelled", "interrupted":
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after 60s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	ID    int64
	Event string
	Data  json.RawMessage
}

// sseStream incrementally parses an SSE response body.
type sseStream struct {
	resp *http.Response
	br   *bufio.Reader
}

func openSSE(t *testing.T, base, id string, lastEventID int64) *sseStream {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(lastEventID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("SSE status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("SSE Content-Type = %q", ct)
	}
	return &sseStream{resp: resp, br: bufio.NewReader(resp.Body)}
}

func (s *sseStream) Close() { s.resp.Body.Close() }

// Next reads one event; io.EOF means the server closed the stream.
func (s *sseStream) Next() (sseEvent, error) {
	var ev sseEvent
	seen := false
	for {
		line, err := s.br.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "" && seen:
			return ev, nil
		case strings.HasPrefix(line, "id: "):
			ev.ID, _ = strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
			seen = true
		case strings.HasPrefix(line, "event: "):
			ev.Event = strings.TrimPrefix(line, "event: ")
			seen = true
		case strings.HasPrefix(line, "data: "):
			ev.Data = json.RawMessage(strings.TrimPrefix(line, "data: "))
			seen = true
		}
	}
}

// gridJobRequest is a grid-resolution problem — slow enough cold that a drain
// lands mid-generation, content-addressed so restarts find its store records.
func gridJobRequest() map[string]any {
	return map[string]any{
		"workload":   "alpha21364",
		"tl_celsius": 165,
		"stcl":       60,
		"grid_res":   48,
	}
}

// TestJobAsyncMatchesSync: a job followed over SSE to completion returns the
// same deterministic result section as the synchronous endpoint, with its
// digest, and the SSE stream replays correctly from Last-Event-ID.
func TestJobAsyncMatchesSync(t *testing.T) {
	_, hs := newTestServer(t, Config{CacheDir: t.TempDir()})

	sync, _ := postSchedule(t, hs.URL, table1Request())
	wantDigest := resultDigest(sync.Result)

	id := postJob(t, hs.URL, table1Request())
	stream := openSSE(t, hs.URL, id, 0)
	defer stream.Close()
	var (
		events    []sseEvent
		lastState string
	)
	for {
		ev, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
		if ev.Event == "state" {
			var sd jobs.StateEventData
			if err := json.Unmarshal(ev.Data, &sd); err != nil {
				t.Fatalf("state event %s: %v", ev.Data, err)
			}
			lastState = string(sd.State)
		}
	}
	if lastState != "done" {
		t.Fatalf("stream ended in state %q; events: %+v", lastState, events)
	}
	// Monotonic ids from 1, and at least accepted/queued/running/done plus
	// phase-1 and per-session progress.
	for i, ev := range events {
		if ev.ID != int64(i+1) {
			t.Fatalf("event %d has id %d", i, ev.ID)
		}
	}
	var progress int
	for _, ev := range events {
		if ev.Event == "progress" {
			progress++
		}
	}
	if progress < 2 {
		t.Fatalf("only %d progress events; want phase-1 + per-session", progress)
	}

	st := getJob(t, hs.URL, id)
	if st.State != "done" || st.Digest != wantDigest {
		t.Fatalf("job digest %q != sync digest %q (state %s, err %s)",
			st.Digest, wantDigest, st.State, st.Error)
	}
	var jobResp ScheduleResponse
	if err := json.Unmarshal(st.Response, &jobResp); err != nil {
		t.Fatal(err)
	}
	if got := resultDigest(jobResp.Result); got != wantDigest {
		t.Fatalf("embedded response digest %q != %q", got, wantDigest)
	}

	// Reconnect with Last-Event-ID: replay resumes exactly after the cursor
	// and still closes after the final event.
	cursor := events[2].ID
	re := openSSE(t, hs.URL, id, cursor)
	defer re.Close()
	var replayed []sseEvent
	for {
		ev, err := re.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		replayed = append(replayed, ev)
	}
	if len(replayed) != len(events)-3 {
		t.Fatalf("replayed %d events from cursor %d, want %d", len(replayed), cursor, len(events)-3)
	}
	if replayed[0].ID != cursor+1 {
		t.Fatalf("replay started at id %d, want %d", replayed[0].ID, cursor+1)
	}
}

// TestJobCancelViaDelete: DELETE interrupts a running generation through the
// context plumbing; the job journals "cancelled" and a second DELETE is 409.
func TestJobCancelViaDelete(t *testing.T) {
	// The job waits at the run seam until DELETE has been answered, so it
	// cannot finish first however fast it solves.
	deleted := make(chan struct{})
	_, hs := newTestServer(t, Config{CacheDir: t.TempDir(), jobRunning: func(*jobs.Job) { <-deleted }})
	release := sync.OnceFunc(func() { close(deleted) })
	t.Cleanup(release)

	id := postJob(t, hs.URL, gridJobRequest())
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE status %d, want 202", resp.StatusCode)
	}
	release()
	st := awaitJob(t, hs.URL, id)
	if st.State != "cancelled" {
		t.Fatalf("state after DELETE = %q (%s)", st.State, st.Error)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second DELETE status %d, want 409", resp.StatusCode)
	}
}

// TestJobSubmitValidates: submissions fail fast with the synchronous
// endpoint's 400 codes — nothing invalid reaches the journal.
func TestJobSubmitValidates(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	for _, tc := range []struct {
		body string
		code string
	}{
		{`{"workload":"alpha21364","tl_celsius":165,"stcl":60,"nope":1}`, "bad_json"},
		{`{"workload":"alpha21364","stcl":60}`, "bad_config"},
		{`{"workload":"alpha21364","tl_celsius":165,"stcl":60,"max_attempts":-1}`, "bad_config"},
		{`{"workload":"alpha21364","tl_celsius":165,"stcl":60,"weight_growth":1}`, "bad_config"},
		{`{"workload":"alpha21364","tl_celsius":165,"stcl":60,"grid_res":1}`, "bad_config"},
		{`{"workload":"alpha21364","tl_celsius":165,"stcl":60,"grid_res":1025}`, "bad_config"},
		{`{"workload":"nonesuch","tl_celsius":165,"stcl":60}`, "bad_workload"},
		{`{"workload":"alpha21364","tl_celsius":165,"stcl":60} {"stcl":-1}`, "bad_json"},
		{oversizedBody(), "body_too_large"},
		{`{"workload": x` + strings.Repeat(" ", maxBodyBytes), "bad_json"},
		{validPlusWhitespacePastLimit(), "body_too_large"},
	} {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		want := http.StatusBadRequest
		if tc.code == "body_too_large" {
			want = http.StatusRequestEntityTooLarge
		}
		if err != nil || resp.StatusCode != want || e.Error.Code != tc.code {
			t.Errorf("body %.80s: status %d code %q (want %d %s)", tc.body, resp.StatusCode, e.Error.Code, want, tc.code)
		}
	}
}

// TestJobResumeAfterRestart is the durability chaos test: a drain interrupts
// two in-flight jobs (deterministically — the test pins every worker slot so
// both sit in the admission queue when the drain fires), the interruptions are
// journaled, and a new server over the same cachedir+journal resumes both.
// The resumed generations replay entirely from the persisted oracle store: the
// result digest is byte-identical to the uninterrupted answer, the store gains
// zero duplicate records, and no grid factorization is paid on resume.
func TestJobResumeAfterRestart(t *testing.T) {
	dirA := t.TempDir()
	cfgA := Config{CacheDir: dirA, Workers: 2}
	srvA, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	hsA := newHTTPServer(t, srvA)

	// Reference answer first: running the problem to completion on srvA pins
	// the expected digest and persists every simulation, so the post-restart
	// resumes must be answerable without repeating any of them.
	ref, _ := postSchedule(t, hsA.base, gridJobRequest())
	wantDigest := resultDigest(ref.Result)

	// Pin both worker slots so the jobs submitted next deterministically wait
	// in the admission queue — in-flight but not yet generating — until the
	// drain interrupts them there.
	release := make(chan struct{})
	blocked := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go srvA.pool.Do(context.Background(), func() {
			blocked <- struct{}{}
			<-release
		})
	}
	<-blocked
	<-blocked

	id1 := postJob(t, hsA.base, gridJobRequest())
	id2 := postJob(t, hsA.base, gridJobRequest())

	// Drain with no grace: both queued jobs are cancelled with the drain
	// cause, journal "interrupted" records, and Drain returns only after
	// their goroutines have finished and the journal is synced.
	srvA.Drain(0)

	j1, _ := srvA.jobs.Get(id1)
	j2, _ := srvA.jobs.Get(id2)
	for _, st := range []jobs.Status{j1.Snapshot(), j2.Snapshot()} {
		if st.State != jobs.StateInterrupted {
			t.Fatalf("job %s after drain = %q (%s), want interrupted", st.ID, st.State, st.Error)
		}
	}
	close(release)
	hsA.close()
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same cachedir + journal: New replays the journal and
	// resumes both jobs warm from the store.
	srvC, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	hsC := newHTTPServer(t, srvC)
	for _, id := range []string{id1, id2} {
		st := awaitJob(t, hsC.base, id)
		if st.State != "done" {
			t.Fatalf("resumed job %s ended %q: %s", id, st.State, st.Error)
		}
		if !st.Resumed {
			t.Errorf("job %s does not report resumed", id)
		}
		if st.Digest != wantDigest {
			t.Errorf("resumed job %s digest %q != reference %q", id, st.Digest, wantDigest)
		}
		// Zero repeated work on resume: every session answered from the warm
		// tiers, and the lazily-factorized grid solver was never needed.
		var jobResp ScheduleResponse
		if err := json.Unmarshal(st.Response, &jobResp); err != nil {
			t.Fatal(err)
		}
		if jobResp.Cache.Tier2Misses != 0 {
			t.Errorf("resumed job %s re-simulated %d sessions", id, jobResp.Cache.Tier2Misses)
		}
		if jobResp.Cache.GridFactorized {
			t.Errorf("resumed job %s paid a grid factorization", id)
		}
	}
	if c := srvC.jobs.Counts(); c.Resumed != 2 {
		t.Errorf("resumed counter = %d, want 2", c.Resumed)
	}
	hsC.close()
	if err := srvC.Close(); err != nil {
		t.Fatal(err)
	}

	// Zero repeated simulations: the store file holds no duplicate records
	// (a re-simulated answer would have been re-appended on the Put path).
	spec, err := cliutil.LoadWorkload("alpha21364", "", "")
	if err != nil {
		t.Fatal(err)
	}
	desc := oraclestore.DescForGrid(spec.Floorplan(), thermal.DefaultPackageConfig(),
		spec.Profile(), 48, 48, thermal.GridOptions{})
	store, err := oraclestore.Open(dirA)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := store.System(desc)
	if err != nil {
		t.Fatal(err)
	}
	if d := sc.Duplicates(); d != 0 {
		t.Errorf("store holds %d duplicate records after resume", d)
	}
	if sc.Loaded() == 0 {
		t.Error("store empty after resumed generation")
	}
	store.Close()

	// A fourth server over the same cachedir answers the problem entirely
	// warm: no grid factorization, no tier-2 misses, identical digest.
	_, hsD := newTestServer(t, cfgA)
	warm, _ := postSchedule(t, hsD.URL, gridJobRequest())
	if warm.Cache.GridFactorized {
		t.Error("fully warm request paid a grid factorization")
	}
	if warm.Cache.Tier2Misses != 0 {
		t.Errorf("fully warm request simulated %d sessions", warm.Cache.Tier2Misses)
	}
	if got := resultDigest(warm.Result); got != wantDigest {
		t.Errorf("warm digest %q != reference %q", got, wantDigest)
	}
}

// TestDrainRejectsNewWorkAndReportsHealth: after Drain the server sheds new
// schedule requests and job submissions with 503 "draining" and /healthz
// reports the drain.
func TestDrainRejectsNewWorkAndReportsHealth(t *testing.T) {
	srv, hs := newTestServer(t, Config{CacheDir: t.TempDir()})
	postSchedule(t, hs.URL, table1Request())
	// No jobs in flight: a generous timeout returns promptly.
	done := make(chan struct{})
	go func() { srv.Drain(30 * time.Second); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain with idle jobs did not return")
	}

	body, _ := json.Marshal(table1Request())
	for _, path := range []string{"/v1/schedule", "/v1/jobs"} {
		resp, err := http.Post(hs.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusServiceUnavailable || e.Error.Code != "draining" {
			t.Errorf("POST %s during drain: status %d code %q", path, resp.StatusCode, e.Error.Code)
		}
	}

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || health.Status != "draining" {
		t.Errorf("healthz during drain: %q (%v)", health.Status, err)
	}
	if health.Jobs == nil || health.Jobs.Done < 0 {
		t.Errorf("healthz missing jobs info: %+v", health.Jobs)
	}
}

// httpServer is a hand-managed httptest-like server whose lifetime the test
// controls exactly (newTestServer's cleanup order would close the store
// before a later restart reopens it).
type httpServer struct {
	base  string
	close func()
}

func newHTTPServer(t *testing.T, srv *Server) *httpServer {
	t.Helper()
	hs := httptest.NewServer(srv.Handler())
	return &httpServer{base: hs.URL, close: hs.Close}
}

// TestJobsShedRetryAfter: when the tracked-job bound is hit, the 429 carries
// the same queue-depth-scaled Retry-After hint as the synchronous endpoint —
// with the table full, the hint is the 5-second ceiling of a full queue.
func TestJobsShedRetryAfter(t *testing.T) {
	srv, hs := newTestServer(t, Config{CacheDir: t.TempDir(), Workers: 1, MaxJobs: 1})
	release := occupyWorkers(t, srv)
	defer release()

	id := postJob(t, hs.URL, table1Request())

	raw, _ := json.Marshal(table1Request())
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	decodeErr := json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if decodeErr != nil || resp.StatusCode != http.StatusTooManyRequests || e.Error.Code != "jobs_saturated" {
		t.Fatalf("second submit: status %d code %q (%v)", resp.StatusCode, e.Error.Code, decodeErr)
	}
	if got := resp.Header.Get("Retry-After"); got != "5" {
		t.Errorf("jobs shed Retry-After = %q, want \"5\" (job table full)", got)
	}

	release()
	if st := awaitJob(t, hs.URL, id); st.State != "done" {
		t.Fatalf("first job ended %q, want done", st.State)
	}
}

// TestJobEventsBadCursor: a malformed Last-Event-ID is a client error, not a
// silent full replay — the handler must answer 400 bad_cursor before any SSE
// headers go out.
func TestJobEventsBadCursor(t *testing.T) {
	_, hs := newTestServer(t, Config{CacheDir: t.TempDir()})
	id := postJob(t, hs.URL, table1Request())
	awaitJob(t, hs.URL, id)

	req, err := http.NewRequest(http.MethodGet, hs.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "bogus")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	decodeErr := json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if decodeErr != nil || resp.StatusCode != http.StatusBadRequest || e.Error.Code != "bad_cursor" {
		t.Fatalf("bogus cursor: status %d code %q (%v)", resp.StatusCode, e.Error.Code, decodeErr)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("bad cursor reply Content-Type = %q, want JSON error, not an SSE stream", ct)
	}
}

// FuzzLastEventID: the Last-Event-ID parse never panics, and it yields either
// a cursor ≥ 0 or an error (answered as 400 bad_cursor) with no cursor. A
// header it accepts is the decimal int64 it read, clamped at 0.
func FuzzLastEventID(f *testing.F) {
	for _, h := range []string{"", "0", "17", "-3", "007", "+5", " 5", "5 ", "0x10", "1e3", "bogus",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "\x00", "١٢"} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		v, err := lastEventID(h)
		if err != nil {
			if v != 0 || h == "" {
				t.Fatalf("lastEventID(%q) = %d, %v: an error carries no cursor, and an absent header is none", h, v, err)
			}
			return
		}
		if v < 0 {
			t.Fatalf("lastEventID(%q) = %d, want a cursor ≥ 0", h, v)
		}
		if h == "" {
			if v != 0 {
				t.Fatalf("absent header gave cursor %d, want 0", v)
			}
			return
		}
		if p, perr := strconv.ParseInt(h, 10, 64); perr != nil || max(p, 0) != v {
			t.Fatalf("lastEventID(%q) = %d, but the header parses as %d, %v", h, v, p, perr)
		}
	})
}

// TestJobEventsNegativeCursorClamps: a negative Last-Event-ID is clamped to
// zero, yielding the same full replay as a fresh subscription.
func TestJobEventsNegativeCursorClamps(t *testing.T) {
	_, hs := newTestServer(t, Config{CacheDir: t.TempDir()})
	id := postJob(t, hs.URL, table1Request())
	awaitJob(t, hs.URL, id)

	collect := func(lastEventID string) []sseEvent {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, hs.URL+"/v1/jobs/"+id+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("SSE with cursor %q: status %d: %s", lastEventID, resp.StatusCode, data)
		}
		stream := &sseStream{resp: resp, br: bufio.NewReader(resp.Body)}
		defer stream.Close()
		var events []sseEvent
		for {
			ev, err := stream.Next()
			if err == io.EOF {
				return events
			}
			if err != nil {
				t.Fatal(err)
			}
			events = append(events, ev)
		}
	}

	fresh := collect("")
	clamped := collect("-3")
	if len(fresh) == 0 || len(clamped) != len(fresh) {
		t.Fatalf("negative cursor replayed %d events, fresh stream %d", len(clamped), len(fresh))
	}
	if clamped[0].ID != 1 || clamped[0].ID != fresh[0].ID {
		t.Errorf("negative cursor first event id = %d, want full replay from 1", clamped[0].ID)
	}
}
