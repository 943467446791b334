package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/oraclestore"
	"repro/internal/oraclestore/faultfs"
	"repro/internal/thermal"
)

// fetchMetric scrapes one sample (by exact exposition prefix, label set
// included) from /metrics.
func fetchMetric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, name+" ") && !strings.HasPrefix(line, name+"{") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %s not found in:\n%s", name, data)
	return 0
}

// waitNoGridFactors runs the collector until no grid factor stays resident,
// so servers that earlier tests dropped release their shared factors and
// thermserve_grid_factors_live counts only this test's systems.
func waitNoGridFactors(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for thermal.LiveGridFactors() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d grid factors still resident after GC", thermal.LiveGridFactors())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// fetchHealth decodes GET /healthz.
func fetchHealth(t *testing.T, base string) HealthResponse {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz status %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// postRaw posts a schedule request and returns status, decoded error code
// (when not 200) and the Retry-After header.
func postChaos(t *testing.T, base string, body any, hdr map[string]string) (status int, code, retryAfter string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/schedule", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		_ = json.Unmarshal(data, &e)
		code = e.Error.Code
	}
	return resp.StatusCode, code, resp.Header.Get("Retry-After")
}

// occupyWorkers parks tasks on every worker slot through the admission path
// (so the occupiers hold admission tokens exactly like real requests), which
// makes subsequent request traffic deterministically queue or shed. Returns
// the release function.
func occupyWorkers(t *testing.T, s *Server) func() {
	t.Helper()
	n := s.pool.Workers()
	block := make(chan struct{})
	for i := 0; i < n; i++ {
		started := make(chan struct{})
		go func() {
			if err := s.pool.TryDo(context.Background(), func() { close(started); <-block }); err != nil {
				t.Errorf("occupier rejected: %v", err)
			}
		}()
		<-started
	}
	var once sync.Once
	return func() { once.Do(func() { close(block) }) }
}

// waitUntil polls cond for a bounded time.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestShedding429MatchesMetrics: with the one worker occupied and the
// admission queue (depth 1) filled, further requests are shed with 429 +
// Retry-After, and thermserve_shed_total equals exactly the number of 429s
// clients observed.
func TestShedding429MatchesMetrics(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := occupyWorkers(t, srv)
	defer release()

	// Fill the queue slot with one admitted request.
	queuedDone := make(chan error, 1)
	go func() {
		_, _, err := tryPostSchedule(hs.URL, table1Request())
		queuedDone <- err
	}()
	waitUntil(t, "request to queue", func() bool { return srv.pool.Queued() == 1 })

	if h := fetchHealth(t, hs.URL); h.QueueDepth != 1 || h.QueueLimit != 1 {
		t.Errorf("healthz queue occupancy = %d/%d, want 1/1", h.QueueDepth, h.QueueLimit)
	}

	const shedTries = 3
	var observed429 int
	for i := 0; i < shedTries; i++ {
		status, code, retryAfter := postChaos(t, hs.URL, table1Request(), nil)
		if status != http.StatusTooManyRequests {
			t.Fatalf("request %d on saturated server: status %d (code %s), want 429", i, status, code)
		}
		observed429++
		if code != "saturated" {
			t.Errorf("shed error code = %q, want saturated", code)
		}
		if retryAfter != "5" {
			// The hint scales with queue occupancy; the queue is provably
			// full here (the queued request is parked until release), so the
			// helper must emit its fully-congested value.
			t.Errorf("shed Retry-After = %q, want \"5\" (full queue)", retryAfter)
		}
	}

	if got := fetchMetric(t, hs.URL, "thermserve_shed_total"); int(got) != observed429 {
		t.Errorf("thermserve_shed_total = %v, observed %d client 429s", got, observed429)
	}

	// Release the workers: the queued request must complete normally.
	release()
	if err := <-queuedDone; err != nil {
		t.Errorf("queued request after release: %v", err)
	}
}

// TestQueuedDeadline503: a request whose deadline expires while it waits for
// a worker gets 503 deadline_queued and is counted under stage="queued".
func TestQueuedDeadline503(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	release := occupyWorkers(t, srv)
	defer release()

	req := table1Request()
	req["deadline_ms"] = 30
	status, code, _ := postChaos(t, hs.URL, req, nil)
	if status != http.StatusServiceUnavailable || code != "deadline_queued" {
		t.Fatalf("queued-deadline request: status %d code %q, want 503 deadline_queued", status, code)
	}
	if got := fetchMetric(t, hs.URL, `thermserve_deadline_exceeded_total{stage="queued"}`); got != 1 {
		t.Errorf(`deadline_exceeded_total{stage="queued"} = %v, want 1`, got)
	}
}

// TestDeadlineDuringGeneration: an already-expired deadline on an idle
// server still reaches the generator (a free worker is taken without
// consulting the context), which aborts at its first cancellation poll —
// deterministically a 503 deadline_generating.
func TestDeadlineDuringGeneration(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	status, code, _ := postChaos(t, hs.URL, table1Request(), map[string]string{"X-Request-Deadline": "1ns"})
	if status != http.StatusServiceUnavailable || code != "deadline_generating" {
		t.Fatalf("expired-deadline request: status %d code %q, want 503 deadline_generating", status, code)
	}
	if g := fetchMetric(t, hs.URL, `thermserve_deadline_exceeded_total{stage="generating"}`); g != 1 {
		t.Errorf(`deadline_exceeded_total{stage="generating"} = %v, want 1`, g)
	}

	// The same request without the crushing deadline succeeds — nothing about
	// the aborted attempt poisoned the system (its partial simulations stay
	// memoized).
	if _, _, err := tryPostSchedule(hs.URL, table1Request()); err != nil {
		t.Fatalf("request after an aborted one: %v", err)
	}
}

// TestBadDeadlineHeaderRejected: an unparseable X-Request-Deadline is a 400,
// not a silently ignored knob.
func TestBadDeadlineHeaderRejected(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	status, code, _ := postChaos(t, hs.URL, table1Request(), map[string]string{"X-Request-Deadline": "soon"})
	if status != http.StatusBadRequest || code != "bad_deadline" {
		t.Fatalf("bad deadline header: status %d code %q, want 400 bad_deadline", status, code)
	}
}

// TestZeroDeadlineHeaderDisablesDefault: an X-Request-Deadline of 0 or less
// resolves to no deadline, so it switches off a server default that would
// otherwise expire every request, and it wins over the body's deadline_ms.
func TestZeroDeadlineHeaderDisablesDefault(t *testing.T) {
	_, hs := newTestServer(t, Config{DefaultDeadline: time.Nanosecond})
	if status, code, _ := postChaos(t, hs.URL, table1Request(), nil); status != http.StatusServiceUnavailable {
		t.Fatalf("request under a 1ns default: status %d code %q, want 503", status, code)
	}
	withBody := table1Request()
	withBody["deadline_ms"] = 1
	for _, tc := range []struct {
		header string
		body   map[string]any
	}{
		{"0", table1Request()},
		{"0s", table1Request()},
		{"-1s", table1Request()},
		{"-5", table1Request()},
		{"0", withBody},
	} {
		status, code, _ := postChaos(t, hs.URL, tc.body, map[string]string{"X-Request-Deadline": tc.header})
		if status != http.StatusOK {
			t.Errorf("X-Request-Deadline %q (body %v): status %d code %q, want 200", tc.header, tc.body, status, code)
		}
	}
}

// TestMaxSystemsLRUDropsIdle: with MaxSystems 2, a third distinct system
// LRU-drops the oldest idle one; the dropped system still answers when
// re-requested (it rebuilds).
func TestMaxSystemsLRUDropsIdle(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxSystems: 2})

	reqs := []map[string]any{
		{"workload": "alpha21364", "tl_celsius": 165, "stcl": 60},
		{"workload": "figure1", "tl_celsius": 165, "stcl": 60},
		// Same workload as the first but a different package → distinct system.
		{"workload": "alpha21364", "tl_celsius": 165, "stcl": 60,
			"package": map[string]any{"ambient_celsius": 50}},
	}
	for i, r := range reqs {
		if _, _, err := tryPostSchedule(hs.URL, r); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if h := fetchHealth(t, hs.URL); h.SystemsLive > 2 {
		t.Errorf("systems_live = %d with MaxSystems=2", h.SystemsLive)
	}
	if got := fetchMetric(t, hs.URL, "thermserve_systems_dropped_total"); got < 1 {
		t.Errorf("thermserve_systems_dropped_total = %v, want >= 1", got)
	}
	// The dropped (oldest) system rebuilds transparently.
	out, _, err := tryPostSchedule(hs.URL, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if out.Cache.SystemWarm {
		t.Error("re-requested dropped system claims to be warm")
	}

	// Dropping an idle grid system closes its model at once: the factor it
	// alone held leaves the process, while two alpha systems at different
	// ambients share one.
	waitNoGridFactors(t)
	grid := func(r map[string]any) map[string]any {
		r["grid_res"] = 16
		return r
	}
	for i, r := range []map[string]any{grid(reqs[1]), grid(reqs[0])} {
		if _, _, err := tryPostSchedule(hs.URL, r); err != nil {
			t.Fatalf("grid request %d: %v", i, err)
		}
	}
	if got := fetchMetric(t, hs.URL, "thermserve_grid_factors_live"); got != 2 {
		t.Fatalf("thermserve_grid_factors_live = %v for figure1 and alpha, want 2", got)
	}
	// alpha at ambient 50 shares alpha's factor and LRU-drops figure1's system.
	if _, _, err := tryPostSchedule(hs.URL, grid(reqs[2])); err != nil {
		t.Fatal(err)
	}
	if got := fetchMetric(t, hs.URL, "thermserve_grid_factors_live"); got != 1 {
		t.Errorf("thermserve_grid_factors_live = %v after dropping figure1, want 1", got)
	}
}

// TestFaultSoakBreakerRecovery is the chaos acceptance test: an EIO storm
// with torn appends on the store's disk path trips the breaker, the service
// keeps serving byte-identical warm results while degraded, /healthz reports
// it, and once the fault clears the breaker closes, persistence resumes, and
// a clean reopen of the store finds zero corrupt bytes.
func TestFaultSoakBreakerRecovery(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	srv, hs := newTestServer(t, Config{
		CacheDir:     dir,
		Workers:      4,
		StoreFS:      ffs,
		StoreRetry:   oraclestore.RetryPolicy{Attempts: 2, Base: time.Microsecond, Cap: time.Microsecond},
		StoreBreaker: oraclestore.BreakerPolicy{Failures: 1, Probe: 10 * time.Millisecond},
	})

	// Healthy baseline: cold request persists, /healthz is ok.
	baseline, baselineRaw := postSchedule(t, hs.URL, table1Request())
	if baseline.Cache.Tier2Misses == 0 {
		t.Fatal("cold baseline reports no store misses")
	}
	if h := fetchHealth(t, hs.URL); h.Status != "ok" || h.Store == nil || h.Store.Breaker != "closed" {
		t.Fatalf("healthy server reports %+v", h)
	}

	// EIO storm with torn half-writes on every append.
	ffs.Inject(faultfs.Fault{Op: faultfs.OpAppend, Err: syscall.EIO, TornBytes: 9})

	// New work (different STCL → new candidate sessions → new records) keeps
	// succeeding while its spills fail, and trips the breaker.
	for i, stcl := range []float64{20, 30, 40} {
		req := table1Request()
		req["stcl"] = stcl
		if _, _, err := tryPostSchedule(hs.URL, req); err != nil {
			t.Fatalf("request %d during EIO storm: %v", i, err)
		}
	}
	waitUntil(t, "breaker to open", func() bool {
		return fetchHealth(t, hs.URL).Store.Breaker == "open"
	})
	h := fetchHealth(t, hs.URL)
	if h.Status != "degraded" {
		t.Errorf("healthz status = %q with open breaker, want degraded", h.Status)
	}
	if h.Store.Unpersisted == 0 {
		t.Error("no unpersisted answers counted during the storm")
	}

	// Degraded-mode guarantee: the warm request answers byte-identically.
	during, duringRaw := postSchedule(t, hs.URL, table1Request())
	if !bytes.Equal(baselineRaw, duringRaw) {
		t.Errorf("degraded result differs from baseline:\nbase: %s\ndegraded: %s", baselineRaw, duringRaw)
	}
	if !during.Cache.SystemWarm {
		t.Error("degraded warm request did not find the system warm")
	}

	// Fault cleared: /healthz polling drives the probe; the breaker closes.
	ffs.Clear()
	waitUntil(t, "breaker to close", func() bool {
		return fetchHealth(t, hs.URL).Store.Breaker == "closed"
	})
	if h := fetchHealth(t, hs.URL); h.Status != "ok" {
		t.Errorf("healthz status = %q after recovery, want ok", h.Status)
	}
	if got := fetchMetric(t, hs.URL, "thermserve_store_breaker_opens_total"); got < 1 {
		t.Errorf("breaker_opens_total = %v, want >= 1", got)
	}

	// Persistence resumes: a new scenario after recovery appends records.
	appendedBefore := srv.store.AppendedBytes()
	req := table1Request()
	req["stcl"] = 90
	postSchedule(t, hs.URL, req)
	if srv.store.AppendedBytes() == appendedBefore {
		t.Error("nothing persisted after breaker recovery")
	}

	// A clean reopen of the store finds no torn garbage: every torn append
	// was truncated away before its retry, and failed records were simply
	// never written.
	hs.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := oraclestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stats, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Files == 0 {
		t.Fatal("no record files after soak")
	}
	sc, err := st.System(soakDesc(t))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Recovered() != 0 {
		t.Errorf("Recovered() = %d bytes after soak, want 0 (torn tails healed in-line)", sc.Recovered())
	}
	if sc.Loaded() == 0 {
		t.Error("no records survived the soak")
	}
}

// soakDesc is the Table 1 workload's store identity, derived exactly as the
// server derives it.
func soakDesc(t *testing.T) oraclestore.SystemDesc {
	t.Helper()
	req := &ScheduleRequest{Workload: "alpha21364", TL: 165, STCL: 60}
	spec, err := req.resolveSpec()
	if err != nil {
		t.Fatal(err)
	}
	return oraclestore.DescForBlockModel(spec.Floorplan(), req.Package.packageConfig(), spec.Profile())
}
