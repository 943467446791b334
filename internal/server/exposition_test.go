package server

import (
	"errors"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// goldenRemote is an in-memory store-cluster tier with deterministic faults:
// fetches of keys whose first byte is odd fail, pushes of keys whose first
// byte is a multiple of three fail, and every other push is kept.
type goldenRemote struct {
	mu    sync.Mutex
	files map[[32]byte][]byte
}

func (r *goldenRemote) Fetch(key [32]byte) ([]byte, bool, error) {
	if key[0]%2 == 1 {
		return nil, false, errors.New("golden remote: fetch refused")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	data, ok := r.files[key]
	return data, ok, nil
}

func (r *goldenRemote) Push(key [32]byte, data []byte) error {
	if key[0]%3 == 0 {
		return errors.New("golden remote: push refused")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.files[key] = append([]byte(nil), data...)
	return nil
}

// timingSample matches the series whose values depend on wall time or on the
// host: the latency histogram, factorization time and the fan-out width.
var timingSample = regexp.MustCompile(`^(thermserve_request_seconds_\w+|thermserve_grid_factor_seconds|thermserve_gomaxprocs)(\{[^}]*\})? \S+$`)

// maskTimings replaces the values of timing-dependent samples with "X".
func maskTimings(text string) string {
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		lines[i] = timingSample.ReplaceAllString(line, "$1$2 X")
	}
	return strings.Join(lines, "\n")
}

// TestSystemsAndMetricsExpositionGolden pins the whole /metrics exposition:
// family order, HELP and TYPE text, label order and integer versus float
// formatting, with every optional section present — the remote tier, the
// store breaker, jobs and their journal, two grid factors rendered in key
// order whatever order they were built in, and an unbounded queue limit.
// Only timing-dependent values are masked.
func TestSystemsAndMetricsExpositionGolden(t *testing.T) {
	waitNoGridFactors(t)
	srv, hs := newTestServer(t, Config{
		CacheDir:    t.TempDir(),
		QueueDepth:  -1,
		StoreRemote: &goldenRemote{files: make(map[[32]byte][]byte)},
	})

	// Build the grid system with the larger key first, so the exposition's
	// key order is not the build order.
	grid := func(res int) map[string]any {
		req := table1Request()
		req["grid_res"] = res
		return req
	}
	first, _ := postSchedule(t, hs.URL, grid(16))
	second, _ := postSchedule(t, hs.URL, grid(12))
	if first.Result.SystemKey <= second.Result.SystemKey {
		t.Fatalf("grid keys %s, %s arrive in order; the golden needs them reversed",
			first.Result.SystemKey, second.Result.SystemKey)
	}
	postSchedule(t, hs.URL, table1Request())
	postSchedule(t, hs.URL, table1Request())
	if status, _ := postRaw(t, hs.URL+"/v1/schedule", `{"stcl":60}`); status != http.StatusBadRequest {
		t.Fatalf("bad request status %d, want 400", status)
	}
	postJob(t, hs.URL, table1Request())
	waitUntil(t, "job done", func() bool {
		c := srv.jobs.Counts()
		return c.Done == 1 && c.Active == 0
	})
	// A client can read its response before instrument records the request.
	waitUntil(t, "requests recorded", func() bool {
		srv.met.mu.Lock()
		defer srv.met.mu.Unlock()
		var n int64
		for _, byCode := range srv.met.requests {
			for _, c := range byCode {
				n += c
			}
		}
		return n == 6
	})

	// Admission counters with distinct values, so a swapped family shows.
	srv.shed.Add(2)
	srv.dlQueued.Add(3)
	srv.dlGenerating.Add(4)
	srv.systemsDropped.Add(5)

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	got := maskTimings(string(data))
	if got == goldenExposition {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(goldenExposition, "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
	t.Logf("full exposition:\n%s", got)
}

// goldenExposition is the exposition the test drives, timing values masked.
const goldenExposition = `# HELP thermserve_requests_total Requests served, by path and status code.
# TYPE thermserve_requests_total counter
thermserve_requests_total{path="/v1/jobs",code="202"} 1
thermserve_requests_total{path="/v1/schedule",code="200"} 4
thermserve_requests_total{path="/v1/schedule",code="400"} 1
# HELP thermserve_request_seconds Request latency histogram, by path.
# TYPE thermserve_request_seconds histogram
thermserve_request_seconds_bucket{path="/v1/jobs",le="0.001"} X
thermserve_request_seconds_bucket{path="/v1/jobs",le="0.005"} X
thermserve_request_seconds_bucket{path="/v1/jobs",le="0.01"} X
thermserve_request_seconds_bucket{path="/v1/jobs",le="0.025"} X
thermserve_request_seconds_bucket{path="/v1/jobs",le="0.05"} X
thermserve_request_seconds_bucket{path="/v1/jobs",le="0.1"} X
thermserve_request_seconds_bucket{path="/v1/jobs",le="0.25"} X
thermserve_request_seconds_bucket{path="/v1/jobs",le="0.5"} X
thermserve_request_seconds_bucket{path="/v1/jobs",le="1"} X
thermserve_request_seconds_bucket{path="/v1/jobs",le="2.5"} X
thermserve_request_seconds_bucket{path="/v1/jobs",le="5"} X
thermserve_request_seconds_bucket{path="/v1/jobs",le="10"} X
thermserve_request_seconds_bucket{path="/v1/jobs",le="+Inf"} X
thermserve_request_seconds_sum{path="/v1/jobs"} X
thermserve_request_seconds_count{path="/v1/jobs"} X
thermserve_request_seconds_bucket{path="/v1/schedule",le="0.001"} X
thermserve_request_seconds_bucket{path="/v1/schedule",le="0.005"} X
thermserve_request_seconds_bucket{path="/v1/schedule",le="0.01"} X
thermserve_request_seconds_bucket{path="/v1/schedule",le="0.025"} X
thermserve_request_seconds_bucket{path="/v1/schedule",le="0.05"} X
thermserve_request_seconds_bucket{path="/v1/schedule",le="0.1"} X
thermserve_request_seconds_bucket{path="/v1/schedule",le="0.25"} X
thermserve_request_seconds_bucket{path="/v1/schedule",le="0.5"} X
thermserve_request_seconds_bucket{path="/v1/schedule",le="1"} X
thermserve_request_seconds_bucket{path="/v1/schedule",le="2.5"} X
thermserve_request_seconds_bucket{path="/v1/schedule",le="5"} X
thermserve_request_seconds_bucket{path="/v1/schedule",le="10"} X
thermserve_request_seconds_bucket{path="/v1/schedule",le="+Inf"} X
thermserve_request_seconds_sum{path="/v1/schedule"} X
thermserve_request_seconds_count{path="/v1/schedule"} X
# HELP thermserve_tier_hits_total Oracle cache hits by tier (1 = in-memory memo, 2 = persistent store, 3 = store cluster).
# TYPE thermserve_tier_hits_total counter
thermserve_tier_hits_total{tier="1"} 101
thermserve_tier_hits_total{tier="2"} 0
thermserve_tier_hits_total{tier="3"} 0
# HELP thermserve_tier_misses_total Oracle cache misses by tier.
# TYPE thermserve_tier_misses_total counter
thermserve_tier_misses_total{tier="1"} 83
thermserve_tier_misses_total{tier="2"} 83
thermserve_tier_misses_total{tier="3"} 2
# HELP thermserve_tier_hit_rate Hit fraction by tier since start.
# TYPE thermserve_tier_hit_rate gauge
thermserve_tier_hit_rate{tier="1"} 0.5489130434782609
thermserve_tier_hit_rate{tier="2"} 0
thermserve_tier_hit_rate{tier="3"} 0
# HELP thermserve_systems_live Warm systems held in memory.
# TYPE thermserve_systems_live gauge
thermserve_systems_live 3
# HELP thermserve_grid_factors_live Distinct grid factors resident in the process; live systems with the same package, die size and resolution share one.
# TYPE thermserve_grid_factors_live gauge
thermserve_grid_factors_live 2
# HELP thermserve_gomaxprocs Goroutine width of the oracles' batch fan-out of phase-1 misses (runtime.GOMAXPROCS).
# TYPE thermserve_gomaxprocs gauge
thermserve_gomaxprocs X
# HELP thermserve_store_files Record files in the persistent store.
# TYPE thermserve_store_files gauge
thermserve_store_files 3
# HELP thermserve_store_bytes Bytes used by the persistent store.
# TYPE thermserve_store_bytes gauge
thermserve_store_bytes 12496
# HELP thermserve_store_evicted_files_total Record files evicted since start.
# TYPE thermserve_store_evicted_files_total counter
thermserve_store_evicted_files_total 0
# HELP thermserve_store_evicted_bytes_total Bytes evicted since start.
# TYPE thermserve_store_evicted_bytes_total counter
thermserve_store_evicted_bytes_total 0
# HELP thermserve_shed_total Schedule requests shed with 429 because the admission queue was full.
# TYPE thermserve_shed_total counter
thermserve_shed_total 2
# HELP thermserve_deadline_exceeded_total Schedule requests that ran out of deadline, by stage.
# TYPE thermserve_deadline_exceeded_total counter
thermserve_deadline_exceeded_total{stage="queued"} 3
thermserve_deadline_exceeded_total{stage="generating"} 4
# HELP thermserve_queue_depth Schedule requests currently waiting for a worker.
# TYPE thermserve_queue_depth gauge
thermserve_queue_depth 0
# HELP thermserve_queue_limit Admission-queue bound (-1 = unbounded).
# TYPE thermserve_queue_limit gauge
thermserve_queue_limit -1
# HELP thermserve_systems_dropped_total Idle live systems dropped by the max-systems LRU bound.
# TYPE thermserve_systems_dropped_total counter
thermserve_systems_dropped_total 5
# HELP thermserve_request_index_hits_total Schedule and job requests whose system fields matched a live system, skipping the parse.
# TYPE thermserve_request_index_hits_total counter
thermserve_request_index_hits_total 3
# HELP thermserve_request_index_misses_total Schedule and job requests resolved from scratch (parse and system keys).
# TYPE thermserve_request_index_misses_total counter
thermserve_request_index_misses_total 4
# HELP thermserve_jobs_queued_total Async jobs queued since start (includes resumes).
# TYPE thermserve_jobs_queued_total counter
thermserve_jobs_queued_total 1
# HELP thermserve_jobs_running_total Async jobs started running since start.
# TYPE thermserve_jobs_running_total counter
thermserve_jobs_running_total 1
# HELP thermserve_jobs_done_total Async jobs finished successfully since start.
# TYPE thermserve_jobs_done_total counter
thermserve_jobs_done_total 1
# HELP thermserve_jobs_failed_total Async jobs failed since start.
# TYPE thermserve_jobs_failed_total counter
thermserve_jobs_failed_total 0
# HELP thermserve_jobs_cancelled_total Async jobs cancelled by clients since start.
# TYPE thermserve_jobs_cancelled_total counter
thermserve_jobs_cancelled_total 0
# HELP thermserve_jobs_interrupted_total Async jobs interrupted by a drain since start.
# TYPE thermserve_jobs_interrupted_total counter
thermserve_jobs_interrupted_total 0
# HELP thermserve_jobs_resumed_total Async jobs re-queued from the journal after a restart.
# TYPE thermserve_jobs_resumed_total counter
thermserve_jobs_resumed_total 0
# HELP thermserve_jobs_active Non-terminal async jobs currently tracked.
# TYPE thermserve_jobs_active gauge
thermserve_jobs_active 0
# HELP thermserve_jobs_journal_append_retries_total Job-journal appends retried after a disk error.
# TYPE thermserve_jobs_journal_append_retries_total counter
thermserve_jobs_journal_append_retries_total 0
# HELP thermserve_jobs_journal_append_failures_total Job-journal appends that exhausted their retries.
# TYPE thermserve_jobs_journal_append_failures_total counter
thermserve_jobs_journal_append_failures_total 0
# HELP thermserve_jobs_journal_unpersisted_total Job state transitions held in RAM only because the journal disk was failing.
# TYPE thermserve_jobs_journal_unpersisted_total counter
thermserve_jobs_journal_unpersisted_total 0
# HELP thermserve_store_remote_fetch_errors_total Store-cluster fetches that failed or returned invalid files (served local-only instead).
# TYPE thermserve_store_remote_fetch_errors_total counter
thermserve_store_remote_fetch_errors_total 1
# HELP thermserve_store_remote_absorbed_records_total Oracle records absorbed from the store cluster into local caches.
# TYPE thermserve_store_remote_absorbed_records_total counter
thermserve_store_remote_absorbed_records_total 0
# HELP thermserve_store_remote_pushed_files_total Record files shipped to the store cluster by the write-behind push.
# TYPE thermserve_store_remote_pushed_files_total counter
thermserve_store_remote_pushed_files_total 1
# HELP thermserve_store_remote_push_errors_total Write-behind pushes that failed (files stay dirty and retry).
# TYPE thermserve_store_remote_push_errors_total counter
thermserve_store_remote_push_errors_total 5
# HELP thermserve_store_breaker_state Store circuit breaker state (0=closed, 1=open, 2=half_open).
# TYPE thermserve_store_breaker_state gauge
thermserve_store_breaker_state 0
# HELP thermserve_store_breaker_opens_total Times the store breaker has tripped open.
# TYPE thermserve_store_breaker_opens_total counter
thermserve_store_breaker_opens_total 0
# HELP thermserve_store_append_retries_total Record appends retried after a disk error.
# TYPE thermserve_store_append_retries_total counter
thermserve_store_append_retries_total 0
# HELP thermserve_store_append_failures_total Record appends that exhausted their retries.
# TYPE thermserve_store_append_failures_total counter
thermserve_store_append_failures_total 0
# HELP thermserve_store_unpersisted_total Oracle answers memoized in RAM only because the disk path was failing.
# TYPE thermserve_store_unpersisted_total counter
thermserve_store_unpersisted_total 0
# HELP thermserve_store_degraded_systems Open system caches running memory-only.
# TYPE thermserve_store_degraded_systems gauge
thermserve_store_degraded_systems 0
# HELP thermserve_grid_factor_seconds Numeric Cholesky factorization time of a live grid system, by system key and kernel.
# TYPE thermserve_grid_factor_seconds gauge
thermserve_grid_factor_seconds{system="0f0ea9b5a3d47100edfcb3dc6651d4bb2d5ede507edccef57d057e171de7e8a4",kernel="supernodal"} X
thermserve_grid_factor_seconds{system="4eccbff7c5293d9f10330727e3b2ac0df5d68cf0dc8951d8165cd3078ee27690",kernel="supernodal"} X
# HELP thermserve_grid_factor_panels Supernodal panel count of a live grid system's factor.
# TYPE thermserve_grid_factor_panels gauge
thermserve_grid_factor_panels{system="0f0ea9b5a3d47100edfcb3dc6651d4bb2d5ede507edccef57d057e171de7e8a4"} 66
thermserve_grid_factor_panels{system="4eccbff7c5293d9f10330727e3b2ac0df5d68cf0dc8951d8165cd3078ee27690"} 113
# HELP thermserve_grid_factor_peak_bytes Peak factorization memory (factor values plus panel workspace) of a live grid system.
# TYPE thermserve_grid_factor_peak_bytes gauge
thermserve_grid_factor_peak_bytes{system="0f0ea9b5a3d47100edfcb3dc6651d4bb2d5ede507edccef57d057e171de7e8a4"} 87360
thermserve_grid_factor_peak_bytes{system="4eccbff7c5293d9f10330727e3b2ac0df5d68cf0dc8951d8165cd3078ee27690"} 188120
# HELP thermserve_grid_factor_peak_resident_bytes Peak resident factorization memory under the peak-bytes budget (equals peak bytes when nothing spilled).
# TYPE thermserve_grid_factor_peak_resident_bytes gauge
thermserve_grid_factor_peak_resident_bytes{system="0f0ea9b5a3d47100edfcb3dc6651d4bb2d5ede507edccef57d057e171de7e8a4"} 87360
thermserve_grid_factor_peak_resident_bytes{system="4eccbff7c5293d9f10330727e3b2ac0df5d68cf0dc8951d8165cd3078ee27690"} 188120
# HELP thermserve_grid_factor_spilled_panels Factor panels spilled out of core while factoring a live grid system.
# TYPE thermserve_grid_factor_spilled_panels gauge
thermserve_grid_factor_spilled_panels{system="0f0ea9b5a3d47100edfcb3dc6651d4bb2d5ede507edccef57d057e171de7e8a4"} 0
thermserve_grid_factor_spilled_panels{system="4eccbff7c5293d9f10330727e3b2ac0df5d68cf0dc8951d8165cd3078ee27690"} 0
# HELP thermserve_grid_factor_spilled_bytes Factor bytes spilled out of core while factoring a live grid system.
# TYPE thermserve_grid_factor_spilled_bytes gauge
thermserve_grid_factor_spilled_bytes{system="0f0ea9b5a3d47100edfcb3dc6651d4bb2d5ede507edccef57d057e171de7e8a4"} 0
thermserve_grid_factor_spilled_bytes{system="4eccbff7c5293d9f10330727e3b2ac0df5d68cf0dc8951d8165cd3078ee27690"} 0
`
