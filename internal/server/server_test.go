package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// newTestServer starts the service on an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

// tryPostSchedule posts a request body and decodes the reply. It never
// touches testing.T, so worker goroutines (the soak test) can use it.
func tryPostSchedule(base string, body any) (*ScheduleResponse, json.RawMessage, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post(base+"/v1/schedule", "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("POST /v1/schedule status %d: %s", resp.StatusCode, data)
	}
	var out ScheduleResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, nil, fmt.Errorf("decoding response: %v\n%s", err, data)
	}
	// The raw "result" object, for byte-identity assertions.
	var envelope struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(data, &envelope); err != nil {
		return nil, nil, err
	}
	return &out, envelope.Result, nil
}

// postSchedule is tryPostSchedule for the test goroutine: any failure is
// fatal.
func postSchedule(t *testing.T, base string, body any) (*ScheduleResponse, json.RawMessage) {
	t.Helper()
	out, raw, err := tryPostSchedule(base, body)
	if err != nil {
		t.Fatal(err)
	}
	return out, raw
}

// table1Request is the Table 1 anchor cell (TL 165 °C, STCL 60) on the
// paper's evaluation workload.
func table1Request() map[string]any {
	return map[string]any{
		"workload":   "alpha21364",
		"tl_celsius": 165,
		"stcl":       60,
	}
}

// TestServiceE2EWarmSecondRequest: the same Table 1 scenario posted twice;
// the second response must be served from the warm tiers (tier-1 hits, zero
// misses) with byte-identical result JSON.
func TestServiceE2EWarmSecondRequest(t *testing.T) {
	_, hs := newTestServer(t, Config{CacheDir: t.TempDir()})

	cold, coldRaw := postSchedule(t, hs.URL, table1Request())
	if cold.Cache.SystemWarm {
		t.Error("first request claims a warm system")
	}
	if cold.Cache.Tier1Misses == 0 {
		t.Error("first request reports zero tier-1 misses; expected cold simulations")
	}
	if len(cold.Result.Sessions) == 0 || cold.Result.Length <= 0 {
		t.Fatalf("implausible cold result: %+v", cold.Result)
	}

	warm, warmRaw := postSchedule(t, hs.URL, table1Request())
	if !warm.Cache.SystemWarm {
		t.Error("second request did not find the system warm")
	}
	if warm.Cache.Tier1Hits == 0 {
		t.Errorf("warm request tier-1 hits = 0, want > 0")
	}
	if warm.Cache.Tier1Misses != 0 {
		t.Errorf("warm request tier-1 misses = %d, want 0 (everything memoized)", warm.Cache.Tier1Misses)
	}
	if !bytes.Equal(coldRaw, warmRaw) {
		t.Errorf("result JSON not byte-identical:\ncold: %s\nwarm: %s", coldRaw, warmRaw)
	}
}

// TestServiceWarmStoreZeroGridFactorizations: a grid-resolution scenario is
// answered cold by one server process, then warm — across a restart — by a
// second sharing the cache directory. The warm request must be answered
// entirely by the persistent store: tier-2 hits, zero tier-2 misses and,
// decisively, no grid factorization at all.
func TestServiceWarmStoreZeroGridFactorizations(t *testing.T) {
	dir := t.TempDir()
	req := table1Request()
	req["grid_res"] = 16

	srv1, err := New(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(srv1.Handler())
	cold, coldRaw := postSchedule(t, hs1.URL, req)
	if !cold.Cache.GridFactorized {
		t.Error("cold grid request did not factorize the grid")
	}
	if cold.Cache.Tier2Misses == 0 {
		t.Error("cold grid request reports zero store misses")
	}
	hs1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// "New process": fresh server over the same store directory.
	_, hs2 := newTestServer(t, Config{CacheDir: dir})
	warm, warmRaw := postSchedule(t, hs2.URL, req)
	if warm.Cache.Tier2Hits == 0 {
		t.Errorf("warm request tier-2 hits = 0, want > 0")
	}
	if warm.Cache.Tier2Misses != 0 {
		t.Errorf("warm request tier-2 misses = %d, want 0 (fully warm store)", warm.Cache.Tier2Misses)
	}
	if warm.Cache.GridFactorized {
		t.Error("fully warm request paid a grid factorization")
	}
	if warm.Cache.StoreLoaded == 0 {
		t.Error("warm system loaded zero records from disk")
	}
	if !bytes.Equal(coldRaw, warmRaw) {
		t.Errorf("result JSON not byte-identical across restart:\ncold: %s\nwarm: %s", coldRaw, warmRaw)
	}
}

// postRaw posts arbitrary bytes and returns status + decoded error body.
func postRaw(t *testing.T, url, body string) (int, *ErrorResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var e ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("error body is not structured JSON (%v): %s", err, data)
	}
	return resp.StatusCode, &e
}

// TestScheduleHandlerBadRequests: every malformed body gets a 400 with a
// structured, coded error.
func TestScheduleHandlerBadRequests(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	url := hs.URL + "/v1/schedule"
	cases := []struct {
		name     string
		body     string
		wantCode string
	}{
		{"truncated json", `{"workload": "alp`, "bad_json"},
		{"unknown field", `{"workload":"alpha21364","tl_celsius":165,"stcl":60,"bogus":1}`, "bad_json"},
		{"no workload at all", `{"tl_celsius":165,"stcl":60}`, "bad_workload"},
		{"unknown builtin", `{"workload":"pentium9","tl_celsius":165,"stcl":60}`, "bad_workload"},
		{"workload and floorplan", `{"workload":"alpha21364","floorplan":"x 1 1 0 0","test_spec":"x 1 2 1","tl_celsius":165,"stcl":60}`, "bad_workload"},
		{"floorplan without spec", `{"floorplan":"x 1 1 0 0","tl_celsius":165,"stcl":60}`, "bad_workload"},
		{"bad floorplan text", `{"floorplan":"not a floorplan","test_spec":"x 1 2 1","tl_celsius":165,"stcl":60}`, "bad_workload"},
		{"bad spec text", `{"floorplan":"x 0.01 0.01 0 0","test_spec":"y 1 2 1","tl_celsius":165,"stcl":60}`, "bad_workload"},
		{"missing tl", `{"workload":"alpha21364","stcl":60}`, "bad_config"},
		{"negative stcl", `{"workload":"alpha21364","tl_celsius":165,"stcl":-4}`, "bad_config"},
		{"negative grid res", `{"workload":"alpha21364","tl_celsius":165,"stcl":60,"grid_res":-2}`, "bad_config"},
		{"grid res one", `{"workload":"alpha21364","tl_celsius":165,"stcl":60,"grid_res":1}`, "bad_config"},
		{"grid res above max", `{"workload":"alpha21364","tl_celsius":165,"stcl":60,"grid_res":1025}`, "bad_config"},
		{"negative max attempts", `{"workload":"alpha21364","tl_celsius":165,"stcl":60,"max_attempts":-1}`, "bad_config"},
		{"weight growth below one", `{"workload":"alpha21364","tl_celsius":165,"stcl":60,"weight_growth":0.5}`, "bad_config"},
		{"unknown order", `{"workload":"alpha21364","tl_celsius":165,"stcl":60,"order":"alphabetical"}`, "bad_config"},
		{"invalid package", `{"workload":"alpha21364","tl_celsius":165,"stcl":60,"package":{"k_silicon":-5}}`, "bad_package"},
		{"trailing object", `{"workload":"alpha21364","tl_celsius":165,"stcl":60} {"stcl":-1}`, "bad_json"},
		{"trailing garbage", `{"workload":"alpha21364","tl_celsius":165,"stcl":60}x`, "bad_json"},
		{"body too large", oversizedBody(), "body_too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, e := postRaw(t, url, tc.body)
			want := http.StatusBadRequest
			if tc.wantCode == "body_too_large" {
				want = http.StatusRequestEntityTooLarge
			}
			if status != want {
				t.Fatalf("status = %d, want %d (error %+v)", status, want, e)
			}
			if e.Error.Code != tc.wantCode {
				t.Errorf("error code = %q, want %q (message %q)", e.Error.Code, tc.wantCode, e.Error.Message)
			}
			if e.Error.Message == "" {
				t.Error("empty error message")
			}
		})
	}
}

// oversizedBody is well-formed JSON one floorplan string past maxBodyBytes.
func oversizedBody() string {
	return `{"workload":"alpha21364","tl_celsius":165,"stcl":60,"floorplan":"` +
		strings.Repeat("x", maxBodyBytes) + `"}`
}

// TestTrailingBodyWhitespaceAccepted: whitespace after the JSON object is
// not trailing data; both endpoints still accept it.
func TestTrailingBodyWhitespaceAccepted(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	body := "{\"workload\":\"alpha21364\",\"tl_celsius\":165,\"stcl\":60}\n \t\r\n"
	for path, want := range map[string]int{"/v1/schedule": http.StatusOK, "/v1/jobs": http.StatusAccepted} {
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("POST %s: status %d, want %d: %s", path, resp.StatusCode, want, data)
		}
	}
}

// TestHandlersRejectWrongMethods: every endpoint answers a structured 405
// with an Allow header for the wrong verb.
func TestHandlersRejectWrongMethods(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/v1/schedule", http.MethodPost},
		{http.MethodDelete, "/v1/schedule", http.MethodPost},
		{http.MethodPost, "/v1/systems", http.MethodGet},
		{http.MethodPost, "/healthz", http.MethodGet},
		{http.MethodDelete, "/metrics", http.MethodGet},
		{http.MethodPut, "/v1/jobs", http.MethodPost},
		{http.MethodPatch, "/v1/jobs/0123456789abcdef", "GET, DELETE"},
		{http.MethodPost, "/v1/jobs/0123456789abcdef", "GET, DELETE"},
		{http.MethodDelete, "/v1/jobs/0123456789abcdef/events", http.MethodGet},
	}
	for _, tc := range cases {
		t.Run(tc.method+" "+tc.path, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, hs.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("status = %d, want 405", resp.StatusCode)
			}
			if got := resp.Header.Get("Allow"); got != tc.allow {
				t.Errorf("Allow = %q, want %q", got, tc.allow)
			}
			var e ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error.Code != "method_not_allowed" {
				t.Errorf("body not a structured method_not_allowed error: %+v (%v)", e, err)
			}
		})
	}
}

// TestUnschedulableReturns422: a TL below every solo temperature cannot be
// scheduled without auto-raise; the service reports it as a client-side 422,
// not a 500.
func TestUnschedulableReturns422(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	body, _ := json.Marshal(map[string]any{
		"workload": "alpha21364", "tl_celsius": 50, "stcl": 60,
	})
	resp, err := http.Post(hs.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error.Code != "schedule_failed" {
		t.Fatalf("want structured schedule_failed error, got %+v (%v)", e, err)
	}
}

// TestServiceMaxAttemptsFailsBothPaths: a generation that trips its
// max_attempts budget answers 422 max_attempts on /v1/schedule, and the same
// request run as a job ends failed with the budget error.
func TestServiceMaxAttemptsFailsBothPaths(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	req := table1Request()
	req["max_attempts"] = 1
	body, _ := json.Marshal(req)
	status, e := postRaw(t, hs.URL+"/v1/schedule", string(body))
	if status != http.StatusUnprocessableEntity || e.Error.Code != "max_attempts" {
		t.Fatalf("sync: status %d %+v, want 422 max_attempts", status, e.Error)
	}
	st := awaitJob(t, hs.URL, postJob(t, hs.URL, req))
	if st.State != "failed" || !strings.Contains(st.Error, "MaxAttempts=1") {
		t.Fatalf("job: state %q error %q, want failed on MaxAttempts=1", st.State, st.Error)
	}
}

// TestServiceSystemBuildFailedBothPaths: once the persistent store is closed
// (Server.Close leaves it so while the handler stays mounted), a system that
// is not yet live cannot open its record file: /v1/schedule answers 500
// system_build_failed and the same request run as a job ends failed.
func TestServiceSystemBuildFailedBothPaths(t *testing.T) {
	srv, hs := newTestServer(t, Config{CacheDir: t.TempDir()})
	if err := srv.store.Close(); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(table1Request())
	status, e := postRaw(t, hs.URL+"/v1/schedule", string(body))
	if status != http.StatusInternalServerError || e.Error.Code != "system_build_failed" {
		t.Fatalf("sync: status %d %+v, want 500 system_build_failed", status, e.Error)
	}
	st := awaitJob(t, hs.URL, postJob(t, hs.URL, table1Request()))
	if st.State != "failed" || !strings.HasPrefix(st.Error, "building system: ") {
		t.Fatalf("job: state %q error %q, want failed building the system", st.State, st.Error)
	}
}

// TestSystemsAndMetricsEndpoints: after traffic, /v1/systems lists the warm
// system with its tier counters and /metrics exposes request counts, the
// latency histogram, a non-zero tier-1 hit rate and the request index's
// hit and miss counts.
func TestSystemsAndMetricsEndpoints(t *testing.T) {
	_, hs := newTestServer(t, Config{CacheDir: t.TempDir()})
	postSchedule(t, hs.URL, table1Request())
	postSchedule(t, hs.URL, table1Request())

	resp, err := http.Get(hs.URL + "/v1/systems")
	if err != nil {
		t.Fatal(err)
	}
	var sys SystemsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sys); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sys.Systems) != 1 {
		t.Fatalf("systems = %d, want 1", len(sys.Systems))
	}
	s := sys.Systems[0]
	if s.Workload != "alpha21364" || s.Cores != 15 {
		t.Errorf("system identity = %q/%d cores", s.Workload, s.Cores)
	}
	if s.Tier1Hits == 0 || s.Tier1Misses == 0 {
		t.Errorf("tier-1 counters = %d/%d, want both > 0 after cold+warm", s.Tier1Hits, s.Tier1Misses)
	}
	if s.StoreRecords == 0 || s.StoreBytes == 0 {
		t.Errorf("store accounting = %d records / %d bytes, want > 0", s.StoreRecords, s.StoreBytes)
	}
	if sys.Store == nil || sys.Store.Files != 1 || sys.Store.Bytes == 0 {
		t.Fatalf("store info = %+v, want 1 file with bytes", sys.Store)
	}

	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(data)
	for _, want := range []string{
		`thermserve_requests_total{path="/v1/schedule",code="200"} 2`,
		`thermserve_request_seconds_bucket{path="/v1/schedule",le="+Inf"} 2`,
		`thermserve_request_seconds_count{path="/v1/schedule"} 2`,
		"thermserve_tier_hits_total{tier=\"1\"}",
		"thermserve_tier_hit_rate{tier=\"1\"}",
		"thermserve_systems_live 1",
		"thermserve_store_files 1",
		// The second, byte-identical request found its system in the
		// request index.
		"thermserve_request_index_hits_total 1\n",
		"thermserve_request_index_misses_total 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(text, `thermserve_tier_hit_rate{tier="1"} 0`+"\n") {
		t.Error("tier-1 hit rate rendered as zero after a warm request")
	}
	// The fan-out width gauge reads GOMAXPROCS at scrape time.
	old := runtime.GOMAXPROCS(3)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	if got := fetchMetric(t, hs.URL, "thermserve_gomaxprocs"); got != 3 {
		t.Errorf("thermserve_gomaxprocs = %v under GOMAXPROCS=3", got)
	}

	// Grid systems with one package, die size and resolution share one
	// resident factor: three live systems, one factor.
	waitNoGridFactors(t)
	for _, ambient := range []float64{45, 50} {
		req := table1Request()
		req["grid_res"] = 16
		req["package"] = map[string]any{"ambient_celsius": ambient}
		postSchedule(t, hs.URL, req)
	}
	if got := fetchMetric(t, hs.URL, "thermserve_systems_live"); got != 3 {
		t.Errorf("thermserve_systems_live = %v, want 3", got)
	}
	if got := fetchMetric(t, hs.URL, "thermserve_grid_factors_live"); got != 1 {
		t.Errorf("thermserve_grid_factors_live = %v for two alpha grid systems, want 1", got)
	}
}

// TestMetricsGridFactorStats: after a grid-resolution request pays its
// factorization, /metrics exposes the per-system factor cost — time, panel
// count and peak memory — labeled with the system key and kernel. Block-model
// traffic must not produce the families at all.
func TestMetricsGridFactorStats(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	readMetrics := func() string {
		t.Helper()
		resp, err := http.Get(hs.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return string(data)
	}

	postSchedule(t, hs.URL, table1Request())
	if text := readMetrics(); strings.Contains(text, "thermserve_grid_factor_seconds") {
		t.Error("block-model system exported grid factor metrics")
	}

	req := table1Request()
	req["grid_res"] = 16
	sched, _ := postSchedule(t, hs.URL, req)
	if !sched.Cache.GridFactorized {
		t.Fatal("grid request did not factorize")
	}
	text := readMetrics()
	key := sched.Result.SystemKey
	for _, want := range []string{
		fmt.Sprintf("thermserve_grid_factor_seconds{system=%q,kernel=\"supernodal\"}", key),
		fmt.Sprintf("thermserve_grid_factor_panels{system=%q}", key),
		fmt.Sprintf("thermserve_grid_factor_peak_bytes{system=%q}", key),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, fmt.Sprintf("thermserve_grid_factor_panels{system=%q} ", key)); ok {
			if n, err := strconv.Atoi(rest); err != nil || n <= 0 {
				t.Errorf("panel count = %q, want a positive integer", rest)
			}
		}
	}
}

// TestServerStoreBudgetEvictsSystemMap: with a tiny budget every request's
// file blows the budget, so the post-request eviction removes it and drops
// the live system — the next identical request is cold again and the store
// stays within budget.
func TestServerStoreBudgetEvictsSystemMap(t *testing.T) {
	_, hs := newTestServer(t, Config{CacheDir: t.TempDir(), StoreBudget: 1})

	first, _ := postSchedule(t, hs.URL, table1Request())
	if first.Cache.SystemWarm {
		t.Error("first request warm")
	}
	var sys SystemsResponse
	resp, err := http.Get(hs.URL + "/v1/systems")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sys); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sys.Systems) != 0 {
		t.Errorf("live systems after over-budget request = %d, want 0 (map evicted)", len(sys.Systems))
	}
	if sys.Store == nil || sys.Store.Files != 0 || sys.Store.EvictedFiles == 0 {
		t.Errorf("store after eviction = %+v, want 0 files and evictions recorded", sys.Store)
	}

	second, _ := postSchedule(t, hs.URL, table1Request())
	if second.Cache.SystemWarm {
		t.Error("request after eviction found a warm system; eviction did not drop the map entry")
	}
	if second.Result.Schedule != first.Result.Schedule {
		t.Error("schedule changed across eviction")
	}
}

// TestSystemKeyMatchesStoreFile: the key the response reports is the store's
// content address — the record file on disk is named by it.
func TestSystemKeyMatchesStoreFile(t *testing.T) {
	dir := t.TempDir()
	_, hs := newTestServer(t, Config{CacheDir: dir})
	out, _ := postSchedule(t, hs.URL, table1Request())
	if len(out.Result.SystemKey) != 64 {
		t.Fatalf("system key %q is not a sha256 hex", out.Result.SystemKey)
	}
	var sys SystemsResponse
	resp, err := http.Get(hs.URL + "/v1/systems")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&sys); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(sys.Systems) != 1 || sys.Systems[0].Key != out.Result.SystemKey {
		t.Fatalf("systems key %v != response key %s", sys.Systems, out.Result.SystemKey)
	}
	path := fmt.Sprintf("%s/%s/%s.tsoc", dir, out.Result.SystemKey[:2], out.Result.SystemKey)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("record file %s: %v", path, err)
	}
}
