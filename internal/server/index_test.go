package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
)

// quadFloorplan is a 2×2 tiling of 2 mm blocks: small enough to schedule in
// microseconds, and "d 2e-3 3e-3" (one byte changed) still parses.
const quadFloorplan = "a 2e-3 2e-3 0 0\nb 2e-3 2e-3 2e-3 0\nc 2e-3 2e-3 0 2e-3\nd 2e-3 2e-3 2e-3 2e-3\n"

// quadTestSpec gives every quad block the same modest test.
const quadTestSpec = "a 2.0 6.0 1.0\nb 2.0 6.0 1.0\nc 2.0 6.0 1.0\nd 2.0 6.0 1.0\n"

// quadBody is an inline-workload request body on the quad floorplan.
func quadBody() map[string]any {
	return map[string]any{
		"name":       "quad",
		"floorplan":  quadFloorplan,
		"test_spec":  quadTestSpec,
		"package":    map[string]any{"ambient_celsius": 45},
		"tl_celsius": 165,
		"stcl":       60,
	}
}

// withField returns a copy of body with key set to v.
func withField(body map[string]any, key string, v any) map[string]any {
	out := make(map[string]any, len(body)+1)
	for k, x := range body {
		out[k] = x
	}
	out[key] = v
	return out
}

// trySchedule serves one POST /v1/schedule in process and returns the status
// and the raw result object. It never touches testing.T, so worker goroutines
// can use it.
func trySchedule(h http.Handler, body map[string]any) (int, json.RawMessage, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	return tryScheduleRaw(h, raw)
}

// tryScheduleRaw is trySchedule for a body given as bytes.
func tryScheduleRaw(h http.Handler, raw []byte) (int, json.RawMessage, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(raw)))
	if rec.Code != http.StatusOK {
		return rec.Code, nil, nil
	}
	var envelope struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
		return rec.Code, nil, fmt.Errorf("decoding response: %v\n%s", err, rec.Body.Bytes())
	}
	return rec.Code, envelope.Result, nil
}

// serveSchedule is trySchedule for the test goroutine: anything but a 200
// is fatal.
func serveSchedule(t *testing.T, h http.Handler, body map[string]any) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return serveScheduleRaw(t, h, raw)
}

// serveScheduleRaw is serveSchedule for a body given as bytes.
func serveScheduleRaw(t *testing.T, h http.Handler, raw []byte) json.RawMessage {
	t.Helper()
	code, result, err := tryScheduleRaw(h, raw)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK {
		t.Fatalf("POST /v1/schedule status %d for %.200s", code, raw)
	}
	return result
}

// newIndexServer builds a server for in-process requests.
func newIndexServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// freshResult answers body on a server that has seen nothing else.
func freshResult(t *testing.T, body map[string]any) json.RawMessage {
	t.Helper()
	return serveSchedule(t, newIndexServer(t, Config{}).Handler(), body)
}

// indexCounts reads the request-index hit and miss counters.
func indexCounts(s *Server) (hits, misses int64) {
	return s.indexHits.Load(), s.indexMisses.Load()
}

// checkIndexBound fails unless the index holds no more entries than there
// are live systems, every body-layer entry is kept by exactly one live
// system, no live system keeps more than maxBodyBytes of bodies, and every
// kept entry holds its problem in place of its decoded request. It returns
// the sizes of the index, the body layer and the live map.
func checkIndexBound(t *testing.T, s *Server) (index, bodies, systems int) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	index, bodies, systems = len(s.index), len(s.bodies), len(s.systems)
	if index > systems {
		t.Errorf("request index holds %d entries for %d live systems", index, systems)
	}
	kept := make(map[*accepted]bool)
	for _, e := range s.systems {
		n := 0
		for _, a := range e.bodies {
			if a.owner != e || s.bodies[a.body] != a || kept[a] {
				t.Errorf("a live system keeps a body entry the layer does not map to it alone")
			}
			if a.req != nil || a.p == nil {
				t.Errorf("a kept body entry still references its decoded request")
			}
			kept[a] = true
			n += len(a.body)
		}
		if n != e.bodyBytes || n > maxBodyBytes {
			t.Errorf("a live system keeps %d bytes of bodies (it counts %d), bound %d", n, e.bodyBytes, maxBodyBytes)
		}
	}
	if len(kept) != bodies {
		t.Errorf("live systems keep %d body entries, the layer holds %d: an entry outlived its system", len(kept), bodies)
	}
	return index, bodies, systems
}

// keptBodies lists the bodies the server's one live system keeps, oldest
// first.
func keptBodies(t *testing.T, s *Server) []string {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.systems) != 1 {
		t.Fatalf("%d live systems, want 1", len(s.systems))
	}
	var out []string
	for _, e := range s.systems {
		for _, a := range e.bodies {
			out = append(out, a.body)
		}
	}
	return out
}

// TestRequestIndexRepeatHits: a byte-identical repeat skips the decode and
// the parse through the body layer, counts as an index hit and answers with
// the result JSON a fresh server gives, for a builtin and an inline workload
// alike.
func TestRequestIndexRepeatHits(t *testing.T) {
	for name, body := range map[string]map[string]any{
		"builtin": table1Request(),
		"inline":  quadBody(),
	} {
		t.Run(name, func(t *testing.T) {
			srv := newIndexServer(t, Config{})
			h := srv.Handler()
			cold := serveSchedule(t, h, body)
			if hits, misses := indexCounts(srv); hits != 0 || misses != 1 {
				t.Fatalf("cold request: index hits/misses = %d/%d, want 0/1", hits, misses)
			}
			warm := serveSchedule(t, h, body)
			if hits, misses := indexCounts(srv); hits != 1 || misses != 1 {
				t.Fatalf("repeat: index hits/misses = %d/%d, want 1/1", hits, misses)
			}
			// A repeat rejected for its deadline header never resolved, so
			// it counts neither way.
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(raw))
			r.Header.Set("X-Request-Deadline", "soon")
			h.ServeHTTP(rec, r)
			if hits, misses := indexCounts(srv); rec.Code != http.StatusBadRequest || hits != 1 || misses != 1 {
				t.Fatalf("repeat with a bad deadline header: status %d, index hits/misses = %d/%d, want 400 and 1/1",
					rec.Code, hits, misses)
			}
			fresh := freshResult(t, body)
			if !bytes.Equal(warm, fresh) || !bytes.Equal(cold, fresh) {
				t.Errorf("result JSON differs from a fresh server's:\ncold:  %s\nwarm:  %s\nfresh: %s", cold, warm, fresh)
			}
			if index, bodies, systems := checkIndexBound(t, srv); index != 1 || bodies != 1 || systems != 1 {
				t.Errorf("index/bodies/systems = %d/%d/%d, want 1/1/1", index, bodies, systems)
			}
		})
	}
}

// TestRequestIndexFieldEditsMiss: one byte changed in any system-defining
// field misses the index and resolves fresh, answering exactly as a fresh
// server does; changing only generator options still hits.
func TestRequestIndexFieldEditsMiss(t *testing.T) {
	base := quadBody()
	edits := []struct {
		field string
		base  map[string]any
		edit  map[string]any
	}{
		{"name", base, withField(base, "name", "quae")},
		{"floorplan", base, withField(base, "floorplan",
			strings.Replace(quadFloorplan, "d 2e-3 2e-3", "d 2e-3 3e-3", 1))},
		{"test_spec", base, withField(base, "test_spec",
			strings.Replace(quadTestSpec, "a 2.0 6.0 1.0", "a 2.0 6.0 2.0", 1))},
		{"package.ambient_celsius", base, withField(base, "package",
			map[string]any{"ambient_celsius": 46})},
		{"grid_res", base, withField(base, "grid_res", 16)},
		// "fig1" names the same builtin as "figure1": a miss that resolves to
		// the live system and takes over its index entry.
		{"workload", withField(table1Request(), "workload", "figure1"),
			withField(table1Request(), "workload", "fig1")},
	}
	for _, e := range edits {
		t.Run(e.field, func(t *testing.T) {
			srv := newIndexServer(t, Config{})
			h := srv.Handler()
			serveSchedule(t, h, e.base)
			serveSchedule(t, h, e.base)
			if hits, misses := indexCounts(srv); hits != 1 || misses != 1 {
				t.Fatalf("base twice: index hits/misses = %d/%d, want 1/1", hits, misses)
			}
			got := serveSchedule(t, h, e.edit)
			if hits, misses := indexCounts(srv); hits != 1 || misses != 2 {
				t.Errorf("edited %s: index hits/misses = %d/%d, want 1/2", e.field, hits, misses)
			}
			if fresh := freshResult(t, e.edit); !bytes.Equal(got, fresh) {
				t.Errorf("edited %s: result differs from a fresh server's:\ngot:   %s\nfresh: %s", e.field, got, fresh)
			}
			checkIndexBound(t, srv)
		})
	}

	t.Run("generator options", func(t *testing.T) {
		srv := newIndexServer(t, Config{})
		h := srv.Handler()
		serveSchedule(t, h, base)
		opts := []map[string]any{
			withField(base, "tl_celsius", 170),
			withField(base, "stcl", 55),
			withField(base, "order", "power-desc"),
			withField(base, "weight_growth", 1.2),
			withField(base, "auto_raise_tl", true),
			withField(base, "max_attempts", 10000),
			withField(base, "deadline_ms", 60000),
		}
		for i, body := range opts {
			got := serveSchedule(t, h, body)
			if hits, misses := indexCounts(srv); hits != int64(i+1) || misses != 1 {
				t.Fatalf("option edit %d: index hits/misses = %d/%d, want %d/1", i, hits, misses, i+1)
			}
			if fresh := freshResult(t, body); !bytes.Equal(got, fresh) {
				t.Errorf("option edit %d: result differs from a fresh server's:\ngot:   %s\nfresh: %s", i, got, fresh)
			}
		}
		// The base body reformatted has the same fields and knobs in new
		// bytes: a body-layer miss that hits the index.
		raw, err := json.MarshalIndent(base, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		srv.mu.Lock()
		_, inLayer := srv.bodies[string(raw)]
		srv.mu.Unlock()
		if inLayer {
			t.Fatal("the reformatted body is already in the body layer")
		}
		got := serveScheduleRaw(t, h, raw)
		if hits, misses := indexCounts(srv); hits != int64(len(opts)+1) || misses != 1 {
			t.Errorf("reformatted body: index hits/misses = %d/%d, want %d/1", hits, misses, len(opts)+1)
		}
		if fresh := serveScheduleRaw(t, newIndexServer(t, Config{}).Handler(), raw); !bytes.Equal(got, fresh) {
			t.Errorf("reformatted body: result differs from a fresh server's:\ngot:   %s\nfresh: %s", got, fresh)
		}
		checkIndexBound(t, srv)
		// A bad option is still rejected on a hit, with the miss path's code.
		status, _, err := trySchedule(h, withField(base, "order", "sideways"))
		if err != nil || status != http.StatusBadRequest {
			t.Errorf("bad order on an indexed system: status %d (%v), want 400", status, err)
		}
	})
}

// TestRequestIndexLeavesWithSystem: an index entry and the system's
// body-layer entries leave exactly when their system does — on the
// MaxSystems LRU drop, on store-budget eviction and on a failed build — so
// the next identical request misses both and rebuilds, and neither outgrows
// the live map.
func TestRequestIndexLeavesWithSystem(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		srv := newIndexServer(t, Config{MaxSystems: 1})
		h := srv.Handler()
		a, b := quadBody(), withField(quadBody(), "name", "other")
		b["test_spec"] = strings.Replace(quadTestSpec, "1.0", "3.0", -1)
		serveSchedule(t, h, a)
		serveSchedule(t, h, b) // drops a's system
		if index, bodies, systems := checkIndexBound(t, srv); index != 1 || bodies != 1 || systems != 1 {
			t.Fatalf("after LRU drop: index/bodies/systems = %d/%d/%d, want 1/1/1", index, bodies, systems)
		}
		serveSchedule(t, h, a)
		if hits, misses := indexCounts(srv); hits != 0 || misses != 3 {
			t.Errorf("dropped system's body: index hits/misses = %d/%d, want 0/3", hits, misses)
		}
		checkIndexBound(t, srv)
	})

	t.Run("store eviction", func(t *testing.T) {
		srv := newIndexServer(t, Config{CacheDir: t.TempDir(), StoreBudget: 1})
		h := srv.Handler()
		serveSchedule(t, h, quadBody())
		if index, bodies, systems := checkIndexBound(t, srv); index != 0 || bodies != 0 || systems != 0 {
			t.Fatalf("after eviction: index/bodies/systems = %d/%d/%d, want 0/0/0", index, bodies, systems)
		}
		serveSchedule(t, h, quadBody())
		if hits, misses := indexCounts(srv); hits != 0 || misses != 2 {
			t.Errorf("evicted system's body: index hits/misses = %d/%d, want 0/2", hits, misses)
		}
	})

	t.Run("failed build", func(t *testing.T) {
		srv := newIndexServer(t, Config{CacheDir: t.TempDir()})
		h := srv.Handler()
		// A closed store refuses to open systems, so every build fails.
		if err := srv.store.Close(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if status, _, err := trySchedule(h, quadBody()); err != nil || status != http.StatusInternalServerError {
				t.Fatalf("build on a closed store %d: status %d (%v), want 500", i, status, err)
			}
			if index, bodies, systems := checkIndexBound(t, srv); index != 0 || bodies != 0 || systems != 0 {
				t.Fatalf("after failed build %d: index/bodies/systems = %d/%d/%d, want 0/0/0", i, index, bodies, systems)
			}
		}
		if hits, misses := indexCounts(srv); hits != 0 || misses != 2 {
			t.Errorf("failed builds: index hits/misses = %d/%d, want 0/2", hits, misses)
		}
	})
}

// TestRequestIndexConcurrentIdentical: 32 goroutines post one body at once
// (run under -race by CI); every answer is byte-identical to a fresh
// server's, and one index entry and one body entry serve one live system.
func TestRequestIndexConcurrentIdentical(t *testing.T) {
	srv := newIndexServer(t, Config{})
	h := srv.Handler()
	body := quadBody()
	const n = 32
	results := make([]json.RawMessage, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, result, err := trySchedule(h, body)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d", status)
			}
			results[i], errs[i] = result, err
		}(i)
	}
	wg.Wait()
	fresh := freshResult(t, body)
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], fresh) {
			t.Errorf("request %d result differs from a fresh server's:\ngot:   %s\nfresh: %s", i, results[i], fresh)
		}
	}
	if hits, misses := indexCounts(srv); hits+misses != n || misses < 1 {
		t.Errorf("index hits/misses = %d/%d, want %d in all with at least one miss", hits, misses, n)
	}
	if index, bodies, systems := checkIndexBound(t, srv); index != 1 || bodies != 1 || systems != 1 {
		t.Errorf("index/bodies/systems = %d/%d/%d, want 1/1/1", index, bodies, systems)
	}
}

// TestBodyLayerDropsOldestBody: one live system keeps at most maxBodyBytes
// of bodies and drops its oldest first. Option-edited bodies padded with
// trailing whitespace to just over a quarter of the bound leave room for
// three. Every answer is byte-identical to a fresh server's, and a dropped
// body posted again is a body-layer miss that is kept anew.
func TestBodyLayerDropsOldestBody(t *testing.T) {
	srv := newIndexServer(t, Config{})
	h := srv.Handler()
	pad := strings.Repeat(" ", maxBodyBytes/4)
	var bodies []string
	post := func(raw string) {
		t.Helper()
		got := serveScheduleRaw(t, h, []byte(raw))
		if fresh := serveScheduleRaw(t, newIndexServer(t, Config{}).Handler(), []byte(raw)); !bytes.Equal(got, fresh) {
			t.Errorf("result differs from a fresh server's:\ngot:   %s\nfresh: %s", got, fresh)
		}
		checkIndexBound(t, srv)
	}
	for i := 0; i < 6; i++ {
		raw, err := json.Marshal(withField(quadBody(), "stcl", 50+i))
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, string(raw)+pad)
		post(bodies[i])
		if want := bodies[max(0, i-2):]; !slices.Equal(keptBodies(t, srv), want) {
			t.Fatalf("after body %d: the system keeps %d bodies, want bodies %d..%d in order",
				i, len(keptBodies(t, srv)), max(0, i-2), i)
		}
	}
	post(bodies[5])
	post(bodies[0])
	if want := []string{bodies[4], bodies[5], bodies[0]}; !slices.Equal(keptBodies(t, srv), want) {
		t.Errorf("after re-posting a kept and a dropped body: want bodies 4, 5, 0 kept in order")
	}
	if hits, misses := indexCounts(srv); hits != 7 || misses != 1 {
		t.Errorf("index hits/misses = %d/%d, want 7/1", hits, misses)
	}
}

// TestBodyLayerNeedsWholeBody: a body cut off at maxBodyBytes is never a
// body-layer hit, even when the bytes read equal an accepted body: a body of
// exactly maxBodyBytes is accepted and kept, and the same bytes plus one
// more space are still a 413 body_too_large.
func TestBodyLayerNeedsWholeBody(t *testing.T) {
	srv := newIndexServer(t, Config{})
	h := srv.Handler()
	raw, err := json.Marshal(table1Request())
	if err != nil {
		t.Fatal(err)
	}
	full := append(raw, strings.Repeat(" ", maxBodyBytes-len(raw))...)
	serveScheduleRaw(t, h, full)
	if _, bodies, _ := checkIndexBound(t, srv); bodies != 1 {
		t.Fatalf("the layer holds %d bodies after a full-size accepted body, want 1", bodies)
	}
	if status, code := postOutcome(h, append(full, ' ')); status != http.StatusRequestEntityTooLarge || code != "body_too_large" {
		t.Errorf("one byte past the limit: status %d code %q, want 413 body_too_large", status, code)
	}
}

// postOutcome serves one POST /v1/schedule of raw in process and returns its
// status and either the result section (200) or the error code.
func postOutcome(h http.Handler, raw []byte) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(raw)))
	var envelope struct {
		Result json.RawMessage `json:"result"`
		Error  ErrorDetail     `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
		return rec.Code, fmt.Sprintf("undecodable response %q", rec.Body.Bytes())
	}
	if rec.Code == http.StatusOK {
		return rec.Code, string(envelope.Result)
	}
	return rec.Code, envelope.Error.Code
}

// FuzzScheduleRequest feeds arbitrary bytes to the schedule handler twice
// through one server, so that a body the first pass accepts reaches the
// second through the body layer. The passes must agree on the status and on
// the error code or the result section. It then decodes each body and
// resolves it twice, the second time through the request index: the two
// resolves must agree on the error code, or on the system keys, spec name
// and core count. Nothing may panic.
func FuzzScheduleRequest(f *testing.F) {
	for _, body := range []map[string]any{table1Request(), quadBody()} {
		raw, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	edited, err := json.Marshal(withField(quadBody(), "floorplan",
		strings.Replace(quadFloorplan, "d 2e-3 2e-3", "d 2e-3 3e-3", 1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(edited)
	f.Add([]byte(`{"workload": "alpha21364", "tl_celsius": 165,`))
	f.Add([]byte(`{"workload": "alpha21364", "tl_celsius": 165, "stcl": 60} {}`))
	f.Add([]byte(`{"workload": "alpha21364", "tl_celsius": 60, "stcl": 60}`))

	srv, err := New(Config{MaxSystems: 8})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req, decErr := decodeScheduleRequest(bytes.NewReader(body))
		// A deadline makes the outcome depend on time, and a large grid or
		// attempt budget costs seconds and gigabytes per generation: such
		// bodies skip the handler passes.
		if decErr != nil || !(req.DeadlineMS > 0 || req.MaxAttempts > 100000 ||
			req.GridRes > 8 && req.GridRes <= maxGridRes) {
			status1, out1 := postOutcome(h, body)
			srv.mu.Lock()
			_, kept := srv.bodies[string(body)]
			srv.mu.Unlock()
			if status1 == http.StatusOK && !kept {
				t.Fatalf("the body layer did not keep an accepted body")
			}
			hits, _ := indexCounts(srv)
			status2, out2 := postOutcome(h, body)
			if status1 != status2 || out1 != out2 {
				t.Fatalf("passes disagree: %d %s, then %d %s", status1, out1, status2, out2)
			}
			if got, _ := indexCounts(srv); kept && got != hits+1 {
				t.Fatalf("the second pass of a kept body missed the body layer")
			}
		}
		if decErr != nil {
			return
		}
		p1, code1, err1 := srv.resolveProblem(req)
		if err1 == nil {
			// Take the system live (without building it) so its index entry
			// answers the second resolve.
			e, _ := srv.system(&accepted{body: string(body), p: p1})
			srv.release(e)
		}
		hits, _ := indexCounts(srv)
		p2, code2, err2 := srv.resolveProblem(req)
		if (err1 == nil) != (err2 == nil) || code1 != code2 {
			t.Fatalf("resolves disagree: %q %v, then %q %v", code1, err1, code2, err2)
		}
		if err1 != nil {
			return
		}
		if got, _ := indexCounts(srv); got != hits+1 {
			t.Fatalf("second resolve of an accepted body missed the index")
		}
		if p1.mapKey != p2.mapKey || p1.oracleKey != p2.oracleKey ||
			p1.spec.Name() != p2.spec.Name() || p1.spec.NumCores() != p2.spec.NumCores() {
			t.Fatalf("resolves disagree: %x/%x %q %d cores, then %x/%x %q %d cores",
				p1.mapKey, p1.oracleKey, p1.spec.Name(), p1.spec.NumCores(),
				p2.mapKey, p2.oracleKey, p2.spec.Name(), p2.spec.NumCores())
		}
	})
}
