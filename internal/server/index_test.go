package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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
	code, result, err := trySchedule(h, body)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK {
		t.Fatalf("POST /v1/schedule status %d for %v", code, body)
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
// are live systems, and returns both sizes.
func checkIndexBound(t *testing.T, s *Server) (index, systems int) {
	t.Helper()
	s.mu.Lock()
	index, systems = len(s.index), len(s.systems)
	s.mu.Unlock()
	if index > systems {
		t.Errorf("request index holds %d entries for %d live systems", index, systems)
	}
	return index, systems
}

// TestRequestIndexRepeatHits: a byte-identical repeat skips the parse through
// the index and answers with the result JSON a fresh server gives, for a
// builtin and an inline workload alike.
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
			fresh := freshResult(t, body)
			if !bytes.Equal(warm, fresh) || !bytes.Equal(cold, fresh) {
				t.Errorf("result JSON differs from a fresh server's:\ncold:  %s\nwarm:  %s\nfresh: %s", cold, warm, fresh)
			}
			if index, systems := checkIndexBound(t, srv); index != 1 || systems != 1 {
				t.Errorf("index/systems = %d/%d, want 1/1", index, systems)
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
		// A bad option is still rejected on a hit, with the miss path's code.
		status, _, err := trySchedule(h, withField(base, "order", "sideways"))
		if err != nil || status != http.StatusBadRequest {
			t.Errorf("bad order on an indexed system: status %d (%v), want 400", status, err)
		}
	})
}

// TestRequestIndexLeavesWithSystem: an index entry leaves exactly when its
// system does — on the MaxSystems LRU drop, on store-budget eviction and on a
// failed build — so the next identical request misses and rebuilds, and the
// index never outgrows the live map.
func TestRequestIndexLeavesWithSystem(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		srv := newIndexServer(t, Config{MaxSystems: 1})
		h := srv.Handler()
		a, b := quadBody(), withField(quadBody(), "name", "other")
		b["test_spec"] = strings.Replace(quadTestSpec, "1.0", "3.0", -1)
		serveSchedule(t, h, a)
		serveSchedule(t, h, b) // drops a's system
		if index, systems := checkIndexBound(t, srv); index != 1 || systems != 1 {
			t.Fatalf("after LRU drop: index/systems = %d/%d, want 1/1", index, systems)
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
		if index, systems := checkIndexBound(t, srv); index != 0 || systems != 0 {
			t.Fatalf("after eviction: index/systems = %d/%d, want 0/0", index, systems)
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
			if index, systems := checkIndexBound(t, srv); index != 0 || systems != 0 {
				t.Fatalf("after failed build %d: index/systems = %d/%d, want 0/0", i, index, systems)
			}
		}
		if hits, misses := indexCounts(srv); hits != 0 || misses != 2 {
			t.Errorf("failed builds: index hits/misses = %d/%d, want 0/2", hits, misses)
		}
	})
}

// TestRequestIndexConcurrentIdentical: 32 goroutines post one body at once
// (run under -race by CI); every answer is byte-identical to a fresh
// server's and one index entry serves one live system.
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
	if index, systems := checkIndexBound(t, srv); index != 1 || systems != 1 {
		t.Errorf("index/systems = %d/%d, want 1/1", index, systems)
	}
}

// TestRequestIndexHashCollisionMisses: with every body forced onto one index
// key, a second body whose fields differ still misses — a hash match alone
// never returns a system — and each body answers exactly as on a fresh
// server.
func TestRequestIndexHashCollisionMisses(t *testing.T) {
	srv := newIndexServer(t, Config{})
	srv.indexHash = func(systemFields) uint64 { return 7 }
	h := srv.Handler()
	a := quadBody()
	b := withField(quadBody(), "test_spec", strings.Replace(quadTestSpec, "a 2.0 6.0 1.0", "a 2.0 6.0 2.0", 1))

	gotA := serveSchedule(t, h, a)
	gotB := serveSchedule(t, h, b)
	if hits, misses := indexCounts(srv); hits != 0 || misses != 2 {
		t.Fatalf("colliding bodies: index hits/misses = %d/%d, want 0/2", hits, misses)
	}
	if !bytes.Equal(gotA, freshResult(t, a)) || !bytes.Equal(gotB, freshResult(t, b)) {
		t.Errorf("colliding bodies answered differently from a fresh server")
	}
	if bytes.Equal(gotA, gotB) {
		t.Fatal("the two bodies give the same result; the test cannot tell them apart")
	}
	// b took the shared slot; a misses again, then takes it back and hits.
	serveSchedule(t, h, a)
	serveSchedule(t, h, a)
	if hits, misses := indexCounts(srv); hits != 1 || misses != 3 {
		t.Errorf("after re-requesting a: index hits/misses = %d/%d, want 1/3", hits, misses)
	}
	if index, systems := checkIndexBound(t, srv); index != 1 || systems != 2 {
		t.Errorf("index/systems = %d/%d, want 1/2", index, systems)
	}
}

// FuzzScheduleRequest feeds arbitrary bytes through the request decoder and
// resolves each decoded body twice through one server, the second time
// through the request index. Neither step may panic, and the two resolves
// must agree: the same error code, or the same system keys, spec name and
// core count.
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

	srv, err := New(Config{MaxSystems: 8})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeScheduleRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		p1, code1, err1 := srv.resolveProblem(req)
		if err1 == nil {
			// Take the system live (without building it) so its index entry
			// answers the second resolve.
			e, _ := srv.system(p1)
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
