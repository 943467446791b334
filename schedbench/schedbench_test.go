package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/server"
)

// plans builds each workload's plan for a seed at a small op count.
func plans(t *testing.T, seed int64) map[string]*plan {
	t.Helper()
	out := make(map[string]*plan)
	for name, wl := range workloads {
		b, err := newBench(wl.kind, seed, 60)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = b.plan
	}
	return out
}

// opBodies concatenates the request bodies of a plan's ops, in op order.
func opBodies(p *plan) []byte {
	var all []byte
	for _, o := range p.ops {
		for _, pi := range o.problems {
			all = append(all, p.problems[pi].body...)
		}
	}
	return all
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := plans(t, 7), plans(t, 7), plans(t, 8)
	for name := range workloads {
		pa, pb := a[name], b[name]
		if len(pa.problems) != len(pb.problems) {
			t.Fatalf("%s: %d vs %d problems", name, len(pa.problems), len(pb.problems))
		}
		for i := range pa.problems {
			if !bytes.Equal(pa.problems[i].body, pb.problems[i].body) {
				t.Fatalf("%s: request body %d differs between runs of one seed", name, i)
			}
		}
		if !reflect.DeepEqual(pa.ops, pb.ops) || !reflect.DeepEqual(pa.warm, pb.warm) {
			t.Fatalf("%s: op order differs between runs of one seed", name)
		}
		if bytes.Equal(opBodies(pa), opBodies(c[name])) {
			t.Errorf("%s: seeds 7 and 8 give the same requests in the same order", name)
		}
	}
}

// tamper rewrites the n-th POST /v1/schedule answer after arming, one
// corruption per answer, and passes everything else through.
type tamper struct {
	inner http.Handler
	armed atomic.Bool
	n     atomic.Int64
	edits []func(status int, resp *server.ScheduleResponse) int
}

func (tp *tamper) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !tp.armed.Load() || r.URL.Path != "/v1/schedule" {
		tp.inner.ServeHTTP(w, r)
		return
	}
	i := int(tp.n.Add(1)) - 1
	if i >= len(tp.edits) {
		tp.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	tp.inner.ServeHTTP(rec, r)
	var resp server.ScheduleResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		panic(err)
	}
	status := tp.edits[i](rec.Code, &resp)
	raw, _ := json.Marshal(resp)
	w.WriteHeader(status)
	w.Write(raw)
}

func TestCheckerCountsTamperedAnswers(t *testing.T) {
	edits := []func(int, *server.ScheduleResponse) int{
		// A different result: the digest no longer matches the first answer.
		func(s int, r *server.ScheduleResponse) int { r.Result.Effort++; return s },
		// A committed session above TL.
		func(s int, r *server.ScheduleResponse) int { r.Result.MaxTemp = r.Result.EffectiveTL + 1; return s },
		// A core missing from the schedule: drop the last session line.
		func(s int, r *server.ScheduleResponse) int {
			lines := strings.Split(strings.TrimSpace(r.Result.Schedule), "\n")
			r.Result.Schedule = strings.Join(lines[:len(lines)-1], "\n")
			return s
		},
		// A core scheduled twice: repeat the first session's first core in
		// the last session.
		func(s int, r *server.ScheduleResponse) int {
			r.Result.Schedule += "TSx: " + r.Result.Sessions[0][0] + "\n"
			return s
		},
		// A non-200 status with an otherwise perfect body.
		func(int, *server.ScheduleResponse) int { return http.StatusInternalServerError },
	}
	b, err := newBench(serveWarm, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if err := b.setup(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	tp := &tamper{inner: b.h, edits: edits}
	b.h = tp
	tp.armed.Store(true)
	samples := b.runOps()
	_, extra := b.endToEnd(samples, 1, 1)
	if got, want := extra["error_rate"].Value, float64(len(edits))/40; got != want {
		for _, r := range b.recs {
			if r.err != nil {
				t.Log(r.err)
			}
		}
		t.Fatalf("error_rate = %g, want %g (%d tampered of 40)", got, want, len(edits))
	}
}

func TestRetainedStateDriftFailsRun(t *testing.T) {
	b, err := newBench(serveWarm, 5, 40)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if err := b.setup(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	b.runOps()
	if err := b.checkRetained(); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	var rec opRecord
	b.job(0, b.plan.problems[0], &rec) // one job more than the op count implies
	if rec.err != nil {
		t.Fatal(rec.err)
	}
	if err := b.checkRetained(); err == nil {
		t.Fatal("an extra retained job went unnoticed")
	}
}

// TestTracedMatchesUntraced runs each workload briefly with and without
// tracing: both must pass every check, and the traced run's answers must
// reproduce the untraced run's digests, attempts and misses op for op.
func TestTracedMatchesUntraced(t *testing.T) {
	ops := map[string]int{"serve-warm": 60, "grid-cold": 3, "store-restart": 6}
	for name, n := range ops {
		t.Run(name, func(t *testing.T) {
			o := options{workload: name, seed: 11, seconds: 1, root: t.TempDir(), ops: n, setups: 1}
			plain, err := runWorkload(o)
			if err != nil {
				t.Fatal(err)
			}
			o.trace = true
			traced, err := runWorkload(o)
			if err != nil {
				t.Fatal(err)
			}
			for _, rep := range []*report{plain, traced} {
				if rep.failed != 0 {
					t.Fatalf("%d of %d ops failed: %v", rep.failed, rep.attempted, rep.firstErrors)
				}
			}
			for i := range plain.recs {
				if !reflect.DeepEqual(plain.recs[i].answers, traced.recs[i].answers) {
					t.Fatalf("op %d: untraced %+v, traced %+v", i, plain.recs[i].answers, traced.recs[i].answers)
				}
				if len(traced.recs[i].layers) != len(traced.recs[i].answers) {
					t.Fatalf("op %d: %d replays for %d answers", i, len(traced.recs[i].layers), len(traced.recs[i].answers))
				}
			}
			for _, m := range []string{"core.generate_ms", "server.handler_ms", "trace.overhead_pct", "linalg.numeric_ms"} {
				if _, ok := traced.perLayer[m]; !ok {
					t.Errorf("traced run lacks %s", m)
				}
			}
			if len(plain.endToEnd) != 7 {
				t.Errorf("untraced run reports %d end-to-end metrics, want 7", len(plain.endToEnd))
			}
		})
	}
}
