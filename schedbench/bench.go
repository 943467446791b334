package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/server"
)

// Workload kinds.
const (
	serveWarm = iota
	gridCold
	storeRestart
)

// Sizing. Every run of a workload performs ceil(opsPerSecond × --seconds)
// ops, so the state a run leaves behind (finished jobs, store files, live
// systems) depends on the op count alone, never on how fast the host was.
const (
	// gridColdRes is grid-cold's resolution: numeric factorization and the
	// solves each take at least a fifth of an op there.
	gridColdRes = 64
	// storeRestartRes is the resolution of store-restart's cold fill; the
	// ops never solve, so it only sets the fill's cost.
	storeRestartRes = 48
	// gridColdWarmups are the cold systems set-up poses before timing.
	gridColdWarmups = 5
	// gridColdMaxSystems bounds grid-cold's live system map.
	gridColdMaxSystems = 4
)

// Every workload has one closed-loop client. On a shared two-vCPU host a
// second client measured the host's scheduler (serve-warm's time spreads
// were 0.2–0.4 of the median with two clients and ~0.05 with one); one
// client leaves the other vCPU to the garbage collector and the generator's
// phase-1 fan-out.
type workload struct {
	kind         int
	opsPerSecond float64
}

var workloads = map[string]workload{
	"serve-warm":    {kind: serveWarm, opsPerSecond: 1000},
	"grid-cold":     {kind: gridCold, opsPerSecond: 6},
	"store-restart": {kind: storeRestart, opsPerSecond: 250},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// reqSample is one POST /v1/schedule as the client saw it (milliseconds).
type reqSample struct {
	handler, queue, generate float64
}

// opRecord is everything measured about one op.
type opRecord struct {
	dur      time.Duration // client-observed latency (checks excluded)
	err      error         // first check failure
	job      bool
	reqs     []reqSample
	answers  []answer // one per request or job, in order
	reqBytes int
	sims     int64 // tier-2 misses: simulations the op caused
	// Job ops: submit and event-stream handler times, events streamed.
	submitMS, streamMS float64
	events             int
	// Traced runs: one record per replayed request.
	layers []layerSample
}

func (r *opRecord) fail(err error) {
	if err != nil && r.err == nil {
		r.err = err
	}
}

// bench is one workload's state across set-up, the timed phase and the
// end-of-run checks.
type bench struct {
	kind  int
	plan  *plan
	chk   *checker
	rules rules // what every timed answer must meet
	cfg   server.Config

	srv *server.Server // serve-warm, grid-cold: the live service
	h   http.Handler
	dir string // current set-up directory (store-restart: the filled store)

	setupJobs int
	recs      []opRecord
	tr        *tracer
	// journal0 is the job journal's size when timing starts.
	journal0 int64
}

func newBench(kind int, seed int64, nops int) (*bench, error) {
	b := &bench{kind: kind, chk: newChecker()}
	var err error
	switch kind {
	case serveWarm:
		b.plan, err = serveWarmPlan(seed, nops)
		b.rules = rules{noTier1Misses: true, noSims: true}
	case gridCold:
		b.plan, err = gridColdPlan(seed, nops, gridColdWarmups, gridColdRes)
		b.rules = rules{gridFactorized: true, noTier2Hits: true}
		b.cfg.MaxSystems = gridColdMaxSystems
	case storeRestart:
		b.plan, err = storeRestartPlan(seed, nops, storeRestartRes)
		b.rules = rules{noSims: true}
	}
	if err != nil {
		return nil, err
	}
	b.recs = make([]opRecord, len(b.plan.ops))
	return b, nil
}

// call runs one request through the handler and returns the status, the
// body and the handler's wall time.
func call(h http.Handler, method, target string, body []byte) (int, []byte, time.Duration) {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), time.Since(start)
}

// setup builds the service in a fresh directory and poses the warm-up
// problems. For store-restart it fills the store cold and closes the
// service again.
func (b *bench) setup(dir string) error {
	b.dir = dir
	cfg := b.cfg
	cfg.CacheDir = dir
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	b.srv, b.h = srv, srv.Handler()
	// Set-up answers must pass the same checks, except that they may miss
	// (and are all answered at grid fidelity, cold, outside serve-warm).
	warm := rules{gridFactorized: b.kind != serveWarm}
	for _, pi := range b.plan.warm {
		p := b.plan.problems[pi]
		status, body, _ := call(b.h, http.MethodPost, "/v1/schedule", p.body)
		if _, _, err := b.chk.checkSchedule(p, warm, status, body); err != nil {
			return err
		}
	}
	switch b.kind {
	case serveWarm:
		// One job warms the async path; it stays retained like every other.
		var rec opRecord
		b.job(0, b.plan.problems[b.plan.warm[0]], &rec)
		if rec.err != nil {
			return rec.err
		}
		b.setupJobs = 1
	case storeRestart:
		b.close()
	}
	return nil
}

func (b *bench) close() {
	if b.srv != nil {
		b.srv.Close()
		b.srv, b.h = nil, nil
	}
}

// slices is how many consecutive slices of the timed phase the rate
// metrics are computed over; they report the median slice, so a stall
// caused by a neighbour on a shared host moves one slice, not the result.
const slices = 10

// sliceEnd is the completed-op count that ends slice k of ns over n ops.
func sliceEnd(k, n, ns int) int { return (k*n + ns/2) / ns }

// runOps runs the timed phase, one op after another. It returns resource
// samples at the start and at the end of each slice.
func (b *bench) runOps() []usage {
	if b.kind == serveWarm {
		b.journal0 = fileSize(filepath.Join(b.dir, "jobs.wal"))
	}
	n := len(b.plan.ops)
	ns := min(slices, n)
	samples := []usage{readUsage()}
	for k := 1; k <= ns; k++ {
		for i := sliceEnd(k-1, n, ns); i < sliceEnd(k, n, ns); i++ {
			b.runOp(i)
		}
		samples = append(samples, readUsage())
	}
	return samples
}

func (b *bench) runOp(i int) {
	o, rec := b.plan.ops[i], &b.recs[i]
	switch {
	case b.kind == storeRestart:
		b.restart(i, o, rec)
	case o.job:
		b.job(i, b.plan.problems[o.problems[0]], rec)
	default:
		p := b.plan.problems[o.problems[0]]
		resp, d := b.post(b.h, p, rec)
		rec.dur = d
		if b.tr != nil && resp != nil {
			ls, err := b.tr.replay(b.tr.store, i, p, resp)
			rec.layers = append(rec.layers, ls)
			rec.fail(err)
			if b.kind == gridCold {
				b.tr.forget() // never seen again; do not hoard its factor
			}
		}
	}
}

// post sends one POST /v1/schedule and checks the answer.
func (b *bench) post(h http.Handler, p *problem, rec *opRecord) (*server.ScheduleResponse, time.Duration) {
	status, body, d := call(h, http.MethodPost, "/v1/schedule", p.body)
	resp, a, err := b.chk.checkSchedule(p, b.rules, status, body)
	rec.fail(err)
	rec.answers = append(rec.answers, a)
	rec.reqBytes += len(p.body)
	s := reqSample{handler: ms(d)}
	if resp != nil {
		s.queue, s.generate = resp.Timing.QueueMS, resp.Timing.GenerateMS
		rec.sims += resp.Cache.Tier2Misses
	}
	rec.reqs = append(rec.reqs, s)
	if err != nil {
		return nil, d
	}
	return resp, d
}

// job poses p as an async job: submit, follow the event stream until the
// final event, then fetch the status with the embedded result.
func (b *bench) job(i int, p *problem, rec *opRecord) {
	rec.job = true
	status, body, dSubmit := call(b.h, http.MethodPost, "/v1/jobs", p.body)
	var sub server.JobSubmitResponse
	if status != http.StatusAccepted {
		rec.fail(fmt.Errorf("%s: job submit HTTP %d: %.200s", p.label, status, body))
		return
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		rec.fail(fmt.Errorf("%s: decoding job submit: %w", p.label, err))
		return
	}
	status, events, dStream := call(b.h, http.MethodGet, "/v1/jobs/"+sub.ID+"/events", nil)
	if status != http.StatusOK {
		rec.fail(fmt.Errorf("%s: job events HTTP %d", p.label, status))
		return
	}
	rec.events = bytes.Count(events, []byte("\nevent: "))
	status, body, dStatus := call(b.h, http.MethodGet, "/v1/jobs/"+sub.ID, nil)
	resp, a, err := b.chk.checkJob(p, b.rules, status, body)
	rec.fail(err)
	rec.answers = append(rec.answers, a)
	rec.dur = dSubmit + dStream + dStatus
	rec.submitMS, rec.streamMS = ms(dSubmit), ms(dStream)
	rec.reqBytes += len(p.body)
	if resp != nil {
		rec.sims += resp.Cache.Tier2Misses
		if b.tr != nil && err == nil {
			ls, err := b.tr.replay(b.tr.store, i, p, resp)
			rec.layers = append(rec.layers, ls)
			rec.fail(err)
		}
	}
}

// restart is one store-restart op: a new service on the filled store,
// replay one row of cells, close.
func (b *bench) restart(i int, o op, rec *opRecord) {
	start := time.Now()
	cfg := b.cfg
	cfg.CacheDir = b.dir
	srv, err := server.New(cfg)
	dNew := time.Since(start)
	if err != nil {
		rec.fail(err)
		return
	}
	h := srv.Handler()
	var ps []*problem
	var resps []*server.ScheduleResponse
	var dReqs time.Duration
	for _, pi := range o.problems {
		p := b.plan.problems[pi]
		resp, d := b.post(h, p, rec)
		dReqs += d
		ps, resps = append(ps, p), append(resps, resp)
	}
	// Untimed: the restarted service holds exactly this op's system and no
	// jobs.
	if hz, err := health(h); err != nil {
		rec.fail(err)
	} else if hz.SystemsLive != 1 || hz.Jobs.Done != 0 {
		rec.fail(fmt.Errorf("restarted service holds %d systems and %d jobs, want 1 and 0",
			hz.SystemsLive, hz.Jobs.Done))
	}
	start = time.Now()
	rec.fail(srv.Close())
	rec.dur = dNew + dReqs + time.Since(start)
	if b.tr != nil && rec.err == nil {
		ls, err := b.tr.replayRestart(b.dir, i, ps, resps)
		rec.layers = append(rec.layers, ls...)
		rec.fail(err)
	}
}

func health(h http.Handler) (*server.HealthResponse, error) {
	status, body, _ := call(h, http.MethodGet, "/healthz", nil)
	var hz server.HealthResponse
	if status != http.StatusOK {
		return nil, fmt.Errorf("healthz HTTP %d", status)
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		return nil, fmt.Errorf("decoding healthz: %w", err)
	}
	if hz.Jobs == nil {
		return nil, fmt.Errorf("healthz has no jobs section")
	}
	return &hz, nil
}

func storeFiles(h http.Handler) (int, error) {
	status, body, _ := call(h, http.MethodGet, "/v1/systems", nil)
	var sr server.SystemsResponse
	if status != http.StatusOK {
		return 0, fmt.Errorf("systems HTTP %d", status)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		return 0, fmt.Errorf("decoding systems: %w", err)
	}
	if sr.Store == nil {
		return 0, fmt.Errorf("systems response has no store section")
	}
	return sr.Store.Files, nil
}

// checkRetained fails the run when the state left behind differs from what
// the op count implies: finished jobs, store files, live systems.
func (b *bench) checkRetained() error {
	h := b.h
	if b.kind == storeRestart {
		cfg := b.cfg
		cfg.CacheDir = b.dir
		srv, err := server.New(cfg)
		if err != nil {
			return err
		}
		defer srv.Close()
		h = srv.Handler()
	}
	hz, err := health(h)
	if err != nil {
		return err
	}
	files, err := storeFiles(h)
	if err != nil {
		return err
	}
	jobs := int64(b.setupJobs)
	for _, o := range b.plan.ops {
		if o.job {
			jobs++
		}
	}
	wantFiles := b.plan.systems
	wantLive := b.plan.systems
	switch b.kind {
	case gridCold:
		wantLive = min(gridColdMaxSystems, wantFiles)
	case storeRestart:
		wantLive = 0
	}
	if hz.Jobs.Done != jobs || hz.Jobs.Active != 0 || files != wantFiles || hz.SystemsLive != wantLive || hz.Shed != 0 {
		return fmt.Errorf("%d jobs done (%d active), %d store files, %d live systems, %d shed; want %d, 0, %d, %d, 0",
			hz.Jobs.Done, hz.Jobs.Active, files, hz.SystemsLive, hz.Shed, jobs, wantFiles, wantLive)
	}
	return nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// endToEnd computes the result-line metrics over the timed phase, plus the
// figures that are reported on standard error only. Rates are medians over
// the slices between consecutive samples.
func (b *bench) endToEnd(samples []usage, peakRSS int64, setupS float64) (e2e, extra map[string]metric) {
	var lat, jobLat []float64
	var sims int64
	failed := 0
	for _, r := range b.recs {
		if r.job {
			jobLat = append(jobLat, ms(r.dur))
		} else {
			lat = append(lat, ms(r.dur))
		}
		sims += r.sims
		if r.err != nil {
			failed++
		}
	}
	n, ns := len(b.recs), len(samples)-1
	var rate, cpu, alloc []float64
	for k := 1; k <= ns; k++ {
		a, z := samples[k-1], samples[k]
		ops := float64(sliceEnd(k, n, ns) - sliceEnd(k-1, n, ns))
		rate = append(rate, ops/z.wall.Sub(a.wall).Seconds())
		cpu = append(cpu, ms(z.cpu-a.cpu)/ops)
		alloc = append(alloc, float64(z.alloc-a.alloc)/(1<<20)/ops)
	}
	e2e = map[string]metric{
		"setup_s":          {setupS, "s"},
		"throughput_ops_s": {median(rate), "1/s"},
		"latency_p50_ms":   {median(lat), "ms"},
		"latency_p90_ms":   {quantile(lat, 0.9), "ms"},
		"cpu_ms_per_op":    {median(cpu), "ms"},
		"alloc_mb_per_op":  {median(alloc), "MiB"},
		"peak_rss_mb":      {float64(peakRSS) / (1 << 20), "MiB"},
	}
	extra = map[string]metric{
		"sims_per_op":     {float64(sims) / float64(n), "count"},
		"error_rate":      {float64(failed) / float64(n), "ratio"},
		"latency_samples": {float64(len(lat)), "count"},
		"wall_s":          {samples[len(samples)-1].wall.Sub(samples[0].wall).Seconds(), "s"},
	}
	if b.kind == serveWarm {
		extra["job_latency_p50_ms"] = metric{median(jobLat), "ms"}
		extra["job_samples"] = metric{float64(len(jobLat)), "count"}
	}
	return e2e, extra
}
