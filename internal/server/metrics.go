package server

import (
	"fmt"
	"io"
	"maps"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/oraclestore"
	"repro/internal/thermal"
)

// latencyBuckets are the histogram upper bounds in seconds — spanning the
// microsecond warm-hit regime through multi-second cold grid factorizations.
var latencyBuckets = []float64{
	0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// metrics aggregates request counts and latencies per (path, status) for the
// /metrics endpoint. It is deliberately dependency-free: the exposition is
// the Prometheus text format, rendered from a table of families.
type metrics struct {
	mu sync.Mutex
	// requests[path][status] = count
	requests map[string]map[int]int64
	// hist[path] = per-bucket counts (+1 overflow slot), sum and count
	hist map[string]*histogram
}

type histogram struct {
	buckets []int64 // len(latencyBuckets)+1; last is +Inf
	sum     float64
	count   int64
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[string]map[int]int64),
		hist:     make(map[string]*histogram),
	}
}

// observe records one served request.
func (m *metrics) observe(path string, status int, d time.Duration) {
	sec := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	byStatus := m.requests[path]
	if byStatus == nil {
		byStatus = make(map[int]int64)
		m.requests[path] = byStatus
	}
	byStatus[status]++
	h := m.hist[path]
	if h == nil {
		h = &histogram{buckets: make([]int64, len(latencyBuckets)+1)}
		m.hist[path] = h
	}
	i := sort.SearchFloat64s(latencyBuckets, sec)
	h.buckets[i]++
	h.sum += sec
	h.count++
}

// sample is one exposition line of a family: its series suffix and label
// set (`_bucket{path="/v1/schedule",le="0.1"}`) and its value, which %v
// writes as %d for integers and %g for floats.
type sample struct {
	series string
	v      any
}

// family is one metric family of the exposition, declared once.
type family struct {
	name, typ, help string
	samples         []sample
}

// one is the sample list of an unlabeled family.
func one(v any) []sample { return []sample{{"", v}} }

// requestSamples reads the request counters and latency histograms, both in
// path order.
func (m *metrics) requestSamples() (reqs, lat []sample) {
	m.mu.Lock()
	defer m.mu.Unlock()
	paths := slices.Sorted(maps.Keys(m.requests))
	for _, p := range paths {
		byCode := m.requests[p]
		for _, c := range slices.Sorted(maps.Keys(byCode)) {
			reqs = append(reqs, sample{fmt.Sprintf("{path=%q,code=\"%d\"}", p, c), byCode[c]})
		}
	}
	for _, p := range paths {
		h := m.hist[p]
		var cum int64
		for i, le := range latencyBuckets {
			cum += h.buckets[i]
			lat = append(lat, sample{fmt.Sprintf("_bucket{path=%q,le=\"%g\"}", p, le), cum})
		}
		cum += h.buckets[len(latencyBuckets)]
		lat = append(lat, sample{fmt.Sprintf("_bucket{path=%q,le=\"+Inf\"}", p), cum},
			sample{fmt.Sprintf("_sum{path=%q}", p), h.sum},
			sample{fmt.Sprintf("_count{path=%q}", p), h.count})
	}
	return reqs, lat
}

// handleMetrics serves GET /metrics: the Prometheus text exposition of the
// family table below, read at scrape time from the request metrics, the
// server's counters, the job manager, the store and the live systems. The
// remote-tier, breaker and grid-factor sections appear only when there is a
// store cluster, a store and a factored grid system respectively.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	reqs, lat := s.met.requestSamples()
	type tier struct {
		label        string
		hits, misses int64
	}
	tiers := []tier{{label: `{tier="1"}`}, {label: `{tier="2"}`}}
	type gridFactor struct {
		key string
		thermal.GridFactorStats
	}
	var factors []gridFactor
	s.mu.Lock()
	live, factorsLive := len(s.systems), thermal.LiveGridFactors()
	for _, e := range s.systems {
		if e.env == nil {
			continue
		}
		h, m := e.env.Oracle.Stats()
		tiers[0].hits += h
		tiers[0].misses += m
		if sc := e.env.StoreCache; sc != nil {
			h, m = sc.Stats()
			tiers[1].hits += h
			tiers[1].misses += m
		}
		if fs, ok := e.env.GridFactorStats(); ok {
			factors = append(factors, gridFactor{fmt.Sprintf("%x", e.oracleKey), fs})
		}
	}
	s.mu.Unlock()

	var st oraclestore.StoreStats
	var rs oraclestore.RemoteStats
	remote := s.store != nil && s.store.HasRemote()
	if s.store != nil {
		st, _ = s.store.Stats() // a failed scan reports zeros
	}
	if remote {
		rs = s.store.RemoteStats()
		tiers = append(tiers, tier{`{tier="3"}`, rs.FetchHits, rs.FetchMisses})
	}
	var hits, misses, rates []sample
	for _, t := range tiers {
		rate := 0.0
		if t.hits+t.misses > 0 {
			rate = float64(t.hits) / float64(t.hits+t.misses)
		}
		hits = append(hits, sample{t.label, t.hits})
		misses = append(misses, sample{t.label, t.misses})
		rates = append(rates, sample{t.label, rate})
	}
	jc, js := s.jobs.Counts(), s.jobs.JournalStats()

	fams := []family{
		{"requests_total", "counter", "Requests served, by path and status code.", reqs},
		{"request_seconds", "histogram", "Request latency histogram, by path.", lat},
		{"tier_hits_total", "counter", "Oracle cache hits by tier (1 = in-memory memo, 2 = persistent store, 3 = store cluster).", hits},
		{"tier_misses_total", "counter", "Oracle cache misses by tier.", misses},
		{"tier_hit_rate", "gauge", "Hit fraction by tier since start.", rates},
		{"systems_live", "gauge", "Warm systems held in memory.", one(live)},
		{"grid_factors_live", "gauge", "Distinct grid factors resident in the process; live systems with the same package, die size and resolution share one.", one(factorsLive)},
		{"gomaxprocs", "gauge", "Goroutine width of the oracles' batch fan-out of phase-1 misses (runtime.GOMAXPROCS).", one(runtime.GOMAXPROCS(0))},
		{"store_files", "gauge", "Record files in the persistent store.", one(st.Files)},
		{"store_bytes", "gauge", "Bytes used by the persistent store.", one(st.Bytes)},
		{"store_evicted_files_total", "counter", "Record files evicted since start.", one(st.EvictedFiles)},
		{"store_evicted_bytes_total", "counter", "Bytes evicted since start.", one(st.EvictedBytes)},
		{"shed_total", "counter", "Schedule requests shed with 429 because the admission queue was full.", one(s.shed.Load())},
		{"deadline_exceeded_total", "counter", "Schedule requests that ran out of deadline, by stage.", []sample{
			{`{stage="queued"}`, s.dlQueued.Load()}, {`{stage="generating"}`, s.dlGenerating.Load()}}},
		{"queue_depth", "gauge", "Schedule requests currently waiting for a worker.", one(s.pool.Queued())},
		{"queue_limit", "gauge", "Admission-queue bound (-1 = unbounded).", one(s.pool.QueueDepth())},
		{"systems_dropped_total", "counter", "Idle live systems dropped by the max-systems LRU bound.", one(s.systemsDropped.Load())},
		{"request_body_hits_total", "counter", "Schedule and job requests whose exact body a live system keeps, skipping the decode and the parse.", one(s.bodyHits.Load())},
		{"request_body_misses_total", "counter", "Schedule and job requests decoded and resolved from scratch (parse and system keys).", one(s.bodyMisses.Load())},
		{"jobs_queued_total", "counter", "Async jobs queued since start (includes resumes).", one(jc.Queued)},
		{"jobs_running_total", "counter", "Async jobs started running since start.", one(jc.Running)},
		{"jobs_done_total", "counter", "Async jobs finished successfully since start.", one(jc.Done)},
		{"jobs_failed_total", "counter", "Async jobs failed since start.", one(jc.Failed)},
		{"jobs_cancelled_total", "counter", "Async jobs cancelled by clients since start.", one(jc.Cancelled)},
		{"jobs_interrupted_total", "counter", "Async jobs interrupted by a drain since start.", one(jc.Interrupted)},
		{"jobs_resumed_total", "counter", "Async jobs re-queued from the journal after a restart.", one(jc.Resumed)},
		{"jobs_active", "gauge", "Non-terminal async jobs currently tracked.", one(jc.Active)},
		{"jobs_journal_append_retries_total", "counter", "Job-journal appends retried after a disk error.", one(js.Retries)},
		{"jobs_journal_append_failures_total", "counter", "Job-journal appends that exhausted their retries.", one(js.Failures)},
		{"jobs_journal_unpersisted_total", "counter", "Job state transitions held in RAM only because the journal disk was failing.", one(js.Unpersisted)},
	}
	if remote {
		fams = append(fams,
			family{"store_remote_fetch_errors_total", "counter", "Store-cluster fetches that failed or returned invalid files (served local-only instead).", one(rs.FetchErrors)},
			family{"store_remote_absorbed_records_total", "counter", "Oracle records absorbed from the store cluster into local caches.", one(rs.AbsorbedRecords)},
			family{"store_remote_pushed_files_total", "counter", "Record files shipped to the store cluster by the write-behind push.", one(rs.PushedFiles)},
			family{"store_remote_push_errors_total", "counter", "Write-behind pushes that failed (files stay dirty and retry).", one(rs.PushErrors)})
	}
	if s.store != nil {
		h := s.store.Health()
		fams = append(fams,
			family{"store_breaker_state", "gauge", "Store circuit breaker state (0=closed, 1=open, 2=half_open).", one(int(h.Breaker))},
			family{"store_breaker_opens_total", "counter", "Times the store breaker has tripped open.", one(h.BreakerOpens)},
			family{"store_append_retries_total", "counter", "Record appends retried after a disk error.", one(h.AppendRetries)},
			family{"store_append_failures_total", "counter", "Record appends that exhausted their retries.", one(h.AppendFailures)},
			family{"store_unpersisted_total", "counter", "Oracle answers memoized in RAM only because the disk path was failing.", one(h.Unpersisted)},
			family{"store_degraded_systems", "gauge", "Open system caches running memory-only.", one(h.DegradedSystems)})
	}
	if len(factors) > 0 {
		slices.SortFunc(factors, func(a, b gridFactor) int { return strings.Compare(a.key, b.key) })
		perFactor := func(name, help string, v func(gridFactor) any) family {
			f := family{name: name, typ: "gauge", help: help}
			for _, gf := range factors {
				f.samples = append(f.samples, sample{fmt.Sprintf("{system=%q}", gf.key), v(gf)})
			}
			return f
		}
		seconds := perFactor("grid_factor_seconds", "Numeric Cholesky factorization time of a live grid system, by system key and kernel.",
			func(gf gridFactor) any { return gf.FactorTime.Seconds() })
		for i, gf := range factors { // factor time alone also names the kernel
			seconds.samples[i].series = fmt.Sprintf("{system=%q,kernel=%q}", gf.key, gf.Mode)
		}
		fams = append(fams, seconds,
			perFactor("grid_factor_panels", "Supernodal panel count of a live grid system's factor.",
				func(gf gridFactor) any { return gf.Panels }),
			perFactor("grid_factor_peak_bytes", "Peak factorization memory (factor values plus panel workspace) of a live grid system.",
				func(gf gridFactor) any { return gf.PeakFactorBytes }),
			perFactor("grid_factor_peak_resident_bytes", "Peak resident factorization memory under the peak-bytes budget (equals peak bytes when nothing spilled).",
				func(gf gridFactor) any { return gf.PeakResidentBytes }),
			perFactor("grid_factor_spilled_panels", "Factor panels spilled out of core while factoring a live grid system.",
				func(gf gridFactor) any { return gf.SpilledPanels }),
			perFactor("grid_factor_spilled_bytes", "Factor bytes spilled out of core while factoring a live grid system.",
				func(gf gridFactor) any { return gf.SpilledBytes }))
	}

	var sb strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&sb, "# HELP thermserve_%s %s\n# TYPE thermserve_%s %s\n", f.name, f.help, f.name, f.typ)
		for _, smp := range f.samples {
			fmt.Fprintf(&sb, "thermserve_%s%s %v\n", f.name, smp.series, smp.v)
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, sb.String())
}
