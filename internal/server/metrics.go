package server

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/oraclestore"
)

// latencyBuckets are the histogram upper bounds in seconds — spanning the
// microsecond warm-hit regime through multi-second cold grid factorizations.
var latencyBuckets = []float64{
	0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// metrics aggregates request counts and latencies per (path, status) for the
// /metrics endpoint. It is deliberately dependency-free: the exposition is
// the Prometheus text format, rendered by hand.
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

// tierCounters is the cache-tier snapshot the server injects at render time.
type tierCounters struct {
	Tier1Hits, Tier1Misses int64
	Tier2Hits, Tier2Misses int64
	SystemsLive            int
	GridFactorsLive        int // distinct grid factors resident in the process
	StoreFiles             int
	StoreBytes             int64
	StoreEvictedFiles      int
	StoreEvictedBytes      int64
	// Admission-control counters.
	Shed               int64
	DeadlineQueued     int64
	DeadlineGenerating int64
	SystemsDropped     int64
	IndexHits          int64
	IndexMisses        int64
	QueueDepth         int
	QueueLimit         int // -1 = unbounded
	// Remote is the tier-3 store cluster's traffic, nil without one.
	Remote *oraclestore.RemoteStats
	// Breaker is the store's fault-layer health, nil without a store.
	Breaker *oraclestore.StoreHealth
	// Jobs / JobJournal are the async-job subsystem's counters.
	Jobs       *jobs.Counters
	JobJournal *oraclestore.RecordLogStats
	// Factors describes every live system whose grid factorization has been
	// paid (fully warm systems never factor and so never appear).
	Factors []systemFactor
}

// systemFactor is one live grid system's factorization cost, labeled by the
// oraclestore content address.
type systemFactor struct {
	Key           string
	Kernel        string
	FactorSeconds float64
	Panels        int
	PeakBytes     int64
	// Out-of-core factorization under a peak-bytes budget.
	PeakResidentBytes int64
	SpilledPanels     int
	SpilledBytes      int64
}

// render emits the Prometheus text exposition.
func (m *metrics) render(tc tierCounters) string {
	var sb strings.Builder
	m.mu.Lock()
	paths := make([]string, 0, len(m.requests))
	for p := range m.requests {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	sb.WriteString("# HELP thermserve_requests_total Requests served, by path and status code.\n")
	sb.WriteString("# TYPE thermserve_requests_total counter\n")
	for _, p := range paths {
		codes := make([]int, 0, len(m.requests[p]))
		for c := range m.requests[p] {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(&sb, "thermserve_requests_total{path=%q,code=\"%d\"} %d\n", p, c, m.requests[p][c])
		}
	}

	sb.WriteString("# HELP thermserve_request_seconds Request latency histogram, by path.\n")
	sb.WriteString("# TYPE thermserve_request_seconds histogram\n")
	for _, p := range paths {
		h := m.hist[p]
		var cum int64
		for i, le := range latencyBuckets {
			cum += h.buckets[i]
			fmt.Fprintf(&sb, "thermserve_request_seconds_bucket{path=%q,le=\"%g\"} %d\n", p, le, cum)
		}
		cum += h.buckets[len(latencyBuckets)]
		fmt.Fprintf(&sb, "thermserve_request_seconds_bucket{path=%q,le=\"+Inf\"} %d\n", p, cum)
		fmt.Fprintf(&sb, "thermserve_request_seconds_sum{path=%q} %g\n", p, h.sum)
		fmt.Fprintf(&sb, "thermserve_request_seconds_count{path=%q} %d\n", p, h.count)
	}
	m.mu.Unlock()

	hitRate := func(h, miss int64) float64 {
		if h+miss == 0 {
			return 0
		}
		return float64(h) / float64(h+miss)
	}
	sb.WriteString("# HELP thermserve_tier_hits_total Oracle cache hits by tier (1 = in-memory memo, 2 = persistent store, 3 = store cluster).\n")
	sb.WriteString("# TYPE thermserve_tier_hits_total counter\n")
	fmt.Fprintf(&sb, "thermserve_tier_hits_total{tier=\"1\"} %d\n", tc.Tier1Hits)
	fmt.Fprintf(&sb, "thermserve_tier_hits_total{tier=\"2\"} %d\n", tc.Tier2Hits)
	if tc.Remote != nil {
		fmt.Fprintf(&sb, "thermserve_tier_hits_total{tier=\"3\"} %d\n", tc.Remote.FetchHits)
	}
	sb.WriteString("# HELP thermserve_tier_misses_total Oracle cache misses by tier.\n")
	sb.WriteString("# TYPE thermserve_tier_misses_total counter\n")
	fmt.Fprintf(&sb, "thermserve_tier_misses_total{tier=\"1\"} %d\n", tc.Tier1Misses)
	fmt.Fprintf(&sb, "thermserve_tier_misses_total{tier=\"2\"} %d\n", tc.Tier2Misses)
	if tc.Remote != nil {
		fmt.Fprintf(&sb, "thermserve_tier_misses_total{tier=\"3\"} %d\n", tc.Remote.FetchMisses)
	}
	sb.WriteString("# HELP thermserve_tier_hit_rate Hit fraction by tier since start.\n")
	sb.WriteString("# TYPE thermserve_tier_hit_rate gauge\n")
	fmt.Fprintf(&sb, "thermserve_tier_hit_rate{tier=\"1\"} %g\n", hitRate(tc.Tier1Hits, tc.Tier1Misses))
	fmt.Fprintf(&sb, "thermserve_tier_hit_rate{tier=\"2\"} %g\n", hitRate(tc.Tier2Hits, tc.Tier2Misses))
	if tc.Remote != nil {
		fmt.Fprintf(&sb, "thermserve_tier_hit_rate{tier=\"3\"} %g\n", hitRate(tc.Remote.FetchHits, tc.Remote.FetchMisses))
	}

	sb.WriteString("# HELP thermserve_systems_live Warm systems held in memory.\n")
	sb.WriteString("# TYPE thermserve_systems_live gauge\n")
	fmt.Fprintf(&sb, "thermserve_systems_live %d\n", tc.SystemsLive)
	sb.WriteString("# HELP thermserve_grid_factors_live Distinct grid factors resident in the process; live systems with the same package, die size and resolution share one.\n")
	sb.WriteString("# TYPE thermserve_grid_factors_live gauge\n")
	fmt.Fprintf(&sb, "thermserve_grid_factors_live %d\n", tc.GridFactorsLive)
	sb.WriteString("# HELP thermserve_gomaxprocs Goroutine width of the oracles' batch fan-out: phase-1 misses and grid-fidelity phase-2 chains (runtime.GOMAXPROCS).\n")
	sb.WriteString("# TYPE thermserve_gomaxprocs gauge\n")
	fmt.Fprintf(&sb, "thermserve_gomaxprocs %d\n", runtime.GOMAXPROCS(0))
	sb.WriteString("# HELP thermserve_store_files Record files in the persistent store.\n")
	sb.WriteString("# TYPE thermserve_store_files gauge\n")
	fmt.Fprintf(&sb, "thermserve_store_files %d\n", tc.StoreFiles)
	sb.WriteString("# HELP thermserve_store_bytes Bytes used by the persistent store.\n")
	sb.WriteString("# TYPE thermserve_store_bytes gauge\n")
	fmt.Fprintf(&sb, "thermserve_store_bytes %d\n", tc.StoreBytes)
	sb.WriteString("# HELP thermserve_store_evicted_files_total Record files evicted since start.\n")
	sb.WriteString("# TYPE thermserve_store_evicted_files_total counter\n")
	fmt.Fprintf(&sb, "thermserve_store_evicted_files_total %d\n", tc.StoreEvictedFiles)
	sb.WriteString("# HELP thermserve_store_evicted_bytes_total Bytes evicted since start.\n")
	sb.WriteString("# TYPE thermserve_store_evicted_bytes_total counter\n")
	fmt.Fprintf(&sb, "thermserve_store_evicted_bytes_total %d\n", tc.StoreEvictedBytes)

	sb.WriteString("# HELP thermserve_shed_total Schedule requests shed with 429 because the admission queue was full.\n")
	sb.WriteString("# TYPE thermserve_shed_total counter\n")
	fmt.Fprintf(&sb, "thermserve_shed_total %d\n", tc.Shed)
	sb.WriteString("# HELP thermserve_deadline_exceeded_total Schedule requests that ran out of deadline, by stage.\n")
	sb.WriteString("# TYPE thermserve_deadline_exceeded_total counter\n")
	fmt.Fprintf(&sb, "thermserve_deadline_exceeded_total{stage=\"queued\"} %d\n", tc.DeadlineQueued)
	fmt.Fprintf(&sb, "thermserve_deadline_exceeded_total{stage=\"generating\"} %d\n", tc.DeadlineGenerating)
	sb.WriteString("# HELP thermserve_queue_depth Schedule requests currently waiting for a worker.\n")
	sb.WriteString("# TYPE thermserve_queue_depth gauge\n")
	fmt.Fprintf(&sb, "thermserve_queue_depth %d\n", tc.QueueDepth)
	sb.WriteString("# HELP thermserve_queue_limit Admission-queue bound (-1 = unbounded).\n")
	sb.WriteString("# TYPE thermserve_queue_limit gauge\n")
	fmt.Fprintf(&sb, "thermserve_queue_limit %d\n", tc.QueueLimit)
	sb.WriteString("# HELP thermserve_systems_dropped_total Idle live systems dropped by the max-systems LRU bound.\n")
	sb.WriteString("# TYPE thermserve_systems_dropped_total counter\n")
	fmt.Fprintf(&sb, "thermserve_systems_dropped_total %d\n", tc.SystemsDropped)
	sb.WriteString("# HELP thermserve_request_index_hits_total Schedule and job requests whose system fields matched a live system, skipping the parse.\n")
	sb.WriteString("# TYPE thermserve_request_index_hits_total counter\n")
	fmt.Fprintf(&sb, "thermserve_request_index_hits_total %d\n", tc.IndexHits)
	sb.WriteString("# HELP thermserve_request_index_misses_total Schedule and job requests resolved from scratch (parse and system keys).\n")
	sb.WriteString("# TYPE thermserve_request_index_misses_total counter\n")
	fmt.Fprintf(&sb, "thermserve_request_index_misses_total %d\n", tc.IndexMisses)

	if jc := tc.Jobs; jc != nil {
		for _, c := range []struct {
			name, help string
			v          int64
		}{
			{"queued", "Async jobs queued since start (includes resumes).", jc.Queued},
			{"running", "Async jobs started running since start.", jc.Running},
			{"done", "Async jobs finished successfully since start.", jc.Done},
			{"failed", "Async jobs failed since start.", jc.Failed},
			{"cancelled", "Async jobs cancelled by clients since start.", jc.Cancelled},
			{"interrupted", "Async jobs interrupted by a drain since start.", jc.Interrupted},
			{"resumed", "Async jobs re-queued from the journal after a restart.", jc.Resumed},
		} {
			fmt.Fprintf(&sb, "# HELP thermserve_jobs_%s_total %s\n", c.name, c.help)
			fmt.Fprintf(&sb, "# TYPE thermserve_jobs_%s_total counter\n", c.name)
			fmt.Fprintf(&sb, "thermserve_jobs_%s_total %d\n", c.name, c.v)
		}
		sb.WriteString("# HELP thermserve_jobs_active Non-terminal async jobs currently tracked.\n")
		sb.WriteString("# TYPE thermserve_jobs_active gauge\n")
		fmt.Fprintf(&sb, "thermserve_jobs_active %d\n", jc.Active)
	}
	if js := tc.JobJournal; js != nil {
		sb.WriteString("# HELP thermserve_jobs_journal_append_retries_total Job-journal appends retried after a disk error.\n")
		sb.WriteString("# TYPE thermserve_jobs_journal_append_retries_total counter\n")
		fmt.Fprintf(&sb, "thermserve_jobs_journal_append_retries_total %d\n", js.Retries)
		sb.WriteString("# HELP thermserve_jobs_journal_append_failures_total Job-journal appends that exhausted their retries.\n")
		sb.WriteString("# TYPE thermserve_jobs_journal_append_failures_total counter\n")
		fmt.Fprintf(&sb, "thermserve_jobs_journal_append_failures_total %d\n", js.Failures)
		sb.WriteString("# HELP thermserve_jobs_journal_unpersisted_total Job state transitions held in RAM only because the journal disk was failing.\n")
		sb.WriteString("# TYPE thermserve_jobs_journal_unpersisted_total counter\n")
		fmt.Fprintf(&sb, "thermserve_jobs_journal_unpersisted_total %d\n", js.Unpersisted)
	}

	if rs := tc.Remote; rs != nil {
		sb.WriteString("# HELP thermserve_store_remote_fetch_errors_total Store-cluster fetches that failed or returned invalid files (served local-only instead).\n")
		sb.WriteString("# TYPE thermserve_store_remote_fetch_errors_total counter\n")
		fmt.Fprintf(&sb, "thermserve_store_remote_fetch_errors_total %d\n", rs.FetchErrors)
		sb.WriteString("# HELP thermserve_store_remote_absorbed_records_total Oracle records absorbed from the store cluster into local caches.\n")
		sb.WriteString("# TYPE thermserve_store_remote_absorbed_records_total counter\n")
		fmt.Fprintf(&sb, "thermserve_store_remote_absorbed_records_total %d\n", rs.AbsorbedRecords)
		sb.WriteString("# HELP thermserve_store_remote_pushed_files_total Record files shipped to the store cluster by the write-behind push.\n")
		sb.WriteString("# TYPE thermserve_store_remote_pushed_files_total counter\n")
		fmt.Fprintf(&sb, "thermserve_store_remote_pushed_files_total %d\n", rs.PushedFiles)
		sb.WriteString("# HELP thermserve_store_remote_push_errors_total Write-behind pushes that failed (files stay dirty and retry).\n")
		sb.WriteString("# TYPE thermserve_store_remote_push_errors_total counter\n")
		fmt.Fprintf(&sb, "thermserve_store_remote_push_errors_total %d\n", rs.PushErrors)
	}

	if h := tc.Breaker; h != nil {
		sb.WriteString("# HELP thermserve_store_breaker_state Store circuit breaker state (0=closed, 1=open, 2=half_open).\n")
		sb.WriteString("# TYPE thermserve_store_breaker_state gauge\n")
		fmt.Fprintf(&sb, "thermserve_store_breaker_state %d\n", int(h.Breaker))
		sb.WriteString("# HELP thermserve_store_breaker_opens_total Times the store breaker has tripped open.\n")
		sb.WriteString("# TYPE thermserve_store_breaker_opens_total counter\n")
		fmt.Fprintf(&sb, "thermserve_store_breaker_opens_total %d\n", h.BreakerOpens)
		sb.WriteString("# HELP thermserve_store_append_retries_total Record appends retried after a disk error.\n")
		sb.WriteString("# TYPE thermserve_store_append_retries_total counter\n")
		fmt.Fprintf(&sb, "thermserve_store_append_retries_total %d\n", h.AppendRetries)
		sb.WriteString("# HELP thermserve_store_append_failures_total Record appends that exhausted their retries.\n")
		sb.WriteString("# TYPE thermserve_store_append_failures_total counter\n")
		fmt.Fprintf(&sb, "thermserve_store_append_failures_total %d\n", h.AppendFailures)
		sb.WriteString("# HELP thermserve_store_unpersisted_total Oracle answers memoized in RAM only because the disk path was failing.\n")
		sb.WriteString("# TYPE thermserve_store_unpersisted_total counter\n")
		fmt.Fprintf(&sb, "thermserve_store_unpersisted_total %d\n", h.Unpersisted)
		sb.WriteString("# HELP thermserve_store_degraded_systems Open system caches running memory-only.\n")
		sb.WriteString("# TYPE thermserve_store_degraded_systems gauge\n")
		fmt.Fprintf(&sb, "thermserve_store_degraded_systems %d\n", h.DegradedSystems)
	}

	if len(tc.Factors) > 0 {
		sort.Slice(tc.Factors, func(i, j int) bool { return tc.Factors[i].Key < tc.Factors[j].Key })
		sb.WriteString("# HELP thermserve_grid_factor_seconds Numeric Cholesky factorization time of a live grid system, by system key and kernel.\n")
		sb.WriteString("# TYPE thermserve_grid_factor_seconds gauge\n")
		for _, f := range tc.Factors {
			fmt.Fprintf(&sb, "thermserve_grid_factor_seconds{system=%q,kernel=%q} %g\n", f.Key, f.Kernel, f.FactorSeconds)
		}
		sb.WriteString("# HELP thermserve_grid_factor_panels Supernodal panel count of a live grid system's factor.\n")
		sb.WriteString("# TYPE thermserve_grid_factor_panels gauge\n")
		for _, f := range tc.Factors {
			fmt.Fprintf(&sb, "thermserve_grid_factor_panels{system=%q} %d\n", f.Key, f.Panels)
		}
		sb.WriteString("# HELP thermserve_grid_factor_peak_bytes Peak factorization memory (factor values plus panel workspace) of a live grid system.\n")
		sb.WriteString("# TYPE thermserve_grid_factor_peak_bytes gauge\n")
		for _, f := range tc.Factors {
			fmt.Fprintf(&sb, "thermserve_grid_factor_peak_bytes{system=%q} %d\n", f.Key, f.PeakBytes)
		}
		sb.WriteString("# HELP thermserve_grid_factor_peak_resident_bytes Peak resident factorization memory under the peak-bytes budget (equals peak bytes when nothing spilled).\n")
		sb.WriteString("# TYPE thermserve_grid_factor_peak_resident_bytes gauge\n")
		for _, f := range tc.Factors {
			fmt.Fprintf(&sb, "thermserve_grid_factor_peak_resident_bytes{system=%q} %d\n", f.Key, f.PeakResidentBytes)
		}
		sb.WriteString("# HELP thermserve_grid_factor_spilled_panels Factor panels spilled out of core while factoring a live grid system.\n")
		sb.WriteString("# TYPE thermserve_grid_factor_spilled_panels gauge\n")
		for _, f := range tc.Factors {
			fmt.Fprintf(&sb, "thermserve_grid_factor_spilled_panels{system=%q} %d\n", f.Key, f.SpilledPanels)
		}
		sb.WriteString("# HELP thermserve_grid_factor_spilled_bytes Factor bytes spilled out of core while factoring a live grid system.\n")
		sb.WriteString("# TYPE thermserve_grid_factor_spilled_bytes gauge\n")
		for _, f := range tc.Factors {
			fmt.Fprintf(&sb, "thermserve_grid_factor_spilled_bytes{system=%q} %d\n", f.Key, f.SpilledBytes)
		}
	}
	return sb.String()
}
