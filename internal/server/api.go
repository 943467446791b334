package server

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

// ScheduleRequest is the POST /v1/schedule body: a scheduling problem — a
// builtin workload or an explicit floorplan + test spec in the repository's
// text formats — plus the generator's knobs. Exactly one of Workload or the
// Floorplan/TestSpec pair must be set.
type ScheduleRequest struct {
	// Workload names a builtin: "alpha21364" or "figure1".
	Workload string `json:"workload,omitempty"`
	// Name labels a custom workload in responses; optional.
	Name string `json:"name,omitempty"`
	// Floorplan is a HotSpot ".flp" description.
	Floorplan string `json:"floorplan,omitempty"`
	// TestSpec is the `name functional test seconds` per-core text format.
	TestSpec string `json:"test_spec,omitempty"`
	// Package overrides package-stack constants; zero fields keep the
	// calibrated defaults.
	Package *PackageSpec `json:"package,omitempty"`
	// GridRes validates sessions on a GridRes×GridRes grid-resolution model
	// instead of the compact block model; 0 keeps the block model.
	GridRes int `json:"grid_res,omitempty"`

	// TL is the maximum allowable temperature (°C). Required.
	TL float64 `json:"tl_celsius"`
	// STCL is the session thermal characteristic limit. Required.
	STCL float64 `json:"stcl"`
	// WeightGrowth is Algorithm 1's violation weight multiplier; 0 → 1.1.
	WeightGrowth float64 `json:"weight_growth,omitempty"`
	// Order is the candidate scan order ("tc-desc", "density-desc",
	// "power-desc", "area-asc", "input"); empty → "tc-desc".
	Order string `json:"order,omitempty"`
	// AutoRaiseTL raises TL above the worst solo temperature instead of
	// failing when a single core already violates it.
	AutoRaiseTL bool `json:"auto_raise_tl,omitempty"`
	// MaxAttempts bounds candidate simulations; 0 keeps the default.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// DeadlineMS bounds this request's total time in the service (queue wait
	// plus generation) in milliseconds, overriding the server default; the
	// X-Request-Deadline header overrides both. 0 keeps the default;
	// negative disables the deadline for this request.
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// PackageSpec mirrors thermal.PackageConfig with JSON names; zero fields
// inherit the calibrated default package.
type PackageSpec struct {
	DieThickness      float64 `json:"die_thickness_m,omitempty"`
	KSilicon          float64 `json:"k_silicon,omitempty"`
	CSilicon          float64 `json:"c_silicon,omitempty"`
	TIMThickness      float64 `json:"tim_thickness_m,omitempty"`
	KTIM              float64 `json:"k_tim,omitempty"`
	CTIM              float64 `json:"c_tim,omitempty"`
	SpreaderSide      float64 `json:"spreader_side_m,omitempty"`
	SpreaderThickness float64 `json:"spreader_thickness_m,omitempty"`
	KSpreader         float64 `json:"k_spreader,omitempty"`
	CSpreader         float64 `json:"c_spreader,omitempty"`
	SinkThickness     float64 `json:"sink_thickness_m,omitempty"`
	KSink             float64 `json:"k_sink,omitempty"`
	CSink             float64 `json:"c_sink,omitempty"`
	ConvectionR       float64 `json:"convection_r_k_per_w,omitempty"`
	ConvectionC       float64 `json:"convection_c_j_per_k,omitempty"`
	Ambient           float64 `json:"ambient_celsius,omitempty"`
}

// packageConfig overlays the non-zero fields on the default package.
func (p *PackageSpec) packageConfig() thermal.PackageConfig {
	cfg := thermal.DefaultPackageConfig()
	if p == nil {
		return cfg
	}
	overlay := func(dst *float64, v float64) {
		if v != 0 {
			*dst = v
		}
	}
	overlay(&cfg.DieThickness, p.DieThickness)
	overlay(&cfg.KSilicon, p.KSilicon)
	overlay(&cfg.CSilicon, p.CSilicon)
	overlay(&cfg.TIMThickness, p.TIMThickness)
	overlay(&cfg.KTIM, p.KTIM)
	overlay(&cfg.CTIM, p.CTIM)
	overlay(&cfg.SpreaderSide, p.SpreaderSide)
	overlay(&cfg.SpreaderThickness, p.SpreaderThickness)
	overlay(&cfg.KSpreader, p.KSpreader)
	overlay(&cfg.CSpreader, p.CSpreader)
	overlay(&cfg.SinkThickness, p.SinkThickness)
	overlay(&cfg.KSink, p.KSink)
	overlay(&cfg.CSink, p.CSink)
	overlay(&cfg.ConvectionR, p.ConvectionR)
	overlay(&cfg.ConvectionC, p.ConvectionC)
	// Ambient 0 °C is physically meaningful but indistinguishable from
	// "unset" in JSON; treat 0 as default, matching the omitempty encoding.
	overlay(&cfg.Ambient, p.Ambient)
	return cfg
}

// resolveSpec turns the request's workload fields into a validated test spec.
func (r *ScheduleRequest) resolveSpec() (*testspec.Spec, error) {
	switch {
	case r.Workload != "" && (r.Floorplan != "" || r.TestSpec != ""):
		return nil, fmt.Errorf("workload and floorplan/test_spec are mutually exclusive")
	case r.Workload != "":
		return cliutil.LoadWorkload(r.Workload, "", "")
	case r.Floorplan == "" || r.TestSpec == "":
		return nil, fmt.Errorf("need workload, or both floorplan and test_spec")
	}
	fp, err := floorplan.Parse(strings.NewReader(r.Floorplan), "request.flp")
	if err != nil {
		return nil, fmt.Errorf("floorplan: %v", err)
	}
	name := r.Name
	if name == "" {
		name = "custom"
	}
	spec, err := testspec.Parse(strings.NewReader(r.TestSpec), name, fp)
	if err != nil {
		return nil, fmt.Errorf("test_spec: %v", err)
	}
	return spec, nil
}

// scheduleConfig maps the request's generator knobs to core.Config.
func (r *ScheduleRequest) scheduleConfig() (core.Config, error) {
	cfg := core.Config{
		TL:           r.TL,
		STCL:         r.STCL,
		WeightGrowth: r.WeightGrowth,
		AutoRaiseTL:  r.AutoRaiseTL,
		MaxAttempts:  r.MaxAttempts,
	}
	if !(r.TL > 0) {
		return cfg, fmt.Errorf("tl_celsius = %g must be > 0", r.TL)
	}
	if !(r.STCL > 0) {
		return cfg, fmt.Errorf("stcl = %g must be > 0", r.STCL)
	}
	if r.GridRes < 0 {
		return cfg, fmt.Errorf("grid_res = %d must be >= 0", r.GridRes)
	}
	if r.MaxAttempts < 0 {
		return cfg, fmt.Errorf("max_attempts = %d must be >= 0", r.MaxAttempts)
	}
	if r.WeightGrowth != 0 && !(r.WeightGrowth > 1) {
		return cfg, fmt.Errorf("weight_growth = %g must be > 1 (0 = default 1.1)", r.WeightGrowth)
	}
	if r.Order != "" {
		found := false
		for _, p := range core.OrderPolicies() {
			if p.String() == r.Order {
				cfg.Order = p
				found = true
				break
			}
		}
		if !found {
			return cfg, fmt.Errorf("unknown order %q", r.Order)
		}
	}
	return cfg, nil
}

// ScheduleResult is the deterministic part of a schedule response: two
// requests posing the same problem yield byte-identical Result JSON no matter
// which cache tier answered (asserted by the end-to-end test).
type ScheduleResult struct {
	Workload    string  `json:"workload"`
	Cores       int     `json:"cores"`
	TL          float64 `json:"tl_celsius"`
	STCL        float64 `json:"stcl"`
	EffectiveTL float64 `json:"effective_tl_celsius"`
	GridRes     int     `json:"grid_res,omitempty"`

	Length  float64 `json:"length_seconds"`
	Effort  float64 `json:"effort_seconds"`
	MaxTemp float64 `json:"max_temp_celsius"`

	Attempts         int `json:"attempts"`
	Violations       int `json:"violations"`
	ForcedSingletons int `json:"forced_singletons"`

	// Sessions lists core names per session; Schedule is the same partition
	// in the parseable text format ("TS1: C2 C3").
	Sessions [][]string `json:"sessions"`
	Schedule string     `json:"schedule"`

	// SystemKey is the oraclestore content address of the validation oracle
	// (hex) — the key the server's warm-system map and the persistent store
	// share.
	SystemKey string `json:"system_key"`
}

// CacheInfo attributes one request's oracle traffic to the cache tiers.
// Counter deltas are exact for sequential requests; concurrent requests on
// the same system may see each other's traffic folded in.
type CacheInfo struct {
	// SystemWarm reports whether the live system already existed (this
	// request did not build models).
	SystemWarm bool `json:"system_warm"`
	// StoreLoaded is how many records the system's store file warm-started
	// with when it was opened; 0 without a cache directory.
	StoreLoaded int `json:"store_loaded"`
	// Tier-1 is the in-memory memo cache; tier-2 the persistent store.
	Tier1Hits   int64 `json:"tier1_hits"`
	Tier1Misses int64 `json:"tier1_misses"`
	Tier2Hits   int64 `json:"tier2_hits"`
	Tier2Misses int64 `json:"tier2_misses"`
	// GridFactorized reports whether this system has built its grid model
	// (always false for block-model systems and for grid-resolution systems
	// answered entirely from warm tiers). The build reuses the factor of a
	// live system with the same package, die size and resolution, so it
	// does not always pay a numeric factorization.
	GridFactorized bool `json:"grid_factorized"`
}

// TimingInfo breaks a request's wall time down (milliseconds).
type TimingInfo struct {
	QueueMS    float64 `json:"queue_ms"`
	GenerateMS float64 `json:"generate_ms"`
	TotalMS    float64 `json:"total_ms"`
}

// ScheduleResponse is the POST /v1/schedule reply.
type ScheduleResponse struct {
	Result ScheduleResult `json:"result"`
	Cache  CacheInfo      `json:"cache"`
	Timing TimingInfo     `json:"timing"`
}

// SystemInfo is one warm system in GET /v1/systems.
type SystemInfo struct {
	Key            string `json:"key"`
	Workload       string `json:"workload"`
	Cores          int    `json:"cores"`
	GridRes        int    `json:"grid_res,omitempty"`
	Tier1Hits      int64  `json:"tier1_hits"`
	Tier1Misses    int64  `json:"tier1_misses"`
	Tier2Hits      int64  `json:"tier2_hits"`
	Tier2Misses    int64  `json:"tier2_misses"`
	StoreRecords   int    `json:"store_records"`
	StoreBytes     int64  `json:"store_bytes"`
	GridFactorized bool   `json:"grid_factorized"`
	LastUsed       string `json:"last_used"`
}

// StoreInfo summarises the persistent store in GET /v1/systems.
type StoreInfo struct {
	Dir          string `json:"dir"`
	Files        int    `json:"files"`
	Bytes        int64  `json:"bytes"`
	BudgetBytes  int64  `json:"budget_bytes,omitempty"`
	EvictedFiles int    `json:"evicted_files"`
	EvictedBytes int64  `json:"evicted_bytes"`
	Hits         int64  `json:"hits"`
	Misses       int64  `json:"misses"`
}

// SystemsResponse is the GET /v1/systems reply.
type SystemsResponse struct {
	Systems []SystemInfo `json:"systems"`
	Store   *StoreInfo   `json:"store,omitempty"`
}

// HealthResponse is the GET /healthz readiness body. Status is "ok" or
// "degraded" — degraded means the service is still answering (warm tiers
// intact) but the persistent store is not accepting writes, so new oracle
// answers survive only as long as this process.
type HealthResponse struct {
	Status string `json:"status"`
	// Worker-pool occupancy: QueueDepth requests are waiting now, out of
	// QueueLimit admissible (-1 = unbounded); Shed counts 429s since start.
	Workers     int   `json:"workers"`
	QueueDepth  int   `json:"queue_depth"`
	QueueLimit  int   `json:"queue_limit"`
	Shed        int64 `json:"shed_total"`
	SystemsLive int   `json:"systems_live"`
	MaxSystems  int   `json:"max_systems,omitempty"`
	// Store is the persistent store's fault-layer state, absent without a
	// cache directory.
	Store *StoreHealthInfo `json:"store,omitempty"`
	// Jobs is the async-job subsystem's state, including journal health and
	// drain progress.
	Jobs *JobsHealthInfo `json:"jobs,omitempty"`
}

// StoreHealthInfo mirrors oraclestore.StoreHealth for the health endpoint.
type StoreHealthInfo struct {
	Breaker             string `json:"breaker"` // closed | open | half_open
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
	BreakerOpens        int64  `json:"breaker_opens"`
	LastError           string `json:"last_error,omitempty"`
	AppendRetries       int64  `json:"append_retries"`
	AppendFailures      int64  `json:"append_failures"`
	Unpersisted         int64  `json:"unpersisted"`
	DegradedSystems     int    `json:"degraded_systems"`
}

// JobSubmitResponse is the POST /v1/jobs reply (202 Accepted).
type JobSubmitResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// JobStatusResponse is the GET /v1/jobs/{id} reply. Response carries the
// full ScheduleResponse JSON once the job is done — byte-identical to what
// the synchronous endpoint's result section would have produced for the same
// problem, no matter how many restarts the job survived.
type JobStatusResponse struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Resumed bool   `json:"resumed,omitempty"`
	Created string `json:"created"`
	Updated string `json:"updated"`
	Error   string `json:"error,omitempty"`
	// Digest is the SHA-256 of the deterministic result section, set on done.
	Digest      string          `json:"digest,omitempty"`
	Response    json.RawMessage `json:"response,omitempty"`
	LastEventID int64           `json:"last_event_id"`
}

// JobProgressEvent is the data payload of an SSE "progress" event: the
// generator's coverage plus this run's cache-tier traffic so far.
type JobProgressEvent struct {
	Phase          int `json:"phase"`
	Sessions       int `json:"sessions"`
	CoresScheduled int `json:"cores_scheduled"`
	CoresTotal     int `json:"cores_total"`
	Attempts       int `json:"attempts"`
	Violations     int `json:"violations"`
	// Tier deltas since the run began (not since the system was built).
	Tier1Hits   int64 `json:"tier1_hits"`
	Tier1Misses int64 `json:"tier1_misses"`
	Tier2Hits   int64 `json:"tier2_hits"`
	Tier2Misses int64 `json:"tier2_misses"`
}

// JobsHealthInfo summarises the async-job subsystem in GET /healthz.
type JobsHealthInfo struct {
	Active      int64 `json:"active"`
	Queued      int64 `json:"queued_total"`
	Running     int64 `json:"running_total"`
	Done        int64 `json:"done_total"`
	Failed      int64 `json:"failed_total"`
	Cancelled   int64 `json:"cancelled_total"`
	Interrupted int64 `json:"interrupted_total"`
	Resumed     int64 `json:"resumed_total"`
	// Journal is the journal path; MemOnly true means job durability is
	// degraded (jobs die with the process) while serving continues.
	Journal        string `json:"journal,omitempty"`
	JournalMemOnly bool   `json:"journal_mem_only"`
	AppendRetries  int64  `json:"journal_append_retries"`
	AppendFailures int64  `json:"journal_append_failures"`
	Unpersisted    int64  `json:"journal_unpersisted"`
}

// ErrorResponse is the structured error body every handler returns on
// failure.
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries a stable machine-readable code plus a human message.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}
