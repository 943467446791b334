// Command thermserve runs the streaming schedule service: a long-lived HTTP
// server answering thermal-safe test-schedule requests from warm oracle
// tiers.
//
// Usage:
//
//	thermserve -addr :8080 -cachedir /var/cache/thermsched -store-budget 256M
//	thermserve -smoke
//
// Endpoints: POST /v1/schedule, POST /v1/jobs, GET and DELETE /v1/jobs/{id},
// GET /v1/jobs/{id}/events, GET /v1/systems, GET /healthz, GET /metrics.
// With -cachedir every distinct session simulation persists to a
// content-addressed store shared across restarts; -store-budget bounds that
// directory with file-level LRU eviction. -smoke starts the server on an
// ephemeral port, issues one cold and one warm request against it, asserts
// the warm one was answered from cache, and exits — the CI health check.
//
// Admission control: -queue-depth bounds how many requests may wait for a
// worker (beyond it the server sheds with 429 + Retry-After), -deadline sets
// the default per-request deadline (clients override with X-Request-Deadline
// or deadline_ms), and -max-systems bounds the live in-RAM system map by
// LRU-dropping idle entries. /healthz reports ok|degraded with store breaker
// state and queue occupancy.
//
// Memory discipline: -peak-bytes caps each grid system's resident
// factorization working set (finished factor panels spill to -spill-dir and
// stream back during solves, bit-identical); without it the budget is
// 2 GiB. Grid systems with the same package, die, resolution and memory
// flags share one factor.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/server"
	"repro/internal/thermal"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		cacheDir    = flag.String("cachedir", "", "persistent oracle store directory (empty: in-memory tiers only)")
		storeBudget = flag.String("store-budget", "", "store byte budget with optional K/M/G suffix, e.g. 256M; empty: unbounded")
		storeNodes  = flag.String("storenodes", "", "comma-separated thermstore shard addresses (host:port,...) for the tier-3 cluster; requires -cachedir")
		workers     = flag.Int("workers", 0, "max concurrent schedule generations (0: GOMAXPROCS)")
		queueDepth  = flag.Int("queue-depth", 0, "max requests waiting for a worker before shedding with 429 (0: 1024, negative: unbounded)")
		maxSystems  = flag.Int("max-systems", 0, "max live simulated systems in RAM, LRU-dropping idle ones (0: unbounded)")
		deadline    = flag.Duration("deadline", 0, "default per-request deadline, e.g. 2s (0: none; clients override via X-Request-Deadline or deadline_ms)")
		drainTO     = flag.Duration("drain-timeout", 10*time.Second, "on shutdown, how long running async jobs may finish before being interrupted (journaled for resume; 0: interrupt immediately)")
		peakBytes   = flag.String("peak-bytes", "", "per-system peak factorization memory with optional K/M/G suffix, e.g. 512M; the factor spills panels to disk past it (empty: 2G)")
		spillDir    = flag.String("spill-dir", "", "directory for out-of-core factor panel files (empty: os.TempDir)")
		quiet       = flag.Bool("q", false, "suppress per-request logging")
		smoke       = flag.Bool("smoke", false, "self-check: serve one cold and one warm request plus one async job, then exit")
	)
	flag.Parse()

	budget, err := cliutil.ParseByteSize(*storeBudget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermserve: -store-budget:", err)
		os.Exit(1)
	}
	peak, err := cliutil.ParseByteSize(*peakBytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "thermserve: -peak-bytes:", err)
		os.Exit(1)
	}
	var nodes []string
	for _, a := range strings.Split(*storeNodes, ",") {
		if a = strings.TrimSpace(a); a != "" {
			nodes = append(nodes, a)
		}
	}
	cfg := server.Config{
		CacheDir:        *cacheDir,
		StoreBudget:     budget,
		StoreNodes:      nodes,
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		MaxSystems:      *maxSystems,
		DefaultDeadline: *deadline,
		Grid:            thermal.GridOptions{PeakBytesBudget: peak, SpillDir: *spillDir},
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "thermserve: "+format+"\n", args...)
		}
	}
	if *smoke {
		if err := runSmoke(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "thermserve: smoke failed:", err)
			os.Exit(1)
		}
		return
	}
	if err := serve(*addr, cfg, *drainTO); err != nil {
		fmt.Fprintln(os.Stderr, "thermserve:", err)
		os.Exit(1)
	}
}

// serve runs the service until SIGINT/SIGTERM, then drains: async jobs get
// drainTimeout to finish (stragglers journal "interrupted" records the next
// start resumes from) before open connections are shut down.
func serve(addr string, cfg server.Config, drainTimeout time.Duration) error {
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	hs := &http.Server{Addr: addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "thermserve: listening on %s\n", addr)
		errc <- hs.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "thermserve: draining")
	srv.Drain(drainTimeout)
	fmt.Fprintln(os.Stderr, "thermserve: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// smokeRequest is the Table 1 anchor cell the self-check poses twice.
var smokeRequest = map[string]any{
	"workload":   "alpha21364",
	"tl_celsius": 165,
	"stcl":       60,
}

// runSmoke starts the service on an ephemeral port, posts the same request
// cold then warm, and fails unless the warm reply comes from the cache tiers
// with an identical schedule.
func runSmoke(cfg server.Config) error {
	if cfg.CacheDir == "" {
		dir, err := os.MkdirTemp("", "thermserve-smoke-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.CacheDir = dir
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %v", err)
	}
	var health server.HealthResponse
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("healthz: decoding body: %v", err)
	}
	if resp.StatusCode != http.StatusOK || health.Status != "ok" {
		return fmt.Errorf("healthz: status %d %q", resp.StatusCode, health.Status)
	}

	post := func() (*server.ScheduleResponse, error) {
		body, _ := json.Marshal(smokeRequest)
		resp, err := http.Post(base+"/v1/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var e server.ErrorResponse
			_ = json.NewDecoder(resp.Body).Decode(&e)
			return nil, fmt.Errorf("status %d: %s %s", resp.StatusCode, e.Error.Code, e.Error.Message)
		}
		var out server.ScheduleResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, err
		}
		return &out, nil
	}

	cold, err := post()
	if err != nil {
		return fmt.Errorf("cold request: %v", err)
	}
	warm, err := post()
	if err != nil {
		return fmt.Errorf("warm request: %v", err)
	}
	if !warm.Cache.SystemWarm {
		return fmt.Errorf("warm request rebuilt the system")
	}
	hits := warm.Cache.Tier1Hits + warm.Cache.Tier2Hits
	misses := warm.Cache.Tier1Misses
	if hits == 0 || float64(hits)/float64(hits+misses) == 0 {
		return fmt.Errorf("warm request hit rate is zero (hits %d, misses %d)", hits, misses)
	}
	if warm.Result.Schedule != cold.Result.Schedule {
		return fmt.Errorf("warm schedule differs from cold:\ncold:\n%s\nwarm:\n%s",
			cold.Result.Schedule, warm.Result.Schedule)
	}
	// Async path: submit the same problem as a job and follow it to done; the
	// result must match the synchronous answers.
	body, _ := json.Marshal(smokeRequest)
	resp, err = http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("job submit: %v", err)
	}
	var sub server.JobSubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		return fmt.Errorf("job submit: status %d, id %q, err %v", resp.StatusCode, sub.ID, err)
	}
	var job server.JobStatusResponse
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + sub.ID)
		if err != nil {
			return fmt.Errorf("job poll: %v", err)
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("job poll: decoding body: %v", err)
		}
		if job.State == "done" || job.State == "failed" || job.State == "cancelled" {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %q after 30s", sub.ID, job.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if job.State != "done" {
		return fmt.Errorf("job %s ended %q: %s", sub.ID, job.State, job.Error)
	}
	var jobResp server.ScheduleResponse
	if err := json.Unmarshal(job.Response, &jobResp); err != nil {
		return fmt.Errorf("job response: %v", err)
	}
	if jobResp.Result.Schedule != cold.Result.Schedule {
		return fmt.Errorf("async schedule differs from sync:\nsync:\n%s\nasync:\n%s",
			cold.Result.Schedule, jobResp.Result.Schedule)
	}

	fmt.Printf("smoke ok: %s cold %.1f ms → warm %.1f ms, warm tier1 %d/%d, schedule %d sessions, async job %s done\n",
		cold.Result.Workload, cold.Timing.TotalMS, warm.Timing.TotalMS,
		warm.Cache.Tier1Hits, warm.Cache.Tier1Hits+warm.Cache.Tier1Misses,
		len(warm.Result.Sessions), sub.ID)
	return nil
}
