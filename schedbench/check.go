package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/schedule"
	"repro/internal/server"
)

// rules are the per-workload cache expectations every answer must meet.
type rules struct {
	// noTier1Misses: every oracle query is a memo hit (warm serving).
	noTier1Misses bool
	// noSims: no tier-2 miss, i.e. nothing was simulated.
	noSims bool
	// gridFactorized must equal cache.grid_factorized.
	gridFactorized bool
	// noTier2Hits: the store held nothing for this system (a cold answer).
	noTier2Hits bool
}

// checker validates answers and remembers each problem's first result
// digest, so every repeat must be byte-identical to it.
type checker struct {
	mu    sync.Mutex
	first map[*problem]string
}

func newChecker() *checker {
	return &checker{first: make(map[*problem]string)}
}

// digest is the SHA-256 of the canonical encoding of a result section — the
// same fingerprint the service stores as an async job's digest.
func digest(r server.ScheduleResult) string {
	raw, err := json.Marshal(r)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return fmt.Sprintf("%x", sha256.Sum256(raw))
}

// answer is what a checked response contributes to the run's record: its
// result digest and the counts the traced run must reproduce.
type answer struct {
	digest                   string
	attempts                 int
	tier1Misses, tier2Misses int64
}

// checkSchedule validates one POST /v1/schedule answer to p and returns the
// decoded response.
func (c *checker) checkSchedule(p *problem, r rules, status int, body []byte) (*server.ScheduleResponse, answer, error) {
	if status != http.StatusOK {
		return nil, answer{}, fmt.Errorf("%s: HTTP %d: %.200s", p.label, status, body)
	}
	var resp server.ScheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, answer{}, fmt.Errorf("%s: decoding response: %w", p.label, err)
	}
	a, err := c.checkResponse(p, r, &resp)
	return &resp, a, err
}

// checkResponse validates a decoded schedule response: the schedule is a
// partition of the spec's cores, every committed session stays below the
// effective TL, the cache section meets r, and the result is byte-identical
// to this problem's first answer.
func (c *checker) checkResponse(p *problem, r rules, resp *server.ScheduleResponse) (answer, error) {
	res, ci := &resp.Result, resp.Cache
	a := answer{digest: digest(*res), attempts: res.Attempts, tier1Misses: ci.Tier1Misses, tier2Misses: ci.Tier2Misses}
	sc, err := schedule.ParseString(res.Schedule, p.spec)
	if err != nil {
		return a, fmt.Errorf("%s: schedule: %w", p.label, err)
	}
	if res.Cores != p.spec.NumCores() || len(res.Sessions) != sc.NumSessions() {
		return a, fmt.Errorf("%s: %d cores in %d sessions, want %d cores in %d sessions",
			p.label, res.Cores, len(res.Sessions), p.spec.NumCores(), sc.NumSessions())
	}
	// MaxTemp is the hottest core over all committed sessions, so bounding it
	// bounds every session.
	if !(res.MaxTemp > 0) || res.MaxTemp > res.EffectiveTL {
		return a, fmt.Errorf("%s: max temperature %g °C above effective TL %g °C",
			p.label, res.MaxTemp, res.EffectiveTL)
	}
	switch {
	case r.noTier1Misses && ci.Tier1Misses != 0:
		return a, fmt.Errorf("%s: %d tier-1 misses on a warm server", p.label, ci.Tier1Misses)
	case r.noSims && ci.Tier2Misses != 0:
		return a, fmt.Errorf("%s: %d simulations (tier-2 misses), want 0", p.label, ci.Tier2Misses)
	case r.noTier2Hits && ci.Tier2Hits != 0:
		return a, fmt.Errorf("%s: %d tier-2 hits on a never-seen system", p.label, ci.Tier2Hits)
	case ci.GridFactorized != r.gridFactorized:
		return a, fmt.Errorf("%s: grid_factorized = %v, want %v", p.label, ci.GridFactorized, r.gridFactorized)
	}
	return a, c.checkDigest(p, a.digest)
}

// checkDigest records p's first digest, or compares against it.
func (c *checker) checkDigest(p *problem, d string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	first, ok := c.first[p]
	if !ok {
		c.first[p] = d
		return nil
	}
	if d != first {
		return fmt.Errorf("%s: result digest %.12s differs from the first answer's %.12s", p.label, d, first)
	}
	return nil
}

// checkJob validates a finished async job's status body: done, its
// embedded response passes checkResponse, and the service's own digest
// matches the result section.
func (c *checker) checkJob(p *problem, r rules, status int, body []byte) (*server.ScheduleResponse, answer, error) {
	if status != http.StatusOK {
		return nil, answer{}, fmt.Errorf("%s: job status HTTP %d: %.200s", p.label, status, body)
	}
	var st server.JobStatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, answer{}, fmt.Errorf("%s: decoding job status: %w", p.label, err)
	}
	if st.State != "done" {
		return nil, answer{}, fmt.Errorf("%s: job %s ended %s: %s", p.label, st.ID, st.State, st.Error)
	}
	var resp server.ScheduleResponse
	if err := json.Unmarshal(st.Response, &resp); err != nil {
		return nil, answer{}, fmt.Errorf("%s: decoding job response: %w", p.label, err)
	}
	a, err := c.checkResponse(p, r, &resp)
	if err == nil && a.digest != st.Digest {
		err = fmt.Errorf("%s: job digest %.12s does not match its result %.12s", p.label, st.Digest, a.digest)
	}
	return &resp, a, err
}
