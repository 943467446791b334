package core

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/schedule"
	"repro/internal/testspec"
)

// Config parameterises the thermal-safe schedule generator (Algorithm 1).
type Config struct {
	// TL is the maximum allowable temperature (°C). Required.
	TL float64
	// STCL is the session thermal characteristic limit; larger values pack
	// sessions more aggressively. Required (> 0).
	STCL float64
	// WeightGrowth multiplies a core's weight after it violates TL in a
	// simulated session; the paper uses 1.1. 0 → 1.1.
	WeightGrowth float64
	// Order is the candidate scan order; default OrderByTCDesc.
	Order OrderPolicy
	// AutoRaiseTL implements the "or increase TL" arm of Algorithm 1 line 5:
	// when a core's solo test already violates TL, raise the effective TL
	// just above the worst BCMT instead of failing. Off by default — the
	// default mirrors the "fix the core's test infrastructure" arm by
	// reporting which cores are infeasible.
	AutoRaiseTL bool
	// MaxAttempts bounds the number of candidate-session simulations as a
	// safety valve; 0 → 100000, negative is invalid. Exceeding it returns a
	// *MaxAttemptsError.
	MaxAttempts int
	// BatchValidate is ignored: phase 2 simulates one candidate session at
	// a time, and phase 1 always batches its solos when the oracle can.
	//
	// Deprecated: ignored.
	BatchValidate bool
	// Interrupt, when non-nil, is polled before phase 1 and before every
	// phase-2 candidate; a non-nil return aborts the run with an error
	// wrapping both *ErrInterrupted and the returned cause. Wire a request
	// context's Err method here (Interrupt: ctx.Err) to give a generation a
	// deadline or cancellation point: the abort lands between candidate
	// simulations, so the oracle caches stay consistent — everything already
	// simulated remains memoized and persisted for the retry.
	Interrupt func() error
	// Progress, when non-nil, mirrors Interrupt for observation: it is called
	// once when phase 1 completes and once after every committed session, with
	// a by-value snapshot of how far the run has got — the schedule service
	// streams these as job progress events. Calls happen on the generator's
	// goroutine between simulations; the callback must be fast and must not
	// call back into the generator. A nil Progress costs one branch per
	// commit, keeping the serial hot loop allocation-free.
	Progress func(ProgressInfo)
}

// ProgressInfo is one generator progress snapshot (see Config.Progress).
type ProgressInfo struct {
	// Phase is 1 while the solo-simulation sweep is the latest completed
	// milestone, 2 once session construction has begun committing.
	Phase int
	// Sessions counts committed sessions; CoresScheduled of CoresTotal cores
	// have landed in one.
	Sessions       int
	CoresScheduled int
	CoresTotal     int
	// Attempts and Violations mirror the Result counters so far.
	Attempts   int
	Violations int
}

func (c Config) withDefaults() Config {
	if c.WeightGrowth == 0 {
		c.WeightGrowth = 1.1
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 100000
	}
	return c
}

// ErrInterrupted marks generator runs aborted by Config.Interrupt. The
// returned error wraps both this sentinel and the Interrupt cause, so
// errors.Is matches either (e.g. context.DeadlineExceeded from a request
// deadline).
var ErrInterrupted = errors.New("core: generation interrupted")

func (c Config) validate() error {
	if !(c.TL > 0) {
		return fmt.Errorf("%w: TL = %g must be > 0", ErrCore, c.TL)
	}
	if !(c.STCL > 0) {
		return fmt.Errorf("%w: STCL = %g must be > 0", ErrCore, c.STCL)
	}
	if c.WeightGrowth <= 1 {
		return fmt.Errorf("%w: WeightGrowth = %g must be > 1", ErrCore, c.WeightGrowth)
	}
	if c.MaxAttempts < 0 {
		return fmt.Errorf("%w: MaxAttempts = %d must be >= 0", ErrCore, c.MaxAttempts)
	}
	return nil
}

// BCMTViolationError reports cores whose solo test already exceeds TL
// (Algorithm 1, lines 1–7): the flow requires fixing the core's test
// infrastructure or raising TL (Config.AutoRaiseTL).
type BCMTViolationError struct {
	TL    float64
	Cores []int
	Names []string
	Temps []float64
}

// Error implements error.
func (e *BCMTViolationError) Error() string {
	parts := make([]string, len(e.Cores))
	for i := range e.Cores {
		parts[i] = fmt.Sprintf("%s(%.1f°C)", e.Names[i], e.Temps[i])
	}
	return fmt.Sprintf("core: %d core(s) violate TL=%.1f°C when tested alone: %s; "+
		"fix the core-level test or enable AutoRaiseTL", len(e.Cores), e.TL, strings.Join(parts, ", "))
}

// MaxAttemptsError reports a generator run that exceeded the
// Config.MaxAttempts validation-simulation budget: how far it got (sessions
// committed), what is left (cores still unscheduled) and what it spent. The
// usual cause is an STCL so tight relative to the weight growth that
// violations recur faster than singletons drain the core list; the fields let
// a caller distinguish "almost done, raise the budget" from "stuck at the
// first session, fix the configuration".
type MaxAttemptsError struct {
	// MaxAttempts is the configured budget that tripped.
	MaxAttempts int
	// Attempts is the validation simulations spent (MaxAttempts + 1 at trip).
	Attempts int
	// Sessions is how many sessions had been committed to the schedule.
	Sessions int
	// Unscheduled lists the cores still without a session, ascending.
	Unscheduled []int
}

// Error implements error.
func (e *MaxAttemptsError) Error() string {
	return fmt.Sprintf("core: exceeded MaxAttempts=%d validation simulations "+
		"(%d attempts spent, %d sessions built, %d cores unscheduled: %v)",
		e.MaxAttempts, e.Attempts, e.Sessions, len(e.Unscheduled), e.Unscheduled)
}

// Is lets errors.Is match MaxAttemptsError against ErrCore, like the bare
// error string it replaced.
func (e *MaxAttemptsError) Is(target error) bool { return target == ErrCore }

// SessionRecord captures one committed session for reporting.
type SessionRecord struct {
	Session  schedule.Session
	STC      float64 // model STC at commit time (weighted)
	MaxTemp  float64 // simulated max temperature across its active cores, °C
	Attempts int     // simulations spent before this session validated
}

// Result is the outcome of one generator run.
type Result struct {
	Schedule schedule.Schedule
	Records  []SessionRecord

	// Length is the schedule length in seconds — Table 1's "test schedule
	// length" column.
	Length float64
	// Effort is the simulation effort in seconds of simulated test-session
	// time across *all* validation calls, including discarded sessions —
	// Table 1's "simulation effort" column. Phase-1 solo simulations are not
	// counted, matching the paper's effort == length on first-attempt rows.
	Effort float64
	// MaxTemp is the hottest simulated core temperature over the committed
	// sessions — Table 1's "max. temperature" column.
	MaxTemp float64

	// Attempts counts validation simulations; Violations counts discarded
	// sessions (Attempts = Violations + committed sessions).
	Attempts   int
	Violations int

	// BCMT holds each core's solo max temperature (Algorithm 1 line 3).
	BCMT []float64
	// EffectiveTL is TL after any AutoRaiseTL adjustment.
	EffectiveTL float64
	// FinalWeights is the weight vector at termination.
	FinalWeights []float64
	// ForcedSingletons counts sessions that were forced to a single core
	// because no core fit under STCL (a liveness guard the paper's
	// pseudocode leaves implicit; see Generator docs).
	ForcedSingletons int
}

// Generator runs Algorithm 1 against a test spec, a session model (the cheap
// guide) and an oracle (the expensive validator).
//
// Two deviations from the paper's pseudocode, both liveness guards:
//
//  1. If no unscheduled core fits an empty session under STCL (possible once
//     weights have grown, or with an unreachably small STCL), the core with
//     the smallest weighted STC term is scheduled alone. Solo sessions are
//     always TL-safe after phase 1, so progress is guaranteed.
//  2. MaxAttempts bounds total validation simulations; exceeding it returns
//     an error rather than looping (cannot trigger with sane configs given
//     guard 1, because weights grow monotonically until every core lands in
//     a singleton).
type Generator struct {
	spec   *testspec.Spec
	sm     *SessionModel
	oracle Oracle
	cfg    Config
}

// NewGenerator validates the configuration and assembles a generator.
func NewGenerator(spec *testspec.Spec, sm *SessionModel, oracle Oracle, cfg Config) (*Generator, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if sm.NumCores() != spec.NumCores() {
		return nil, fmt.Errorf("%w: session model has %d cores, spec has %d",
			ErrCore, sm.NumCores(), spec.NumCores())
	}
	if oracle == nil {
		return nil, fmt.Errorf("%w: nil oracle", ErrCore)
	}
	return &Generator{spec: spec, sm: sm, oracle: oracle, cfg: cfg}, nil
}

// progress reports a snapshot through Config.Progress when one is wired.
func (g *Generator) progress(p ProgressInfo) {
	if g.cfg.Progress != nil {
		g.cfg.Progress(p)
	}
}

// interrupted polls Config.Interrupt, wrapping a non-nil cause.
func (g *Generator) interrupted() error {
	if g.cfg.Interrupt == nil {
		return nil
	}
	if cause := g.cfg.Interrupt(); cause != nil {
		return fmt.Errorf("%w: %w", ErrInterrupted, cause)
	}
	return nil
}

// Run executes Algorithm 1 and returns the thermal-safe schedule.
func (g *Generator) Run() (*Result, error) {
	n := g.spec.NumCores()
	res := &Result{
		BCMT:         make([]float64, n),
		EffectiveTL:  g.cfg.TL,
		FinalWeights: make([]float64, n),
	}
	if err := g.interrupted(); err != nil {
		return nil, err
	}

	// Phase 1 (lines 1–7): per-core solo simulation, BCMT check. The n solo
	// simulations are independent, so a BatchOracle gets them in one call and
	// spends its own parallelism on them; results land in per-core slots,
	// keeping everything that follows deterministic.
	if err := g.runPhase1(n, res.BCMT); err != nil {
		return nil, err
	}
	var violation BCMTViolationError
	for i, t := range res.BCMT {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return nil, g.nonFinite(1, i, []int{i}, t)
		}
		if t >= g.cfg.TL {
			violation.Cores = append(violation.Cores, i)
			violation.Names = append(violation.Names, g.spec.Test(i).Name)
			violation.Temps = append(violation.Temps, t)
		}
	}
	if len(violation.Cores) > 0 {
		if !g.cfg.AutoRaiseTL {
			violation.TL = g.cfg.TL
			return nil, &violation
		}
		worst := violation.Temps[0]
		for _, t := range violation.Temps[1:] {
			worst = math.Max(worst, t)
		}
		res.EffectiveTL = worst + 1
	}
	tl := res.EffectiveTL
	g.progress(ProgressInfo{Phase: 1, CoresTotal: n})

	// Phase 2 (lines 8–28): session construction, validation, commit.
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1
	}
	remaining := make([]bool, n)
	left := n
	for i := range remaining {
		remaining[i] = true
	}
	order, err := candidateOrder(g.cfg.Order, g.spec, g.sm)
	if err != nil {
		return nil, err
	}

	sched := schedule.New()
	builder := newSessionBuilder(g.sm)
	sessionAttempts := 0
	var session []int
	var stc float64
	var forced, reuse bool
	for left > 0 {
		if err := g.interrupted(); err != nil {
			return nil, err
		}
		// Lines 9–15 build the candidate; line 16 simulates it once. The
		// session aliases the builder until the next buildSession call.
		if !reuse {
			session, stc, forced, err = g.buildSession(builder, order, remaining, weights)
			if err != nil {
				return nil, err
			}
		}
		reuse = false
		temps, err := g.oracle.BlockTemps(session)
		if err != nil {
			return nil, fmt.Errorf("core: session simulation: %w", err)
		}
		if forced {
			res.ForcedSingletons++
		}
		res.Attempts++
		sessionAttempts++
		// The attempt's length is its longest test, a max that ignores member
		// order, so discarded attempts never pay for a sorted Session.
		var length float64
		for _, c := range session {
			if l := g.spec.Test(c).Length; l > length {
				length = l
			}
		}
		res.Effort += length
		if res.Attempts > g.cfg.MaxAttempts {
			unsched := make([]int, 0, left)
			for i, r := range remaining {
				if r {
					unsched = append(unsched, i)
				}
			}
			return nil, &MaxAttemptsError{
				MaxAttempts: g.cfg.MaxAttempts,
				Attempts:    res.Attempts,
				Sessions:    len(res.Records),
				Unscheduled: unsched,
			}
		}
		valid := true
		sessionMax := math.Inf(-1)
		for _, c := range session {
			t := temps[c]
			if math.IsNaN(t) || math.IsInf(t, 0) {
				return nil, g.nonFinite(2, c, session, t)
			}
			sessionMax = math.Max(sessionMax, t)
			if t >= tl {
				weights[c] *= g.cfg.WeightGrowth // line 20
				valid = false
			}
		}
		if !valid {
			res.Violations++
			// Line 9 rebuilds from scratch. Only offenders' weights grew and
			// no core left, so the scan would return this same candidate
			// exactly when its STC under the grown weights is still within
			// STCL (see sessionBuilder); then it is reused with that STC. A
			// forced singleton never is: its term already exceeded STCL.
			if t := builder.rescore(weights); t <= g.cfg.STCL {
				stc, reuse = t, true
			}
			continue
		}
		sess, err := schedule.NewSession(session...)
		if err != nil {
			return nil, err
		}
		sched = sched.Append(sess)
		res.Records = append(res.Records, SessionRecord{
			Session:  sess,
			STC:      stc,
			MaxTemp:  sessionMax,
			Attempts: sessionAttempts,
		})
		res.MaxTemp = math.Max(res.MaxTemp, sessionMax)
		sessionAttempts = 0
		for _, c := range session {
			remaining[c] = false
		}
		left -= len(session)
		g.progress(ProgressInfo{
			Phase:          2,
			Sessions:       len(res.Records),
			CoresScheduled: n - left,
			CoresTotal:     n,
			Attempts:       res.Attempts,
			Violations:     res.Violations,
		})
	}

	res.Schedule = sched
	res.Length = sched.Length(g.spec)
	copy(res.FinalWeights, weights)
	if err := sched.Validate(g.spec); err != nil {
		// Internal invariant: the loop schedules every remaining core
		// exactly once. Surface violations loudly instead of returning a
		// corrupt schedule.
		return nil, fmt.Errorf("core: generated schedule failed validation: %w", err)
	}
	return res, nil
}

// runPhase1 fills bcmt with each core's solo steady-state temperature. A
// BatchOracle answers all n solos in one call: a memo answers its hits in
// place and forwards only the misses, and the leaf oracles fan those out
// where a solve is worth a goroutine. Without a batch path, or when the batch
// call fails, the solos run one at a time in core order, so the reported
// error is the lowest-index one, as a whole-batch error names no core.
func (g *Generator) runPhase1(n int, bcmt []float64) error {
	cores := make([]int, n)
	sessions := make([][]int, n)
	for i := range sessions {
		cores[i] = i
		sessions[i] = cores[i : i+1 : i+1]
	}
	if batch, ok := g.oracle.(BatchOracle); ok {
		if temps, err := batch.BlockTempsBatch(sessions); err == nil && len(temps) == n {
			for i, t := range temps {
				bcmt[i] = t[i]
			}
			return nil
		}
	}
	for i, s := range sessions {
		field, err := g.oracle.BlockTemps(s)
		if err != nil {
			return fmt.Errorf("core: phase-1 simulation of core %d: %w", i, err)
		}
		bcmt[i] = field[i]
	}
	return nil
}

// nonFinite reports an active core whose simulated temperature is NaN or
// ±Inf. Every TL comparison is false for NaN and −Inf passes as cool, so
// such a field would be committed as thermally safe; +Inf would raise an
// AutoRaiseTL limit to +Inf. The field is rejected instead.
func (g *Generator) nonFinite(phase, core int, session []int, t float64) error {
	return fmt.Errorf("%w: phase-%d simulation gave core %d (%s) a non-finite temperature %g in session %v",
		ErrCore, phase, core, g.spec.Test(core).Name, t, session)
}

// buildSession implements lines 9–15: scan the unscheduled cores in candidate
// order and greedily add every core that keeps STC(TS ∪ {Ci}) ≤ STCL.
// When nothing fits (weights have outgrown STCL), it forces the least-hot
// singleton to preserve liveness and reports that via forced. The returned
// slice aliases the builder and is only valid until the next call; the second
// return is the committed session's weighted STC.
func (g *Generator) buildSession(b *sessionBuilder, order []int, remaining []bool,
	weights []float64) (session []int, stc float64, forced bool, err error) {
	b.reset()
	for _, c := range order {
		if !remaining[c] {
			continue
		}
		b.tryAdd(c, weights, g.cfg.STCL)
	}
	if len(b.members) > 0 {
		return b.members, b.maxTerm, false, nil
	}
	// Liveness guard: force the single unscheduled core with the smallest
	// weighted solo STC.
	best, bestSTC := -1, math.Inf(1)
	for _, c := range order {
		if !remaining[c] {
			continue
		}
		if stc := b.soloTerm(c, weights); stc < bestSTC {
			best, bestSTC = c, stc
		}
	}
	if best < 0 {
		return nil, 0, false, fmt.Errorf("%w: buildSession called with no remaining cores", ErrCore)
	}
	b.forceSingleton(best, weights)
	return b.members, b.maxTerm, true, nil
}

// Generate is the one-call convenience wrapper: build the generator and run
// it.
func Generate(spec *testspec.Spec, sm *SessionModel, oracle Oracle, cfg Config) (*Result, error) {
	g, err := NewGenerator(spec, sm, oracle, cfg)
	if err != nil {
		return nil, err
	}
	return g.Run()
}

// Describe renders the result in the shape of a Table 1 row plus the session
// detail.
func (r *Result) Describe(spec *testspec.Spec) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "TL=%.0f°C: length %.0f s, simulation effort %.0f s, max temp %.2f °C (%d violations",
		r.EffectiveTL, r.Length, r.Effort, r.MaxTemp, r.Violations)
	if r.ForcedSingletons > 0 {
		fmt.Fprintf(&sb, ", %d forced singletons", r.ForcedSingletons)
	}
	sb.WriteString(")\n")
	for i, rec := range r.Records {
		fmt.Fprintf(&sb, "  TS%-2d [STC %6.1f, Tmax %7.2f °C, %2d sim(s)] %s\n",
			i+1, rec.STC, rec.MaxTemp, rec.Attempts, strings.Join(rec.Session.Names(spec), " "))
	}
	return sb.String()
}

var _ error = (*BCMTViolationError)(nil)

// Is lets errors.Is match BCMTViolationError against ErrBCMT.
func (e *BCMTViolationError) Is(target error) bool { return target == ErrBCMT }

// ErrBCMT is the sentinel matched by errors.Is for BCMT (phase 1)
// violations.
var ErrBCMT = errors.New("core: solo test exceeds temperature limit")
