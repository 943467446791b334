package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"

	"repro/internal/conc"
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
	// STCScale divides the raw STC; 0 → DefaultSTCScale.
	STCScale float64
	// AutoRaiseTL implements the "or increase TL" arm of Algorithm 1 line 5:
	// when a core's solo test already violates TL, raise the effective TL
	// just above the worst BCMT instead of failing. Off by default — the
	// default mirrors the "fix the core's test infrastructure" arm by
	// reporting which cores are infeasible.
	AutoRaiseTL bool
	// MaxAttempts bounds the number of candidate-session simulations as a
	// safety valve; 0 → 100000. Exceeding it returns a *MaxAttemptsError.
	MaxAttempts int
	// BatchValidate routes validation through the oracle's batch path when
	// it implements BatchOracle: phase 1 submits all solo simulations in one
	// call, and phase 2 speculatively builds the whole chain of follow-on
	// sessions its candidate would unlock (weights only change on a
	// violation, so the chain is exact until the first failure) and
	// validates the chain in one call — at grid resolution, one blocked
	// multi-RHS triangular pass instead of one factor pass per candidate.
	// Results are byte-identical to serial validation: the consumption loop
	// replays the chain in order, commits the validated prefix, and discards
	// everything after the first violation, which is exactly what the serial
	// loop would have simulated. Off by default: with a microsecond block
	// oracle the discarded speculative work costs more than it saves.
	BatchValidate bool
	// Phase1Workers caps the goroutines fanning out the phase-1 solo
	// simulations. 0 → GOMAXPROCS; 1 → fully serial (use this with an
	// oracle that is not safe for concurrent use, or when the caller
	// already saturates the cores — e.g. a parallel experiment sweep
	// running one generator per worker). Results and errors are identical
	// at any worker count.
	Phase1Workers int
	// Interrupt, when non-nil, is polled before phase 1 and before every
	// phase-2 candidate build; a non-nil return aborts the run with an error
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
	if c.STCScale == 0 {
		c.STCScale = DefaultSTCScale
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
	// simulations are independent, so they fan out across GOMAXPROCS
	// goroutines; results land in per-core slots, keeping everything that
	// follows deterministic.
	if err := g.runPhase1(n, res.BCMT); err != nil {
		return nil, err
	}
	var violation BCMTViolationError
	for i := 0; i < n; i++ {
		if res.BCMT[i] >= g.cfg.TL {
			violation.Cores = append(violation.Cores, i)
			violation.Names = append(violation.Names, g.spec.Test(i).Name)
			violation.Temps = append(violation.Temps, res.BCMT[i])
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
	batch, _ := g.oracle.(BatchOracle)
	speculate := g.cfg.BatchValidate && batch != nil
	var remScratch []bool
	var chainScratch []pendingSession
	sessionAttempts := 0

	// consume validates one built session against its temperatures with
	// bookkeeping identical to the serial loop: count the attempt, accrue
	// effort, trip the budget, and either commit (line 17) or grow the
	// offenders' weights (line 20). It reports whether the session was
	// committed; a false return with nil error is a violation.
	consume := func(ps pendingSession, temps []float64) (bool, error) {
		if ps.forced {
			res.ForcedSingletons++
		}
		res.Attempts++
		sessionAttempts++
		// The attempt's length is its longest test, a max that ignores member
		// order, so discarded attempts never pay for a sorted Session.
		var length float64
		for _, c := range ps.cores {
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
			return false, &MaxAttemptsError{
				MaxAttempts: g.cfg.MaxAttempts,
				Attempts:    res.Attempts,
				Sessions:    len(res.Records),
				Unscheduled: unsched,
			}
		}
		valid := true
		sessionMax := math.Inf(-1)
		for _, c := range ps.cores {
			sessionMax = math.Max(sessionMax, temps[c])
			if temps[c] >= tl {
				weights[c] *= g.cfg.WeightGrowth // line 20
				valid = false
			}
		}
		if !valid {
			res.Violations++
			return false, nil
		}
		sess, err := schedule.NewSession(ps.cores...)
		if err != nil {
			return false, err
		}
		sched = sched.Append(sess)
		res.Records = append(res.Records, SessionRecord{
			Session:  sess,
			STC:      ps.stc,
			MaxTemp:  sessionMax,
			Attempts: sessionAttempts,
		})
		res.MaxTemp = math.Max(res.MaxTemp, sessionMax)
		sessionAttempts = 0
		for _, c := range ps.cores {
			remaining[c] = false
		}
		left -= len(ps.cores)
		g.progress(ProgressInfo{
			Phase:          2,
			Sessions:       len(res.Records),
			CoresScheduled: n - left,
			CoresTotal:     n,
			Attempts:       res.Attempts,
			Violations:     res.Violations,
		})
		return true, nil
	}

	for left > 0 {
		if err := g.interrupted(); err != nil {
			return nil, err
		}
		// Build the candidate session — and, when batch-validating, the
		// whole optimistic chain of follow-on sessions it unlocks (weights
		// only change on a violation, so the chain is exact until one).
		chain, err := g.buildChain(builder, order, remaining, weights,
			&remScratch, &chainScratch, speculate)
		if err != nil {
			return nil, err
		}
		// The chain head is validated on its own: right after a weight
		// change it is the likeliest candidate of the whole run to violate,
		// and spending one plain query on it means a violation streak never
		// discards a speculative batch. The tail — the low-risk follow-ons —
		// is what rides the blocked multi-RHS pass.
		temps, err := g.oracle.BlockTemps(chain[0].cores)
		if err != nil {
			return nil, fmt.Errorf("core: session simulation: %w", err)
		}
		ok, err := consume(chain[0], temps)
		if err != nil {
			return nil, err
		}
		if !ok || len(chain) == 1 {
			continue // line 9: rebuild from scratch (or chain exhausted)
		}
		tail := make([][]int, len(chain)-1)
		for i := range tail {
			tail[i] = chain[i+1].cores
		}
		// A whole-batch error is not attributable to one session; discard
		// the batch so the loop below re-queries per session, which
		// reproduces the serial error at the session the serial run would
		// have failed on (the oracle is deterministic). The length check
		// guards against an implementation returning a short result
		// alongside its error.
		batched, berr := batch.BlockTempsBatch(tail)
		if berr != nil || len(batched) != len(tail) {
			batched = nil
		}
		for i := 1; i < len(chain); i++ {
			var t []float64
			if batched != nil {
				t = batched[i-1]
			} else if t, err = g.oracle.BlockTemps(chain[i].cores); err != nil {
				return nil, fmt.Errorf("core: session simulation: %w", err)
			}
			ok, err := consume(chain[i], t)
			if err != nil {
				return nil, err
			}
			if !ok {
				break // discard the rest: it was built under stale weights
			}
		}
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

// runPhase1 fills bcmt with each core's solo steady-state temperature,
// fanning the independent simulations across Config.Phase1Workers
// goroutines (0 → GOMAXPROCS). On failure the lowest-index error is
// reported, matching the serial loop.
func (g *Generator) runPhase1(n int, bcmt []float64) error {
	if g.cfg.BatchValidate {
		if batch, ok := g.oracle.(BatchOracle); ok {
			sessions := make([][]int, n)
			for i := range sessions {
				sessions[i] = []int{i}
			}
			if temps, err := batch.BlockTempsBatch(sessions); err == nil {
				for i, t := range temps {
					bcmt[i] = t[i]
				}
				return nil
			}
			// On a batch error fall through: the sweep reruns the solo
			// simulations one at a time and reports the lowest-index error,
			// exactly like a serial run.
		}
	}
	workers := g.cfg.Phase1Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	temps, err := conc.Sweep(workers, n, func(i int) (float64, error) {
		field, err := g.oracle.BlockTemps([]int{i})
		if err != nil {
			return 0, fmt.Errorf("core: phase-1 simulation of core %d: %w", i, err)
		}
		return field[i], nil
	})
	if err != nil {
		return err
	}
	copy(bcmt, temps)
	return nil
}

// pendingSession is one built-but-not-yet-validated session: an owned copy of
// its core set, its weighted STC at build time, and whether the liveness
// guard forced it to a singleton.
type pendingSession struct {
	cores  []int
	stc    float64
	forced bool
}

// buildChain builds the next candidate session for the current (remaining,
// weights) state — and, when speculate is set, the entire chain of follow-on
// sessions that would be built if every one of them validates. The chain is
// exact, not a guess: weights only change when a validation fails, so until
// the first violation the serial loop would construct precisely these
// sessions. remScratch and chainScratch are reused across iterations; the
// serial (non-speculative) path allocates nothing — its single chain entry
// aliases the builder, valid until the next buildSession call, preserving the
// allocation-free hot loop the incremental session builder bought.
func (g *Generator) buildChain(b *sessionBuilder, order []int, remaining []bool,
	weights []float64, remScratch *[]bool, chainScratch *[]pendingSession,
	speculate bool) ([]pendingSession, error) {
	chain := (*chainScratch)[:0]
	if !speculate {
		session, stc, forcedOne, err := g.buildSession(b, order, remaining, weights)
		if err != nil {
			return nil, err
		}
		chain = append(chain, pendingSession{cores: session, stc: stc, forced: forcedOne})
		*chainScratch = chain
		return chain, nil
	}
	rem := *remScratch
	if cap(rem) < len(remaining) {
		rem = make([]bool, len(remaining))
	}
	rem = rem[:len(remaining)]
	copy(rem, remaining)
	*remScratch = rem
	left := 0
	for _, r := range rem {
		if r {
			left++
		}
	}
	for left > 0 {
		session, stc, forcedOne, err := g.buildSession(b, order, rem, weights)
		if err != nil {
			return nil, err
		}
		cores := append([]int(nil), session...)
		chain = append(chain, pendingSession{cores: cores, stc: stc, forced: forcedOne})
		for _, c := range cores {
			rem[c] = false
		}
		left -= len(cores)
	}
	*chainScratch = chain
	return chain, nil
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
