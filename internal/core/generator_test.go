package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/schedule"
	"repro/internal/testspec"
	"repro/internal/thermal"
)

// fakeOracle returns scripted temperatures: a base solo temperature per core
// plus a coupling penalty per additional active core. It lets the generator's
// control flow be tested without thermal simulation.
type fakeOracle struct {
	solo     []float64
	coupling float64
	ambient  float64
}

func (f *fakeOracle) BlockTemps(active []int) ([]float64, error) {
	temps := make([]float64, len(f.solo))
	for i := range temps {
		temps[i] = f.ambient
	}
	for _, c := range active {
		temps[c] = f.solo[c] + f.coupling*float64(len(active)-1)
	}
	return temps, nil
}

// failingOracle errors on the k-th call. The counter is atomic because a
// batch path may query the oracle from multiple goroutines.
type failingOracle struct {
	inner Oracle
	after int64
	calls atomic.Int64
}

func (f *failingOracle) BlockTemps(active []int) ([]float64, error) {
	if f.calls.Add(1) > f.after {
		return nil, errors.New("synthetic oracle failure")
	}
	return f.inner.BlockTemps(active)
}

func alphaGenSetup(t *testing.T) (*testspec.Spec, *SessionModel, Oracle) {
	t.Helper()
	spec := testspec.Alpha21364()
	m, err := thermal.NewModel(spec.Floorplan(), thermal.DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewSessionModel(m, spec.Profile(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return spec, sm, NewSimOracle(m, spec.Profile())
}

func TestConfigValidation(t *testing.T) {
	spec, sm, oracle := alphaGenSetup(t)
	cases := []Config{
		{TL: 0, STCL: 50},
		{TL: 150, STCL: 0},
		{TL: 150, STCL: 50, WeightGrowth: 0.9},
		{TL: 150, STCL: 50, WeightGrowth: 1},
		{TL: 150, STCL: 50, MaxAttempts: -1},
	}
	for i, cfg := range cases {
		if _, err := NewGenerator(spec, sm, oracle, cfg); !errors.Is(err, ErrCore) {
			t.Errorf("case %d: err = %v, want ErrCore", i, err)
		}
	}
	if _, err := NewGenerator(spec, sm, nil, Config{TL: 150, STCL: 50}); !errors.Is(err, ErrCore) {
		t.Errorf("nil oracle: err = %v, want ErrCore", err)
	}
	// Mismatched spec/session model.
	other := testspec.Figure1()
	if _, err := NewGenerator(other, sm, oracle, Config{TL: 150, STCL: 50}); !errors.Is(err, ErrCore) {
		t.Errorf("mismatched sizes: err = %v, want ErrCore", err)
	}
}

func TestGenerateProducesValidSchedule(t *testing.T) {
	spec, sm, oracle := alphaGenSetup(t)
	for _, cfg := range []Config{
		{TL: 145, STCL: 20},
		{TL: 165, STCL: 50},
		{TL: 185, STCL: 100},
	} {
		res, err := Generate(spec, sm, oracle, cfg)
		if err != nil {
			t.Fatalf("Generate(%+v): %v", cfg, err)
		}
		if err := res.Schedule.Validate(spec); err != nil {
			t.Errorf("invalid schedule for %+v: %v", cfg, err)
		}
		// Thermal safety: every committed session's simulated max is < TL.
		for _, rec := range res.Records {
			if rec.MaxTemp >= cfg.TL {
				t.Errorf("committed session at %.2f °C >= TL %.0f", rec.MaxTemp, cfg.TL)
			}
		}
		if res.MaxTemp >= cfg.TL {
			t.Errorf("result MaxTemp %.2f >= TL %.0f", res.MaxTemp, cfg.TL)
		}
		// Effort bookkeeping: effort = attempts seconds (1 s sessions), and
		// attempts = violations + committed sessions.
		if res.Attempts != res.Violations+res.Schedule.NumSessions() {
			t.Errorf("attempts %d != violations %d + sessions %d",
				res.Attempts, res.Violations, res.Schedule.NumSessions())
		}
		if math.Abs(res.Effort-float64(res.Attempts)) > 1e-9 {
			t.Errorf("effort %g != attempts %d for 1 s tests", res.Effort, res.Attempts)
		}
		if res.Effort < res.Length {
			t.Errorf("effort %g < length %g", res.Effort, res.Length)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, sm, oracle := alphaGenSetup(t)
	cfg := Config{TL: 155, STCL: 60}
	a, err := Generate(spec, sm, oracle, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec, sm, oracle, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Schedule.Describe(spec) != b.Schedule.Describe(spec) {
		t.Error("same config produced different schedules")
	}
	if a.Effort != b.Effort || a.Violations != b.Violations {
		t.Error("same config produced different effort accounting")
	}
}

func TestBCMTViolationReported(t *testing.T) {
	spec, sm, oracle := alphaGenSetup(t)
	// TL below every solo temperature: phase 1 must fail and name cores.
	_, err := Generate(spec, sm, oracle, Config{TL: 60, STCL: 50})
	var bv *BCMTViolationError
	if !errors.As(err, &bv) {
		t.Fatalf("err = %v, want BCMTViolationError", err)
	}
	if len(bv.Cores) == 0 || len(bv.Names) != len(bv.Cores) || len(bv.Temps) != len(bv.Cores) {
		t.Errorf("violation payload inconsistent: %+v", bv)
	}
	if !errors.Is(err, ErrBCMT) {
		t.Error("BCMTViolationError should match ErrBCMT")
	}
	if !strings.Contains(err.Error(), "TL=60") {
		t.Errorf("message should mention TL: %q", err.Error())
	}
}

func TestAutoRaiseTL(t *testing.T) {
	spec, sm, oracle := alphaGenSetup(t)
	res, err := Generate(spec, sm, oracle, Config{TL: 60, STCL: 50, AutoRaiseTL: true})
	if err != nil {
		t.Fatalf("AutoRaiseTL run failed: %v", err)
	}
	if res.EffectiveTL <= 60 {
		t.Errorf("EffectiveTL = %g, want > 60", res.EffectiveTL)
	}
	worstBCMT := 0.0
	for _, b := range res.BCMT {
		worstBCMT = math.Max(worstBCMT, b)
	}
	if math.Abs(res.EffectiveTL-(worstBCMT+1)) > 1e-9 {
		t.Errorf("EffectiveTL = %g, want worst BCMT + 1 = %g", res.EffectiveTL, worstBCMT+1)
	}
	if err := res.Schedule.Validate(spec); err != nil {
		t.Error(err)
	}
}

func TestWeightsGrowOnlyOnViolation(t *testing.T) {
	// Scripted oracle: solo temps safe, coupling strong enough that pairs
	// violate. After the run every core must be alone, and weights of cores
	// that were ever in a violating session must exceed 1.
	spec, sm, _ := alphaGenSetup(t)
	n := spec.NumCores()
	solo := make([]float64, n)
	for i := range solo {
		solo[i] = 100
	}
	oracle := &fakeOracle{solo: solo, coupling: 100, ambient: 45}
	res, err := Generate(spec, sm, oracle, Config{TL: 150, STCL: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	// With pair coupling +100 every multi-core session violates; final
	// schedule must be fully sequential.
	if res.Schedule.NumSessions() != n {
		t.Fatalf("NumSessions = %d, want %d (all singletons)", res.Schedule.NumSessions(), n)
	}
	if res.Violations == 0 {
		t.Error("expected violations on the way to the sequential schedule")
	}
	grew := 0
	for _, w := range res.FinalWeights {
		if w > 1 {
			grew++
		}
	}
	if grew == 0 {
		t.Error("no weights grew despite violations")
	}
}

func TestFirstTryAtVeryTightSTCL(t *testing.T) {
	// Paper claim: for very tight STCL the schedule is found on the first
	// attempt — simulation effort equals schedule length.
	spec, sm, oracle := alphaGenSetup(t)
	res, err := Generate(spec, sm, oracle, Config{TL: 185, STCL: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Errorf("violations = %d, want 0 at tight STCL and relaxed TL", res.Violations)
	}
	if math.Abs(res.Effort-res.Length) > 1e-9 {
		t.Errorf("effort %g != length %g", res.Effort, res.Length)
	}
}

func TestSTCRespectedAtBuildTime(t *testing.T) {
	// Unweighted STC of committed non-forced sessions must respect STCL.
	// (Records store the weighted STC at commit time, which also respects
	// STCL for non-forced sessions.)
	spec, sm, oracle := alphaGenSetup(t)
	cfg := Config{TL: 185, STCL: 40}
	res, err := Generate(spec, sm, oracle, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ForcedSingletons > 0 {
		t.Skip("run produced forced singletons; STC bound does not apply")
	}
	for i, rec := range res.Records {
		if rec.STC > cfg.STCL+1e-9 {
			t.Errorf("session %d committed with STC %.2f > STCL %.0f", i, rec.STC, cfg.STCL)
		}
	}
}

func TestMonotoneTLShortensSchedules(t *testing.T) {
	// Core Table-1 shape: raising TL never lengthens the schedule much; we
	// assert weak monotonicity with one session of slack (the greedy is not
	// perfectly monotone).
	spec, sm, oracle := alphaGenSetup(t)
	prev := math.Inf(1)
	for _, tl := range []float64{145, 165, 185} {
		res, err := Generate(spec, sm, oracle, Config{TL: tl, STCL: 60})
		if err != nil {
			t.Fatal(err)
		}
		if res.Length > prev+1 {
			t.Errorf("TL=%.0f produced length %.0f, more than one above previous %.0f",
				tl, res.Length, prev)
		}
		prev = math.Min(prev, res.Length)
	}
}

func TestForcedSingletonLiveness(t *testing.T) {
	// STCL below every solo STC: without the liveness guard the generator
	// would spin forever; with it, every core must be scheduled alone.
	spec, sm, oracle := alphaGenSetup(t)
	res, err := Generate(spec, sm, oracle, Config{TL: 185, STCL: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.NumSessions() != spec.NumCores() {
		t.Errorf("NumSessions = %d, want %d singletons", res.Schedule.NumSessions(), spec.NumCores())
	}
	if res.ForcedSingletons != spec.NumCores() {
		t.Errorf("ForcedSingletons = %d, want %d", res.ForcedSingletons, spec.NumCores())
	}
	if err := res.Schedule.Validate(spec); err != nil {
		t.Error(err)
	}
}

func TestOracleErrorsPropagate(t *testing.T) {
	spec, sm, oracle := alphaGenSetup(t)
	// Failure during phase 1.
	_, err := Generate(spec, sm, &failingOracle{inner: oracle, after: 3}, Config{TL: 185, STCL: 50})
	if err == nil || !strings.Contains(err.Error(), "synthetic oracle failure") {
		t.Errorf("phase-1 oracle failure not propagated: %v", err)
	}
	// Failure during session validation (after 15 solo calls).
	_, err = Generate(spec, sm, &failingOracle{inner: oracle, after: 16}, Config{TL: 185, STCL: 50})
	if err == nil || !strings.Contains(err.Error(), "synthetic oracle failure") {
		t.Errorf("validation oracle failure not propagated: %v", err)
	}
}

func TestMaxAttemptsGuard(t *testing.T) {
	spec, sm, oracle := alphaGenSetup(t)
	_, err := Generate(spec, sm, oracle, Config{TL: 145, STCL: 100, MaxAttempts: 2})
	if !errors.Is(err, ErrCore) || !strings.Contains(err.Error(), "MaxAttempts") {
		t.Errorf("err = %v, want MaxAttempts guard", err)
	}
}

func TestCountingOracleMatchesAttempts(t *testing.T) {
	spec, sm, oracle := alphaGenSetup(t)
	counting := &countingOracle{Inner: oracle}
	res, err := Generate(spec, sm, counting, Config{TL: 165, STCL: 60})
	if err != nil {
		t.Fatal(err)
	}
	// Oracle calls = phase-1 solos + validation attempts.
	want := int64(spec.NumCores() + res.Attempts)
	if counting.Calls() != want {
		t.Errorf("oracle calls = %d, want %d", counting.Calls(), want)
	}
}

func TestOrderPoliciesAllProduceValidSchedules(t *testing.T) {
	spec, sm, oracle := alphaGenSetup(t)
	for _, policy := range OrderPolicies() {
		t.Run(policy.String(), func(t *testing.T) {
			res, err := Generate(spec, sm, oracle, Config{TL: 165, STCL: 60, Order: policy})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Schedule.Validate(spec); err != nil {
				t.Error(err)
			}
		})
	}
	if _, err := Generate(spec, sm, oracle, Config{TL: 165, STCL: 60, Order: OrderPolicy(99)}); !errors.Is(err, ErrCore) {
		t.Errorf("unknown policy: err = %v, want ErrCore", err)
	}
}

func TestOrderPolicyStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range OrderPolicies() {
		s := p.String()
		if s == "" || seen[s] {
			t.Errorf("policy %d has empty or duplicate name %q", int(p), s)
		}
		seen[s] = true
	}
	if OrderPolicy(42).String() == "" {
		t.Error("unknown policy String() empty")
	}
}

func TestResultDescribe(t *testing.T) {
	spec, sm, oracle := alphaGenSetup(t)
	res, err := Generate(spec, sm, oracle, Config{TL: 165, STCL: 60})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Describe(spec)
	for _, want := range []string{"TL=165", "length", "effort", "TS1"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
}

func TestBCMTRecorded(t *testing.T) {
	spec, sm, oracle := alphaGenSetup(t)
	res, err := Generate(spec, sm, oracle, Config{TL: 185, STCL: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BCMT) != spec.NumCores() {
		t.Fatalf("BCMT length %d", len(res.BCMT))
	}
	for i, b := range res.BCMT {
		if b <= 45 || b >= 185 {
			t.Errorf("BCMT[%d] = %g outside (ambient, TL)", i, b)
		}
	}
}

func ExampleGenerate() {
	spec := testspec.Alpha21364()
	m, err := thermal.NewModel(spec.Floorplan(), thermal.DefaultPackageConfig())
	if err != nil {
		panic(err)
	}
	sm, err := NewSessionModel(m, spec.Profile(), 0)
	if err != nil {
		panic(err)
	}
	res, err := Generate(spec, sm, NewSimOracle(m, spec.Profile()), Config{TL: 185, STCL: 20})
	if err != nil {
		panic(err)
	}
	fmt.Printf("sessions=%d safe=%v\n", res.Schedule.NumSessions(), res.MaxTemp < 185)
	// Output: sessions=6 safe=true
}

func TestNewTransientOracleValidation(t *testing.T) {
	spec := testspec.Alpha21364()
	m, err := thermal.NewModel(spec.Floorplan(), thermal.DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTransientOracle(m, spec.Profile(), 0, 0); !errors.Is(err, ErrCore) {
		t.Errorf("zero duration: err = %v, want ErrCore", err)
	}
	if _, err := NewTransientOracle(m, spec.Profile(), 1, -1); !errors.Is(err, ErrCore) {
		t.Errorf("negative step: err = %v, want ErrCore", err)
	}
	oracle, err := NewTransientOracle(m, spec.Profile(), 1, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.BlockTemps([]int{999}); err == nil {
		t.Error("out-of-range core should fail")
	}
	// A valid query is strictly cooler than the steady-state bound.
	steady := NewSimOracle(m, spec.Profile())
	ts, err := oracle.BlockTemps([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := steady.BlockTemps([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !(ts[0] < ss[0]) {
		t.Errorf("1 s transient %.2f not below steady bound %.2f", ts[0], ss[0])
	}
}

// batchSpyOracle wraps a BatchOracle and records how the generator queried
// it, so tests can assert the batched path actually engaged.
type batchSpyOracle struct {
	inner      BatchOracle
	single     atomic.Int64
	batches    atomic.Int64
	batchedSes atomic.Int64
	firstBatch [][]int
}

func (b *batchSpyOracle) BlockTemps(active []int) ([]float64, error) {
	b.single.Add(1)
	return b.inner.BlockTemps(active)
}

func (b *batchSpyOracle) BlockTempsBatch(sessions [][]int) ([][]float64, error) {
	if b.batches.Add(1) == 1 {
		b.firstBatch = sessions
	}
	b.batchedSes.Add(int64(len(sessions)))
	return b.inner.BlockTempsBatch(sessions)
}

func TestPhase1OneBatchCall(t *testing.T) {
	// A BatchOracle gets all n solos, in core order, in one BlockTempsBatch
	// call, and no single query; the result matches a plain oracle's
	// core-order loop exactly.
	spec, sm, oracle := alphaGenSetup(t)
	n := spec.NumCores()
	plain, err := Generate(spec, sm, &recordingOracle{inner: oracle}, Config{TL: 165, STCL: 60})
	if err != nil {
		t.Fatal(err)
	}
	spy := &batchSpyOracle{inner: oracle.(BatchOracle)}
	cfg := Config{TL: 165, STCL: 60}
	var single, batches, batched int64 = -1, -1, -1
	cfg.Progress = func(p ProgressInfo) {
		if p.Phase == 1 {
			single, batches, batched = spy.single.Load(), spy.batches.Load(), spy.batchedSes.Load()
		}
	}
	res, err := Generate(spec, sm, spy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if single != 0 || batches != 1 || batched != int64(n) {
		t.Errorf("phase 1 issued %d single queries and %d batches of %d sessions, want 0, 1 and %d",
			single, batches, batched, n)
	}
	if got := spy.firstBatch; len(got) != n {
		t.Errorf("first batch has %d sessions, want %d", len(got), n)
	} else {
		for i, s := range got {
			if len(s) != 1 || s[0] != i {
				t.Errorf("first batch session %d = %v, want [%d]", i, s, i)
			}
		}
	}
	if got := spy.batches.Load(); got != 1 {
		t.Errorf("run issued %d batches, want phase 1's one", got)
	}
	if !reflect.DeepEqual(res, plain) {
		t.Error("result differs from the plain oracle's")
	}
}

// soloFailOracle fails the solo query of every core in bad, so phase 1 has
// more than one failure and must report the lowest-index one.
type soloFailOracle struct {
	inner Oracle
	bad   map[int]bool
}

func (f *soloFailOracle) BlockTemps(active []int) ([]float64, error) {
	if len(active) == 1 && f.bad[active[0]] {
		return nil, fmt.Errorf("solo %d broken", active[0])
	}
	return f.inner.BlockTemps(active)
}

// soloFailBatchOracle adds a batch path that fails wholesale, naming no core.
type soloFailBatchOracle struct{ soloFailOracle }

func (f *soloFailBatchOracle) BlockTempsBatch([][]int) ([][]float64, error) {
	return nil, errors.New("whole batch failed")
}

func TestPhase1LowestIndexError(t *testing.T) {
	spec, sm, oracle := alphaGenSetup(t)
	plain := soloFailOracle{inner: oracle, bad: map[int]bool{7: true, 3: true, 11: true}}
	for name, o := range map[string]Oracle{
		"plain":        &plain,
		"failed batch": &soloFailBatchOracle{plain},
		"memo":         NewCachedOracle(&plain),
	} {
		_, err := Generate(spec, sm, o, Config{TL: 165, STCL: 60})
		want := "core: phase-1 simulation of core 3: solo 3 broken"
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", name, err, want)
		}
	}
}

func TestMaxAttemptsStructuredError(t *testing.T) {
	spec, sm, oracle := alphaGenSetup(t)
	_, err := Generate(spec, sm, oracle, Config{TL: 145, STCL: 100, MaxAttempts: 2})
	var mae *MaxAttemptsError
	if !errors.As(err, &mae) {
		t.Fatalf("err = %v (%T), want *MaxAttemptsError", err, err)
	}
	if !errors.Is(err, ErrCore) {
		t.Error("MaxAttemptsError must keep matching ErrCore")
	}
	if mae.MaxAttempts != 2 || mae.Attempts != 3 {
		t.Errorf("budget fields = (%d max, %d spent), want (2, 3)", mae.MaxAttempts, mae.Attempts)
	}
	if len(mae.Unscheduled) == 0 || len(mae.Unscheduled) > spec.NumCores() {
		t.Errorf("Unscheduled = %v, want non-empty subset of cores", mae.Unscheduled)
	}
	for i := 1; i < len(mae.Unscheduled); i++ {
		if mae.Unscheduled[i-1] >= mae.Unscheduled[i] {
			t.Errorf("Unscheduled not ascending: %v", mae.Unscheduled)
		}
	}
	if mae.Sessions < 0 || mae.Sessions >= spec.NumCores() {
		t.Errorf("Sessions = %d out of range", mae.Sessions)
	}
	for _, want := range []string{"MaxAttempts=2", "3 attempts", "unscheduled"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// recordingOracle logs every session it is asked about, in call order.
type recordingOracle struct {
	inner    Oracle
	sessions [][]int
}

func (r *recordingOracle) BlockTemps(active []int) ([]float64, error) {
	r.sessions = append(r.sessions, append([]int(nil), active...))
	return r.inner.BlockTemps(active)
}

// TestEffortSumOverQueriedSessions: with distinct test lengths, Effort is the
// in-order sum of the longest test of every phase-2 session the oracle was
// asked about — discarded violations included.
func TestEffortSumOverQueriedSessions(t *testing.T) {
	alpha, sm, sim := alphaGenSetup(t)
	n := alpha.NumCores()
	lengths := make([]float64, n)
	for i := range lengths {
		lengths[i] = 0.5 + float64((i*5)%7)
	}
	spec, err := testspec.New("alpha-lengths", alpha.Profile(), lengths)
	if err != nil {
		t.Fatal(err)
	}
	solo := make([]float64, n)
	for i := range solo {
		solo[i] = 100
	}
	for _, tc := range []struct {
		name   string
		oracle Oracle
		cfg    Config
	}{
		{"sim", sim, Config{TL: 145, STCL: 100}},
		{"pairs violate", &fakeOracle{solo: solo, coupling: 100, ambient: 45}, Config{TL: 150, STCL: 1e6}},
	} {
		rec := &recordingOracle{inner: tc.oracle}
		res, err := Generate(spec, sm, rec, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		phase2 := rec.sessions[n:]
		if len(phase2) != res.Attempts || res.Violations == 0 {
			t.Fatalf("%s: %d phase-2 queries, %d attempts, %d violations; want equal counts and violations",
				tc.name, len(phase2), res.Attempts, res.Violations)
		}
		var want float64
		for _, s := range phase2 {
			var longest float64
			for _, c := range s {
				longest = math.Max(longest, lengths[c])
			}
			want += longest
		}
		if math.Float64bits(res.Effort) != math.Float64bits(want) {
			t.Errorf("%s: Effort = %v, want %v", tc.name, res.Effort, want)
		}
		if res.Effort == float64(res.Attempts) {
			t.Errorf("%s: Effort equals Attempts; lengths should tell them apart", tc.name)
		}
	}
}

// poisonOracle overwrites core's temperature with val in every session of at
// least minSize cores that has core active.
type poisonOracle struct {
	inner   Oracle
	core    int
	minSize int
	val     float64
}

func (p *poisonOracle) BlockTemps(active []int) ([]float64, error) {
	temps, err := p.inner.BlockTemps(active)
	if err != nil || len(active) < p.minSize || !slices.Contains(active, p.core) {
		return temps, err
	}
	temps = slices.Clone(temps) // an answer is read-only
	temps[p.core] = p.val
	return temps, nil
}

func TestNonFiniteTemperatureRejected(t *testing.T) {
	// Claim C1 must not rest on a comparison NaN fails: a NaN or ±Inf
	// temperature at an active core is an error naming the core and the
	// session, never a committed (or AutoRaiseTL-raised) schedule.
	spec, sm, oracle := alphaGenSetup(t)
	for _, tc := range []struct {
		name    string
		minSize int
		val     float64
		want    string
	}{
		{"phase 1 NaN", 1, math.NaN(), "phase-1 simulation gave core 0 (" + spec.Test(0).Name + ") a non-finite temperature NaN in session [0]"},
		{"phase 1 +Inf", 1, math.Inf(1), "phase-1 simulation gave core 0"},
		{"phase 2 NaN", 2, math.NaN(), "phase-2 simulation gave core 0"},
		{"phase 2 -Inf", 2, math.Inf(-1), "phase-2 simulation gave core 0 (" + spec.Test(0).Name + ") a non-finite temperature -Inf in session ["},
	} {
		poison := &poisonOracle{inner: oracle, core: 0, minSize: tc.minSize, val: tc.val}
		for _, o := range []Oracle{poison, NewCachedOracle(poison)} {
			for _, cfg := range []Config{
				{TL: 165, STCL: 60},
				{TL: 165, STCL: 60, AutoRaiseTL: true},
			} {
				res, err := Generate(spec, sm, o, cfg)
				if res != nil || !errors.Is(err, ErrCore) || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s (%T, %+v): res = %v, err = %v; want nil and ErrCore containing %q",
						tc.name, o, cfg, res, err, tc.want)
				}
			}
		}
	}
}

// randomGenSetup builds a seeded random SoC of n cores shaped like the
// scaling experiment's: 0.2–0.9 W/mm² functional power, tests 1.5–7× that
// and at most 2.6 W/mm².
func randomGenSetup(t *testing.T, n int, seed int64) (*testspec.Spec, *SessionModel, Oracle) {
	t.Helper()
	fp, err := floorplan.Random(floorplan.RandomOptions{Blocks: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	functional := make([]float64, n)
	factors := make([]float64, n)
	for i := range functional {
		density := (0.2 + 0.7*rng.Float64()) * 1e6
		functional[i] = density * fp.Block(i).Area()
		factors[i] = math.Max(1.5, math.Min(2.5+4.5*rng.Float64(), 2.6e6/density))
	}
	prof, err := power.FromFactors(fp, functional, factors)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := testspec.UniformLength(fmt.Sprintf("random-%d-%d", n, seed), prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := thermal.NewModel(fp, thermal.DefaultPackageConfig())
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewSessionModel(m, prof, 0)
	if err != nil {
		t.Fatal(err)
	}
	return spec, sm, NewSimOracle(m, prof)
}

// rebuildEveryAttempt is Run with line 9 taken literally: every phase-2
// attempt rebuilds its candidate from scratch. It returns how many of those
// rebuilds returned the previous attempt's candidate, which Run reuses
// instead.
func rebuildEveryAttempt(g *Generator) (*Result, int, error) {
	n := g.spec.NumCores()
	res := &Result{BCMT: make([]float64, n), EffectiveTL: g.cfg.TL, FinalWeights: make([]float64, n)}
	if err := g.runPhase1(n, res.BCMT); err != nil {
		return nil, 0, err
	}
	var violation BCMTViolationError
	for i, t := range res.BCMT {
		if t >= g.cfg.TL {
			violation.Cores = append(violation.Cores, i)
			violation.Names = append(violation.Names, g.spec.Test(i).Name)
			violation.Temps = append(violation.Temps, t)
		}
	}
	if len(violation.Cores) > 0 {
		if !g.cfg.AutoRaiseTL {
			violation.TL = g.cfg.TL
			return nil, 0, &violation
		}
		res.EffectiveTL = slices.Max(violation.Temps) + 1
	}
	tl := res.EffectiveTL
	g.progress(ProgressInfo{Phase: 1, CoresTotal: n})

	weights := make([]float64, n)
	remaining := make([]bool, n)
	for i := range weights {
		weights[i], remaining[i] = 1, true
	}
	left := n
	order, err := candidateOrder(g.cfg.Order, g.spec, g.sm)
	if err != nil {
		return nil, 0, err
	}
	sched := schedule.New()
	builder := newSessionBuilder(g.sm)
	sessionAttempts, sameAsPrev := 0, 0
	var prev []int
	for left > 0 {
		session, stc, forced, err := g.buildSession(builder, order, remaining, weights)
		if err != nil {
			return nil, 0, err
		}
		if slices.Equal(session, prev) {
			sameAsPrev++
		}
		temps, err := g.oracle.BlockTemps(session)
		if err != nil {
			return nil, 0, err
		}
		if forced {
			res.ForcedSingletons++
		}
		res.Attempts++
		sessionAttempts++
		var length float64
		for _, c := range session {
			length = math.Max(length, g.spec.Test(c).Length)
		}
		res.Effort += length
		valid := true
		sessionMax := math.Inf(-1)
		for _, c := range session {
			sessionMax = math.Max(sessionMax, temps[c])
			if temps[c] >= tl {
				weights[c] *= g.cfg.WeightGrowth
				valid = false
			}
		}
		if !valid {
			res.Violations++
			prev = slices.Clone(session)
			continue
		}
		prev = nil
		sess, err := schedule.NewSession(session...)
		if err != nil {
			return nil, 0, err
		}
		sched = sched.Append(sess)
		res.Records = append(res.Records, SessionRecord{Session: sess, STC: stc, MaxTemp: sessionMax, Attempts: sessionAttempts})
		res.MaxTemp = math.Max(res.MaxTemp, sessionMax)
		sessionAttempts = 0
		for _, c := range session {
			remaining[c] = false
		}
		left -= len(session)
		g.progress(ProgressInfo{Phase: 2, Sessions: len(res.Records), CoresScheduled: n - left,
			CoresTotal: n, Attempts: res.Attempts, Violations: res.Violations})
	}
	res.Schedule = sched
	res.Length = sched.Length(g.spec)
	copy(res.FinalWeights, weights)
	return res, sameAsPrev, nil
}

// resultFloatBits lists every float of a Result as its bits, in a fixed
// order, so two results can be compared bit for bit (reflect.DeepEqual
// takes 0 == -0).
func resultFloatBits(r *Result) []uint64 {
	fs := []float64{r.Length, r.Effort, r.MaxTemp, r.EffectiveTL}
	fs = append(append(fs, r.BCMT...), r.FinalWeights...)
	for _, rec := range r.Records {
		fs = append(fs, rec.STC, rec.MaxTemp)
	}
	bits := make([]uint64, len(fs))
	for i, f := range fs {
		bits[i] = math.Float64bits(f)
	}
	return bits
}

// coolingOracle answers a session 0.5 °C cooler each time it is asked
// again. Against a deterministic oracle a reused candidate always violates
// again; this one lets it commit, so its recorded STC is observable.
type coolingOracle struct {
	inner Oracle
	asked map[string]int
}

func (o *coolingOracle) BlockTemps(active []int) ([]float64, error) {
	temps, err := o.inner.BlockTemps(active)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprint(active)
	temps = slices.Clone(temps) // an answer is read-only
	for _, c := range active {
		temps[c] -= 0.5 * float64(o.asked[key])
	}
	o.asked[key]++
	return temps, nil
}

// recordedRun is one generator run seen from outside: its result, the
// sessions it asked the oracle about, its progress snapshots, and for the
// reference loop how many rebuilds returned the previous candidate.
type recordedRun struct {
	res      *Result
	queries  [][]int
	progress []ProgressInfo
	repeats  int
}

// runRecorded runs Run, or rebuildEveryAttempt when reference is set,
// against oracle under cfg.
func runRecorded(t *testing.T, name string, spec *testspec.Spec, sm *SessionModel,
	oracle Oracle, cfg Config, reference bool) recordedRun {
	t.Helper()
	rec := &recordingOracle{inner: oracle}
	var out recordedRun
	cfg.Progress = func(p ProgressInfo) { out.progress = append(out.progress, p) }
	g, err := NewGenerator(spec, sm, rec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reference {
		out.res, out.repeats, err = rebuildEveryAttempt(g)
	} else {
		out.res, err = g.Run()
	}
	if err != nil {
		t.Fatalf("%s (reference %v): %v", name, reference, err)
	}
	out.queries = rec.sessions
	return out
}

// TestGeneratorMatchesRebuildEveryAttempt: reusing a candidate the scan
// would rebuild changes nothing observable. Over 24 seeded random SoCs × 3
// STCLs, with and without AutoRaiseTL, and with a deterministic and a
// cooling oracle, Run and a loop that rebuilds on every attempt ask the
// oracle the same sessions in the same order, report the same progress and
// return the same Result, floats bit for bit.
func TestGeneratorMatchesRebuildEveryAttempt(t *testing.T) {
	sizes := []int{10, 20, 40, 80}
	skipped := 0
	for seed := int64(1); seed <= 24; seed++ {
		spec, sm, sim := randomGenSetup(t, sizes[seed%4], seed)
		var bcmtMax float64
		bcmt := make([]float64, spec.NumCores())
		for i := range bcmt {
			temps, err := sim.BlockTemps([]int{i})
			if err != nil {
				t.Fatal(err)
			}
			bcmt[i] = temps[i]
			bcmtMax = math.Max(bcmtMax, temps[i])
		}
		slices.Sort(bcmt)
		for _, stcl := range []float64{30, 60, 100} {
			for _, cfg := range []Config{
				{TL: bcmtMax + 3, STCL: stcl},
				{TL: bcmt[len(bcmt)/2], STCL: stcl, AutoRaiseTL: true},
			} {
				for _, cooling := range []bool{false, true} {
					name := fmt.Sprintf("seed %d, %d cores, STCL %g, AutoRaiseTL %v, cooling %v",
						seed, spec.NumCores(), stcl, cfg.AutoRaiseTL, cooling)
					newOracle := func() Oracle {
						if cooling {
							return &coolingOracle{inner: sim, asked: map[string]int{}}
						}
						return sim
					}
					got := runRecorded(t, name, spec, sm, newOracle(), cfg, false)
					want := runRecorded(t, name, spec, sm, newOracle(), cfg, true)
					skipped += want.repeats
					if !reflect.DeepEqual(got.queries, want.queries) {
						t.Fatalf("%s: oracle queries differ:\n got %v\nwant %v", name, got.queries, want.queries)
					}
					if !reflect.DeepEqual(got.progress, want.progress) {
						t.Fatalf("%s: progress differs:\n got %v\nwant %v", name, got.progress, want.progress)
					}
					if !reflect.DeepEqual(got.res, want.res) || !slices.Equal(resultFloatBits(got.res), resultFloatBits(want.res)) {
						t.Fatalf("%s: results differ:\n got %+v\nwant %+v", name, got.res, want.res)
					}
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no attempt rebuilt its previous candidate; the reuse path went unexercised")
	}
	t.Logf("%d rebuilds returned the previous candidate", skipped)
}
