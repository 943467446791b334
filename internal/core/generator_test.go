package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

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

// failingOracle errors on the k-th call. The counter is atomic because the
// generator's phase-1 loop queries the oracle from multiple goroutines.
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
	counting := &CountingOracle{Inner: oracle}
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

func TestPhase1WorkersEquivalent(t *testing.T) {
	// Serial, default (GOMAXPROCS) and over-provisioned phase-1 pools must
	// produce identical results.
	spec, sm, oracle := alphaGenSetup(t)
	var ref *Result
	for _, workers := range []int{1, 0, 64} {
		res, err := Generate(spec, sm, oracle, Config{TL: 165, STCL: 60, Phase1Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Schedule.Describe(spec) != ref.Schedule.Describe(spec) {
			t.Errorf("workers=%d produced a different schedule", workers)
		}
		for i, b := range res.BCMT {
			if b != ref.BCMT[i] {
				t.Errorf("workers=%d: BCMT[%d] = %g != %g", workers, i, b, ref.BCMT[i])
			}
		}
	}
}

// batchSpyOracle wraps a BatchOracle and records how the generator queried
// it, so tests can assert the batched path actually engaged.
type batchSpyOracle struct {
	inner      BatchOracle
	single     atomic.Int64
	batches    atomic.Int64
	batchedSes atomic.Int64
}

func (b *batchSpyOracle) BlockTemps(active []int) ([]float64, error) {
	b.single.Add(1)
	return b.inner.BlockTemps(active)
}

func (b *batchSpyOracle) BlockTempsBatch(sessions [][]int) ([][]float64, error) {
	b.batches.Add(1)
	b.batchedSes.Add(int64(len(sessions)))
	return b.inner.BlockTempsBatch(sessions)
}

func TestBatchValidateByteIdenticalResults(t *testing.T) {
	// The contract of Config.BatchValidate: speculative chain construction
	// plus batched oracle calls must leave every Result field — schedule,
	// records, attempts, effort, violations, forced singletons — exactly as
	// the serial loop produces, including on violation-heavy operating
	// points where most of the speculative chain is discarded.
	spec, sm, oracle := alphaGenSetup(t)
	for _, cfg := range []Config{
		{TL: 165, STCL: 60},
		{TL: 145, STCL: 100}, // violation-heavy: chains are rebuilt repeatedly
		{TL: 185, STCL: 20},  // singleton-heavy: long chains, no violations
	} {
		serial, err := Generate(spec, sm, oracle, cfg)
		if err != nil {
			t.Fatalf("serial %+v: %v", cfg, err)
		}
		bcfg := cfg
		bcfg.BatchValidate = true
		spy := &batchSpyOracle{inner: oracle.(BatchOracle)}
		batched, err := Generate(spec, sm, spy, bcfg)
		if err != nil {
			t.Fatalf("batched %+v: %v", cfg, err)
		}
		if !reflect.DeepEqual(serial, batched) {
			t.Errorf("TL=%g STCL=%g: batched result differs from serial\nserial:  %s\nbatched: %s",
				cfg.TL, cfg.STCL, serial.Describe(spec), batched.Describe(spec))
		}
		if spy.batches.Load() == 0 {
			t.Errorf("TL=%g STCL=%g: batch path never engaged", cfg.TL, cfg.STCL)
		}
		// Through a memoizing cache as the experiment environments wire it.
		cached, err := Generate(spec, sm, NewCachedOracle(oracle), bcfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, cached) {
			t.Errorf("TL=%g STCL=%g: cached batched result differs from serial", cfg.TL, cfg.STCL)
		}
	}
}

func TestBatchValidateWithoutBatchOracleFallsBack(t *testing.T) {
	// A BatchValidate config against an oracle with no batch path must run —
	// and produce — exactly the serial flow.
	spec, sm, oracle := alphaGenSetup(t)
	solo := make([]float64, spec.NumCores())
	for i := range solo {
		solo[i] = 90 + float64(i)
	}
	fake := &fakeOracle{solo: solo, coupling: 3, ambient: 45}
	serial, err := Generate(spec, sm, fake, Config{TL: 165, STCL: 60})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Generate(spec, sm, fake, Config{TL: 165, STCL: 60, BatchValidate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, batched) {
		t.Error("BatchValidate against a plain Oracle changed the result")
	}
	_ = oracle
}

func TestBatchValidateOracleErrorMatchesSerial(t *testing.T) {
	// An oracle failure mid-run must surface the same error with and without
	// batching: the batch path falls back to per-session queries, which hit
	// the deterministic failure at the same session the serial loop does.
	spec, sm, oracle := alphaGenSetup(t)
	serialFail := &failingOracle{inner: oracle, after: 20}
	_, serialErr := Generate(spec, sm, serialFail, Config{TL: 165, STCL: 60, Phase1Workers: 1})
	if serialErr == nil {
		t.Fatal("expected serial failure")
	}
	batchFail := &failingBatchOracle{failingOracle{inner: oracle, after: 20}}
	_, batchErr := Generate(spec, sm, batchFail,
		Config{TL: 165, STCL: 60, Phase1Workers: 1, BatchValidate: true})
	if batchErr == nil {
		t.Fatal("expected batched failure")
	}
	if serialErr.Error() != batchErr.Error() {
		t.Errorf("batched error %q differs from serial %q", batchErr, serialErr)
	}
}

// failingBatchOracle exposes a batch path whose calls fail wholesale once the
// inner budget is exhausted, forcing the generator's per-session fallback.
type failingBatchOracle struct{ failingOracle }

func (f *failingBatchOracle) BlockTempsBatch(sessions [][]int) ([][]float64, error) {
	out := make([][]float64, len(sessions))
	for i, s := range sessions {
		temps, err := f.BlockTemps(s)
		if err != nil {
			return nil, err
		}
		out[i] = temps
	}
	return out, nil
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
		tc.cfg.Phase1Workers = 1
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
