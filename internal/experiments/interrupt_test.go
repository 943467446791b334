package experiments

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/testspec"
)

// TestGenerateInterruptMidRun: an Interrupt hook that starts failing after a
// few polls aborts the generator between candidate simulations — the error
// wraps both core.ErrInterrupted and the hook's cause, the work simulated
// before the abort stays memoized, and a clean rerun finishes from that warm
// state.
func TestGenerateInterruptMidRun(t *testing.T) {
	env, err := NewEnv(testspec.Alpha21364())
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	cfg := core.Config{TL: 165, STCL: 60}
	cfg.Interrupt = func() error {
		calls++
		if calls > 5 {
			return context.DeadlineExceeded
		}
		return nil
	}
	_, genErr := env.Generate(cfg)
	if genErr == nil {
		t.Fatal("generation with a failing Interrupt hook succeeded")
	}
	if !errors.Is(genErr, core.ErrInterrupted) {
		t.Errorf("error does not wrap core.ErrInterrupted: %v", genErr)
	}
	if !errors.Is(genErr, context.DeadlineExceeded) {
		t.Errorf("error does not wrap the hook's cause: %v", genErr)
	}
	if calls <= 5 {
		t.Fatalf("interrupt hook polled %d times; generation never got past the arming threshold", calls)
	}
	_, misses := env.Oracle.Stats()
	if misses == 0 {
		t.Error("no simulations ran before the abort; the test never exercised a mid-run interrupt")
	}

	// The aborted run's simulations stay memoized: the clean rerun completes
	// and re-simulates none of them.
	res, err := env.Generate(core.Config{TL: 165, STCL: 60})
	if err != nil {
		t.Fatalf("clean rerun after interrupt: %v", err)
	}
	if len(res.Schedule.Sessions()) == 0 {
		t.Fatal("rerun produced an empty schedule")
	}
	_, missesAfter := env.Oracle.Stats()
	if missesAfter < misses {
		t.Errorf("miss counter went backwards: %d -> %d", misses, missesAfter)
	}
}

// TestGenerateContextCancelled: GenerateContext wires ctx.Err as the
// interrupt hook — a cancelled context aborts generation with both
// sentinels observable.
func TestGenerateContextCancelled(t *testing.T) {
	env, err := NewEnv(testspec.Alpha21364())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, genErr := env.GenerateContext(ctx, core.Config{TL: 165, STCL: 60})
	if !errors.Is(genErr, core.ErrInterrupted) || !errors.Is(genErr, context.Canceled) {
		t.Fatalf("GenerateContext under cancelled ctx = %v, want ErrInterrupted wrapping context.Canceled", genErr)
	}
}
