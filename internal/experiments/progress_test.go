package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/testspec"
)

// TestGenerateProgressCallbacks pins the Config.Progress contract the job
// subsystem streams over SSE: exactly one phase-1 event, then one event per
// committed session with monotonically growing coverage, ending fully
// scheduled — and wiring the callback does not change the schedule.
func TestGenerateProgressCallbacks(t *testing.T) {
	env, err := NewEnv(testspec.Alpha21364())
	if err != nil {
		t.Fatal(err)
	}
	base := core.Config{TL: 165, STCL: 60}
	ref, err := env.Generate(base)
	if err != nil {
		t.Fatal(err)
	}

	var events []core.ProgressInfo
	cfg := base
	cfg.Progress = func(p core.ProgressInfo) { events = append(events, p) }
	res, err := env.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Schedule.Describe(env.Spec), ref.Schedule.Describe(env.Spec); got != want {
		t.Fatalf("Progress changed the schedule:\nref:  %s\nwith: %s", want, got)
	}

	n := env.Spec.NumCores()
	if len(events) != 1+len(res.Records) {
		t.Fatalf("got %d events, want 1 phase-1 + %d commits", len(events), len(res.Records))
	}
	first := events[0]
	if first.Phase != 1 || first.Sessions != 0 || first.CoresScheduled != 0 || first.CoresTotal != n {
		t.Fatalf("phase-1 event: %+v", first)
	}
	prevScheduled := 0
	for i, ev := range events[1:] {
		if ev.Phase != 2 || ev.CoresTotal != n {
			t.Fatalf("commit event %d: %+v", i, ev)
		}
		if ev.Sessions != i+1 {
			t.Fatalf("commit event %d has Sessions=%d", i, ev.Sessions)
		}
		if ev.CoresScheduled <= prevScheduled {
			t.Fatalf("commit event %d coverage did not grow: %d -> %d", i, prevScheduled, ev.CoresScheduled)
		}
		prevScheduled = ev.CoresScheduled
	}
	last := events[len(events)-1]
	if last.CoresScheduled != n {
		t.Fatalf("final event covers %d of %d cores", last.CoresScheduled, n)
	}
	if last.Attempts != res.Attempts || last.Violations != res.Violations {
		t.Fatalf("final event counters %+v do not match result (%d attempts, %d violations)",
			last, res.Attempts, res.Violations)
	}
}
