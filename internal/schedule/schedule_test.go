package schedule

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/testspec"
)

func TestNewSession(t *testing.T) {
	s, err := NewSession(3, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Cores()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("Cores = %v, want [1 2 3]", got)
	}
	if _, err := NewSession(); !errors.Is(err, ErrEmptySession) {
		t.Errorf("empty session: err = %v, want ErrEmptySession", err)
	}
	if _, err := NewSession(1, 1); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate: err = %v, want ErrDuplicate", err)
	}
}

func TestMustSessionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSession with duplicates should panic")
		}
	}()
	MustSession(1, 1)
}

func TestSessionOps(t *testing.T) {
	s := MustSession(3, 1)
	if s.Size() != 2 {
		t.Errorf("Size = %d, want 2", s.Size())
	}
	if s.String() != "{1,3}" {
		t.Errorf("String = %q", s.String())
	}
	// Cores() must be a copy.
	s.Cores()[0] = 99
	if s.Cores()[0] != 1 {
		t.Error("Cores() leaks internal state")
	}
}

func TestSessionMetrics(t *testing.T) {
	spec := testspec.Alpha21364()
	s := MustSession(0, 1, 2)
	if got := s.Length(spec); got != 1 {
		t.Errorf("Length = %g, want 1 (uniform 1 s tests)", got)
	}
	wantP := spec.Test(0).Power + spec.Test(1).Power + spec.Test(2).Power
	if got := s.Power(spec); math.Abs(got-wantP) > 1e-9 {
		t.Errorf("Power = %g, want %g", got, wantP)
	}
	names := s.Names(spec)
	if len(names) != 3 || names[0] != spec.Test(0).Name {
		t.Errorf("Names = %v", names)
	}
}

func TestScheduleMetricsAndValidate(t *testing.T) {
	spec := testspec.Alpha21364()
	n := spec.NumCores()
	// Build a valid 3-session schedule covering all cores.
	var sessions []Session
	for start := 0; start < n; start += 5 {
		cores := make([]int, 0, 5)
		for c := start; c < start+5 && c < n; c++ {
			cores = append(cores, c)
		}
		sessions = append(sessions, MustSession(cores...))
	}
	sc := New(sessions...)
	if sc.NumSessions() != 3 {
		t.Fatalf("NumSessions = %d", sc.NumSessions())
	}
	if got := sc.Length(spec); got != 3 {
		t.Errorf("Length = %g, want 3", got)
	}
	if err := sc.Validate(spec); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	if sc.MaxSessionPower(spec) <= 0 {
		t.Error("MaxSessionPower should be positive")
	}
	d := sc.Describe(spec)
	if !strings.Contains(d, "TS1") || !strings.Contains(d, "sessions") {
		t.Error("Describe missing sections")
	}
}

func TestValidateFailures(t *testing.T) {
	spec := testspec.Alpha21364()
	n := spec.NumCores()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	full := MustSession(all...)

	// Missing core.
	missing := New(MustSession(all[:n-1]...))
	if err := missing.Validate(spec); !errors.Is(err, ErrIncomplete) {
		t.Errorf("missing core: err = %v, want ErrIncomplete", err)
	}
	// Duplicate across sessions.
	dup := New(full, MustSession(0))
	if err := dup.Validate(spec); !errors.Is(err, ErrDuplicate) {
		t.Errorf("cross-session duplicate: err = %v, want ErrDuplicate", err)
	}
	// Out-of-range core.
	oob := New(MustSession(append(all, n+3)...))
	if err := oob.Validate(spec); !errors.Is(err, ErrUnknownCore) {
		t.Errorf("out of range: err = %v, want ErrUnknownCore", err)
	}
	// Empty session smuggled in via the zero value.
	empty := New(full, Session{})
	if err := empty.Validate(spec); !errors.Is(err, ErrEmptySession) {
		t.Errorf("empty session: err = %v, want ErrEmptySession", err)
	}
}

func TestAppendImmutable(t *testing.T) {
	sc := New(MustSession(0))
	sc2 := sc.Append(MustSession(1))
	if sc.NumSessions() != 1 || sc2.NumSessions() != 2 {
		t.Error("Append must not mutate the receiver")
	}
	if sc2.Sessions()[1].Cores()[0] != 1 {
		t.Error("Append content wrong")
	}
	// Sessions() must be a copy.
	ss := sc2.Sessions()
	ss[0] = MustSession(9)
	if sc2.Sessions()[0].Cores()[0] != 0 {
		t.Error("Sessions() leaks internal state")
	}
}
