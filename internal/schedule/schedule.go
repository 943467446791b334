// Package schedule represents session-based SoC test schedules: an ordered
// list of test sessions, each a set of cores tested concurrently. A session
// lasts as long as its longest core test; a schedule lasts the sum of its
// session lengths (sessions are non-preemptive and non-overlapping, as in the
// classic power-constrained scheduling literature the paper builds on).
package schedule

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/testspec"
)

// Common validation errors.
var (
	ErrEmptySession = errors.New("schedule: empty session")
	ErrDuplicate    = errors.New("schedule: core scheduled more than once")
	ErrUnknownCore  = errors.New("schedule: core index out of range")
	ErrIncomplete   = errors.New("schedule: not all cores scheduled")
)

// Session is a set of cores tested concurrently, stored as sorted unique
// indices.
type Session struct {
	cores []int
}

// NewSession builds a session from core indices; duplicates are rejected.
func NewSession(cores ...int) (Session, error) {
	if len(cores) == 0 {
		return Session{}, ErrEmptySession
	}
	sorted := append([]int(nil), cores...)
	sort.Ints(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return Session{}, fmt.Errorf("%w: core %d", ErrDuplicate, sorted[i])
		}
	}
	return Session{cores: sorted}, nil
}

// MustSession is NewSession for static inputs; it panics on error.
func MustSession(cores ...int) Session {
	s, err := NewSession(cores...)
	if err != nil {
		panic(err)
	}
	return s
}

// Cores returns a copy of the session's core indices in ascending order.
func (s Session) Cores() []int { return append([]int(nil), s.cores...) }

// Size returns the number of cores in the session.
func (s Session) Size() int { return len(s.cores) }

// Length returns the session's duration under spec: the longest test among
// its cores (s).
func (s Session) Length(spec *testspec.Spec) float64 {
	var mx float64
	for _, c := range s.cores {
		if l := spec.Test(c).Length; l > mx {
			mx = l
		}
	}
	return mx
}

// Power returns the summed test power of the session's cores (W).
func (s Session) Power(spec *testspec.Spec) float64 {
	var p float64
	for _, c := range s.cores {
		p += spec.Test(c).Power
	}
	return p
}

// Names renders the session's core names under spec.
func (s Session) Names(spec *testspec.Spec) []string {
	out := make([]string, len(s.cores))
	for i, c := range s.cores {
		out[i] = spec.Test(c).Name
	}
	return out
}

// String implements fmt.Stringer (indices only; use Names for labels).
func (s Session) String() string {
	parts := make([]string, len(s.cores))
	for i, c := range s.cores {
		parts[i] = fmt.Sprint(c)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Schedule is an ordered list of sessions.
type Schedule struct {
	sessions []Session
}

// New builds a schedule from sessions in order.
func New(sessions ...Session) Schedule {
	return Schedule{sessions: append([]Session(nil), sessions...)}
}

// Append returns the schedule extended by one session.
func (sc Schedule) Append(s Session) Schedule {
	out := make([]Session, 0, len(sc.sessions)+1)
	out = append(out, sc.sessions...)
	out = append(out, s)
	return Schedule{sessions: out}
}

// Sessions returns a copy of the session list.
func (sc Schedule) Sessions() []Session { return append([]Session(nil), sc.sessions...) }

// NumSessions returns the number of sessions.
func (sc Schedule) NumSessions() int { return len(sc.sessions) }

// Length returns the schedule duration under spec: the sum of session
// lengths (s). This is the paper's "test schedule length".
func (sc Schedule) Length(spec *testspec.Spec) float64 {
	var t float64
	for _, s := range sc.sessions {
		t += s.Length(spec)
	}
	return t
}

// MaxSessionPower returns the largest per-session power (W) — the quantity a
// chip-level power constraint bounds.
func (sc Schedule) MaxSessionPower(spec *testspec.Spec) float64 {
	var mx float64
	for _, s := range sc.sessions {
		if p := s.Power(spec); p > mx {
			mx = p
		}
	}
	return mx
}

// Validate checks that the schedule tests every core of spec exactly once
// and references only valid cores.
func (sc Schedule) Validate(spec *testspec.Spec) error {
	n := spec.NumCores()
	seen := make([]bool, n)
	for si, s := range sc.sessions {
		if s.Size() == 0 {
			return fmt.Errorf("%w: session %d", ErrEmptySession, si)
		}
		for _, c := range s.cores {
			if c < 0 || c >= n {
				return fmt.Errorf("%w: session %d core %d", ErrUnknownCore, si, c)
			}
			if seen[c] {
				return fmt.Errorf("%w: core %d (%s)", ErrDuplicate, c, spec.Test(c).Name)
			}
			seen[c] = true
		}
	}
	for c, ok := range seen {
		if !ok {
			return fmt.Errorf("%w: core %d (%s) missing", ErrIncomplete, c, spec.Test(c).Name)
		}
	}
	return nil
}

// Describe renders the schedule with core names, per-session power and
// length.
func (sc Schedule) Describe(spec *testspec.Spec) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "schedule: %d sessions, length %.2f s\n", sc.NumSessions(), sc.Length(spec))
	for i, s := range sc.sessions {
		fmt.Fprintf(&sb, "  TS%-2d [%5.1f W, %4.1f s] %s\n",
			i+1, s.Power(spec), s.Length(spec), strings.Join(s.Names(spec), " "))
	}
	return sb.String()
}
