package schedule

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/testspec"
)

func fullSchedule(spec *testspec.Spec) Schedule {
	sc := New()
	n := spec.NumCores()
	for start := 0; start < n; start += 4 {
		var cores []int
		for c := start; c < start+4 && c < n; c++ {
			cores = append(cores, c)
		}
		sc = sc.Append(MustSession(cores...))
	}
	return sc
}

func TestFormatParseRoundTrip(t *testing.T) {
	spec := testspec.Alpha21364()
	orig := fullSchedule(spec)
	text := Format(orig, spec)
	back, err := ParseString(text, spec)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumSessions() != orig.NumSessions() {
		t.Fatalf("sessions %d vs %d", back.NumSessions(), orig.NumSessions())
	}
	for i := 0; i < orig.NumSessions(); i++ {
		a, b := orig.Sessions()[i].Cores(), back.Sessions()[i].Cores()
		if len(a) != len(b) {
			t.Fatalf("session %d size drifted", i)
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("session %d core %d drifted", i, k)
			}
		}
	}
}

func TestParseToleratesCommentsAndLabels(t *testing.T) {
	spec := testspec.Figure1()
	src := `
# any comment
weird-label: C3 C4
TS9: C1 C2

another: C5 C6 C7
`
	sc, err := ParseString(src, spec)
	if err != nil {
		t.Fatal(err)
	}
	if sc.NumSessions() != 3 {
		t.Fatalf("sessions = %d, want 3", sc.NumSessions())
	}
	if !slices.Contains(sc.Sessions()[1].Cores(), 0) {
		t.Error("session order not preserved")
	}
}

func TestParseErrors(t *testing.T) {
	spec := testspec.Figure1()
	tests := []struct {
		name string
		src  string
	}{
		{"no colon", "C1 C2\n"},
		{"empty session", "TS1:\nTS2: C1 C2 C3 C4 C5 C6 C7\n"},
		{"unknown core", "TS1: C1 C99\n"},
		{"duplicate in session", "TS1: C1 C1\n"},
		{"duplicate across sessions", "TS1: C1 C2 C3 C4 C5 C6 C7\nTS2: C1\n"},
		{"incomplete", "TS1: C1 C2\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseString(tt.src, spec); err == nil {
				t.Error("expected error, got nil")
			}
		})
	}
	// Syntax errors specifically wrap ErrSyntax.
	if _, err := ParseString("oops\n", spec); !errors.Is(err, ErrSyntax) {
		t.Errorf("err = %v, want ErrSyntax", err)
	}
}

func TestFormatIsHumanReadable(t *testing.T) {
	spec := testspec.Figure1()
	sc := New(MustSession(0, 1), MustSession(2, 3, 4, 5, 6))
	text := Format(sc, spec)
	if !strings.Contains(text, "TS1: C1 C2") {
		t.Errorf("unexpected format:\n%s", text)
	}
	if !strings.HasPrefix(text, "# schedule for figure1") {
		t.Errorf("missing header:\n%s", text)
	}
}
