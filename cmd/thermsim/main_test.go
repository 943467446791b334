package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/thermal"
)

func TestRunSteadyState(t *testing.T) {
	if err := run("alpha21364", "", "", "IntExec,IntReg", false, 0, 0, 16, thermal.GridOptions{}); err != nil {
		t.Fatalf("steady run: %v", err)
	}
}

// captureStdout runs fn with os.Stdout redirected into a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := fn()
	os.Stdout = orig
	w.Close()
	return <-out, runErr
}

func TestRunSteadyStateGridOptions(t *testing.T) {
	// The default options print the supernodal factor line; a peak-bytes
	// budget below the out-of-core floor still factors, in core, and says
	// the budget was waived.
	for _, c := range []struct {
		opts thermal.GridOptions
		want []string
	}{
		{thermal.GridOptions{}, []string{"sparse-cholesky backend", "factor: supernodal kernel"}},
		{thermal.GridOptions{PeakBytesBudget: 4096},
			[]string{"sparse-cholesky backend", "factor: supernodal kernel", "spill: degraded"}},
	} {
		out, err := captureStdout(t, func() error {
			return run("alpha21364", "", "", "IntExec", false, 0, 0, 12, c.opts)
		})
		if err != nil {
			t.Fatalf("grid options %+v: %v", c.opts, err)
		}
		for _, w := range c.want {
			if !strings.Contains(out, w) {
				t.Errorf("grid options %+v: no %q in:\n%s", c.opts, w, out)
			}
		}
	}
}

func TestRunAllCores(t *testing.T) {
	if err := run("figure1", "", "", "", false, 0, 0, 0, thermal.GridOptions{}); err != nil {
		t.Fatalf("all-cores run: %v", err)
	}
}

func TestRunGridRejectedForTransient(t *testing.T) {
	if err := run("figure1", "", "", "C2", true, 0.5, 0.002, 8, thermal.GridOptions{}); err == nil {
		t.Error("grid with transient should fail")
	}
}

func TestRunTransient(t *testing.T) {
	if err := run("figure1", "", "", "C2,C3,C4", true, 0.5, 0.002, 0, thermal.GridOptions{}); err != nil {
		t.Fatalf("transient run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("bogus", "", "", "", false, 0, 0, 0, thermal.GridOptions{}); err == nil {
		t.Error("unknown workload should fail")
	}
	if err := run("alpha21364", "", "", "NoSuchCore", false, 0, 0, 0, thermal.GridOptions{}); err == nil {
		t.Error("unknown core should fail")
	}
	if err := run("alpha21364", "", "", "IntExec", true, -1, 0, 0, thermal.GridOptions{}); err == nil {
		t.Error("negative duration should fail")
	}
}
