// Package cliutil holds the workload-loading and flag-parsing logic shared
// by the command line tools: resolving builtin workloads by name, reading
// floorplan and test-spec files from disk, and the shared byte-size flag
// syntax.
package cliutil

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/floorplan"
	"repro/internal/testspec"
)

// ParseByteSize reads "262144", "256K", "64M" or "2G" (case-insensitive,
// optional trailing "B") into bytes; empty means unbounded (0). A size past
// math.MaxInt64 bytes is an error, not a wrapped value. The shared syntax of
// -store-budget and -peak-bytes.
func ParseByteSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	u := strings.TrimSuffix(strings.ToUpper(s), "B")
	mult := int64(1)
	switch {
	case strings.HasSuffix(u, "K"):
		mult, u = 1<<10, strings.TrimSuffix(u, "K")
	case strings.HasSuffix(u, "M"):
		mult, u = 1<<20, strings.TrimSuffix(u, "M")
	case strings.HasSuffix(u, "G"):
		mult, u = 1<<30, strings.TrimSuffix(u, "G")
	}
	n, err := strconv.ParseInt(u, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid byte size %q (want e.g. 262144, 256K, 64M)", s)
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("byte size %q overflows int64", s)
	}
	return n * mult, nil
}

// BuiltinWorkloads lists the workload names LoadWorkload accepts without
// files.
func BuiltinWorkloads() []string { return []string{"alpha21364", "figure1"} }

// LoadWorkload resolves a test-scheduling workload:
//
//   - workload != "": a builtin name ("alpha21364" or "figure1");
//   - otherwise both flpPath and specPath must name files: a HotSpot ".flp"
//     floorplan and a test spec in the `name functional test seconds`
//     format.
func LoadWorkload(workload, flpPath, specPath string) (*testspec.Spec, error) {
	switch workload {
	case "alpha21364":
		return testspec.Alpha21364(), nil
	case "figure1", "fig1":
		return testspec.Figure1(), nil
	case "":
		// fall through to file loading
	default:
		return nil, fmt.Errorf("unknown builtin workload %q (have: %v)", workload, BuiltinWorkloads())
	}
	if flpPath == "" || specPath == "" {
		return nil, fmt.Errorf("need either -workload <name> or both -flp <file> and -spec <file>")
	}
	fp, err := LoadFloorplan(flpPath)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(specPath)
	if err != nil {
		return nil, fmt.Errorf("opening test spec: %w", err)
	}
	defer f.Close()
	spec, err := testspec.Parse(f, specPath, fp)
	if err != nil {
		return nil, fmt.Errorf("parsing test spec %s: %w", specPath, err)
	}
	return spec, nil
}

// LoadFloorplan reads a ".flp" floorplan from disk.
func LoadFloorplan(path string) (*floorplan.Floorplan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening floorplan: %w", err)
	}
	defer f.Close()
	fp, err := floorplan.Parse(f, path)
	if err != nil {
		return nil, fmt.Errorf("parsing floorplan %s: %w", path, err)
	}
	return fp, nil
}
