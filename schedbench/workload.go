package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/floorplan"
	"repro/internal/server"
	"repro/internal/testspec"
)

// problem is one scheduling problem as a client poses it: the request body
// the server receives, the decoded request, and the spec the server derives
// from that body (parsed from the same text, so the checker and the traced
// stack see exactly what the server sees).
type problem struct {
	label string
	body  []byte
	req   server.ScheduleRequest
	spec  *testspec.Spec
}

func newProblem(label string, req server.ScheduleRequest) (*problem, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("%s: encoding request: %w", label, err)
	}
	spec, err := resolveSpec(&req)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	return &problem{label: label, body: body, req: req, spec: spec}, nil
}

// resolveSpec derives the test spec from a request the way the service does:
// a builtin by name, or the inline floorplan and test-spec texts.
func resolveSpec(req *server.ScheduleRequest) (*testspec.Spec, error) {
	if req.Workload != "" {
		return cliutil.LoadWorkload(req.Workload, "", "")
	}
	fp, err := floorplan.ParseString(req.Floorplan, "request.flp")
	if err != nil {
		return nil, fmt.Errorf("floorplan: %w", err)
	}
	name := req.Name
	if name == "" {
		name = "custom"
	}
	return testspec.ParseString(req.TestSpec, name, fp)
}

// alphaCell is one Table 1 cell of the builtin Alpha 21364 workload.
func alphaCell(tl, stcl float64, gridRes int) (*problem, error) {
	return newProblem(fmt.Sprintf("alpha/tl%g/stcl%g", tl, stcl), server.ScheduleRequest{
		Workload: "alpha21364", TL: tl, STCL: stcl, GridRes: gridRes,
	})
}

// socCell is a random SoC (experiments.ScalingSpec) sent inline as .flp and
// test-spec text, at the scaling experiment's TL of 140 °C.
func socCell(cores int, seed int64, stcl float64, gridRes int) (*problem, error) {
	spec, err := experiments.ScalingSpec(cores, seed)
	if err != nil {
		return nil, err
	}
	return newProblem(fmt.Sprintf("soc%d-s%d/stcl%g", cores, seed, stcl), server.ScheduleRequest{
		Name:        spec.Name(),
		Floorplan:   floorplan.Format(spec.Floorplan()),
		TestSpec:    testspec.Format(spec),
		GridRes:     gridRes,
		TL:          140,
		STCL:        stcl,
		AutoRaiseTL: true,
	})
}

// op is one client operation of the timed phase.
type op struct {
	// problems are posed in order; store-restart replays several per op.
	problems []int
	// job sends the (single) problem through POST /v1/jobs and its event
	// stream instead of POST /v1/schedule.
	job bool
}

// plan is everything a workload needs, derived from the seed alone.
type plan struct {
	problems []*problem
	// warm lists the problems posed during every set-up, in order.
	warm []int
	ops  []op
	// systems is how many distinct systems (store files) the run creates.
	systems int
}

// stratified returns n group indices in which group g appears in proportion
// shares[g] (rounding the running total), in seeded random order. Every seed
// therefore gets the same mix and only the order differs, which keeps the
// latency quantiles in the same place from run to run.
func stratified(rng *rand.Rand, n int, shares []float64) []int {
	out := make([]int, 0, n)
	acc := 0.0
	for g, s := range shares {
		acc += s
		for len(out) < int(acc*float64(n)+0.5) && len(out) < n {
			out = append(out, g)
		}
	}
	for len(out) < n {
		out = append(out, len(shares)-1)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// serveWarmPlan: alpha21364 at all 81 Table 1 cells plus 40-, 80- and
// 160-core random SoCs, nine per size, each at one of the nine STCLs. 40% of
// the ops are alpha and 20% each SoC size, so the median falls inside the
// 40-core group and p90 inside the 160-core group rather than on a boundary
// between groups, and each group's quantile spans nine floorplans rather
// than one seed's single draw. Exactly one op in every 20 is an async job at
// a seeded position.
func serveWarmPlan(seed int64, nops int) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{}
	var groups [][]int
	var alpha []int
	for _, tl := range experiments.Table1TLs {
		for _, stcl := range experiments.STCLs {
			pr, err := alphaCell(tl, stcl, 0)
			if err != nil {
				return nil, err
			}
			alpha = append(alpha, len(p.problems))
			p.problems = append(p.problems, pr)
		}
	}
	groups = append(groups, alpha)
	for _, cores := range []int{40, 80, 160} {
		var g []int
		for _, stcl := range experiments.STCLs {
			pr, err := socCell(cores, rng.Int63n(1<<31), stcl, 0)
			if err != nil {
				return nil, err
			}
			g = append(g, len(p.problems))
			p.problems = append(p.problems, pr)
		}
		groups = append(groups, g)
	}
	for i := range p.problems {
		p.warm = append(p.warm, i)
	}
	p.systems = 1 + len(p.problems) - len(alpha)
	for _, g := range stratified(rng, nops, []float64{0.4, 0.2, 0.2, 0.2}) {
		p.ops = append(p.ops, op{problems: []int{groups[g][rng.Intn(len(groups[g]))]}})
	}
	for base := 0; base+20 <= nops; base += 20 {
		p.ops[base+rng.Intn(20)].job = true
	}
	return p, nil
}

// gridColdPlan: every op is a system the server has never seen, at grid
// fidelity: a quarter are alpha21364 with a distinct ambient temperature (a
// new content address each time), the rest random SoCs whose core counts
// cycle evenly through 12..32. warmups extra systems are posed in set-up
// only.
func gridColdPlan(seed int64, nops, warmups, gridRes int) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{}
	kinds := stratified(rng, nops+warmups, []float64{0.25, 0.75})
	soc := 0
	for i, kind := range kinds {
		var (
			pr  *problem
			err error
		)
		if kind == 0 {
			pr, err = newProblem(fmt.Sprintf("alpha-amb%d", i), server.ScheduleRequest{
				Workload:    "alpha21364",
				Package:     &server.PackageSpec{Ambient: 40 + 0.01*float64(i+1)},
				GridRes:     gridRes,
				TL:          165,
				STCL:        60,
				AutoRaiseTL: true,
			})
		} else {
			// Sizes cycle through 12..32 in a seeded rotation, so each seed
			// sees the same size mix.
			cores := 12 + (soc+int(seed%21+21))%21
			soc++
			pr, err = socCell(cores, rng.Int63n(1<<31), 60, gridRes)
		}
		if err != nil {
			return nil, err
		}
		p.problems = append(p.problems, pr)
		if i < warmups {
			p.warm = append(p.warm, i)
		} else {
			p.ops = append(p.ops, op{problems: []int{i}})
		}
	}
	p.systems = len(p.problems)
	return p, nil
}

// storeRestartPlan: set-up fills the store cold with alpha21364's 81 cells
// and nine cells (the nine STCLs) each of three 32-core and three 64-core
// SoCs, all at grid fidelity. Each op replays one system's row of nine
// cells: an alpha TL row (60% of ops) or one SoC's row (20% per size). The
// median therefore always falls among alpha rows, which no seed changes,
// whichever way the groups order, and p90 inside a group.
func storeRestartPlan(seed int64, nops, gridRes int) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{}
	var groups [][][]int // per group, its rows of problem indices
	var alpha [][]int
	for _, tl := range experiments.Table1TLs {
		var row []int
		for _, stcl := range experiments.STCLs {
			pr, err := alphaCell(tl, stcl, gridRes)
			if err != nil {
				return nil, err
			}
			row = append(row, len(p.problems))
			p.problems = append(p.problems, pr)
		}
		alpha = append(alpha, row)
	}
	groups = append(groups, alpha)
	p.systems = 1
	for _, cores := range []int{32, 64} {
		var rows [][]int
		for k := 0; k < 3; k++ {
			socSeed := rng.Int63n(1 << 31)
			var row []int
			for _, stcl := range experiments.STCLs {
				pr, err := socCell(cores, socSeed, stcl, gridRes)
				if err != nil {
					return nil, err
				}
				row = append(row, len(p.problems))
				p.problems = append(p.problems, pr)
			}
			rows = append(rows, row)
			p.systems++
		}
		groups = append(groups, rows)
	}
	for i := range p.problems {
		p.warm = append(p.warm, i)
	}
	for _, g := range stratified(rng, nops, []float64{0.6, 0.2, 0.2}) {
		p.ops = append(p.ops, op{problems: groups[g][rng.Intn(len(groups[g]))]})
	}
	return p, nil
}
