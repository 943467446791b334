package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// backwardSerial is the backward pass as one descending column loop, the
// reference the lane schedule must reproduce bit for bit.
func backwardSerial(c *SparseCholesky, w []float64) {
	for j := c.sym.n - 1; j >= 0; j-- {
		s := w[j]
		for p := c.lp[j] + 1; p < c.lp[j+1]; p++ {
			s -= c.lx[p] * w[c.li[p]]
		}
		w[j] = s / c.lx[c.lp[j]]
	}
}

// solveSerial solves A·x = b with its own plain forward column loop and
// backwardSerial — a reference independent of the solve kernels under test.
func solveSerial(c *SparseCholesky, b []float64) []float64 {
	n := c.sym.n
	w := make([]float64, n)
	for k, old := range c.sym.perm {
		w[k] = b[old]
	}
	for j := 0; j < n; j++ {
		yj := w[j] / c.lx[c.lp[j]]
		w[j] = yj
		for p := c.lp[j] + 1; p < c.lp[j+1]; p++ {
			w[c.li[p]] -= c.lx[p] * yj
		}
	}
	backwardSerial(c, w)
	x := make([]float64, n)
	for k, old := range c.sym.perm {
		x[old] = w[k]
	}
	return x
}

// layeredGrid builds an nx×ny five-point mesh replicated across layers with
// vertical couplings, plus one hub tied to every cell of the top layer, and
// returns it with its nested-dissection order (hub last) — the shape of the
// thermal grid model's silicon, spreader and sink.
func layeredGrid(nx, ny, layers int, rng *rand.Rand) (*Sparse, []int) {
	nc := nx * ny
	hub := nc * layers
	b := NewSparseBuilder(hub + 1)
	g := func() float64 { return 0.5 + rng.Float64() }
	for l := 0; l < layers; l++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				a := l*nc + y*nx + x
				if x+1 < nx {
					b.AddConductance(a, a+1, g())
				}
				if y+1 < ny {
					b.AddConductance(a, a+nx, g())
				}
				if l+1 < layers {
					b.AddConductance(a, a+nc, g())
				} else {
					b.AddConductance(a, hub, 0.1*g())
				}
			}
		}
	}
	b.AddGround(hub, 1)
	return b.Build(), append(NestedDissectionGrid(nx, ny, layers), hub)
}

// lanesPaired reports whether some step of the schedule runs two lanes.
func lanesPaired(sym *CholSymbolic) bool {
	for _, st := range sym.lanes {
		if st.b1 > st.b0 {
			return true
		}
	}
	return false
}

// checkLaneSchedule asserts the lane schedule covers every column once and
// respects the elimination tree: a column's parent runs in an earlier step,
// or in the same lane of the same step.
func checkLaneSchedule(t *testing.T, sym *CholSymbolic) {
	t.Helper()
	n := sym.n
	step, lane := make([]int, n), make([]int, n)
	for j := range step {
		step[j] = -1
	}
	mark := func(s, l, lo, hi int) {
		for j := lo; j < hi; j++ {
			if step[j] != -1 {
				t.Fatalf("column %d scheduled twice", j)
			}
			step[j], lane[j] = s, l
		}
	}
	for s, st := range sym.lanes {
		mark(s, 0, st.a0, st.a1)
		mark(s, 1, st.b0, st.b1)
	}
	for j, p := range sym.parent {
		if step[j] == -1 {
			t.Fatalf("column %d never scheduled", j)
		}
		if p != -1 && (step[p] > step[j] || step[p] == step[j] && lane[p] != lane[j]) {
			t.Fatalf("column %d (step %d lane %d) runs before or beside its parent %d (step %d lane %d)",
				j, step[j], lane[j], p, step[p], lane[p])
		}
	}
}

// closureOf marks, by original index, the elimination-tree closure of nz:
// every index of nz and all of its etree ancestors.
func closureOf(c *SparseCholesky, nz []int) []bool {
	in := make([]bool, c.sym.n)
	for _, i := range nz {
		for k := c.sym.pinv[i]; k != -1 && !in[c.sym.perm[k]]; k = c.sym.parent[k] {
			in[c.sym.perm[k]] = true
		}
	}
	return in
}

// closureShareOf is the share of L's non-zeros held by the closure's
// columns — the quantity SolveSparseInto gates on.
func closureShareOf(c *SparseCholesky, nz []int) float64 {
	lnz := 0
	for i, ok := range closureOf(c, nz) {
		if k := c.sym.pinv[i]; ok {
			lnz += c.lp[k+1] - c.lp[k]
		}
	}
	return float64(lnz) / float64(c.NNZ())
}

// checkClosure asserts that a SolveSparseInto answer got is bitwise want on
// the closure of nz and NaN everywhere else.
func checkClosure(t *testing.T, name string, c *SparseCholesky, nz []int, got, want []float64) {
	t.Helper()
	for i, in := range closureOf(c, nz) {
		if in && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: SolveSparseInto differs on the closure at %d: %v vs %v", name, i, got[i], want[i])
		}
		if !in && !math.IsNaN(got[i]) {
			t.Fatalf("%s: SolveSparseInto entry %d is off the closure but %v, want NaN", name, i, got[i])
		}
	}
}

// checkLanesBitIdentical compares SolveInto on c against solveSerial,
// bitwise, on dense right-hand sides, and SolveSparseInto on sparse ones on
// their closure.
func checkLanesBitIdentical(t *testing.T, name string, c *SparseCholesky, rng *rand.Rand) {
	t.Helper()
	n := c.sym.n
	same := func(how string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: %s differs from the serial backward at %d: %v vs %v",
					name, how, i, got[i], want[i])
			}
		}
	}
	for trial := 0; trial < 2; trial++ {
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := make([]float64, n)
		if err := c.SolveInto(got, b); err != nil {
			t.Fatal(err)
		}
		same("SolveInto", got, solveSerial(c, b))

		// A footprint on the first few nodes keeps the reach small enough
		// for the restricted forward pass on the larger grids.
		sb := make([]float64, n)
		var nz []int
		for i := 0; i < min(n, 3); i++ {
			sb[i] = 1 + rng.Float64()
			nz = append(nz, i)
		}
		if err := c.SolveSparseInto(got, sb, nz); err != nil {
			t.Fatal(err)
		}
		checkClosure(t, name, c, nz, got, solveSerial(c, sb))
	}
}

// forestSPD assembles comps disconnected random conductance networks and
// returns the matrix with a postorder of its elimination forest under the
// natural order, so the lane schedule engages on a forest.
func forestSPD(comps int, rng *rand.Rand) (*Sparse, []int) {
	var parts []*Sparse
	n := 0
	for c := 0; c < comps; c++ {
		p := randConductance(5+rng.Intn(60), rng)
		parts = append(parts, p)
		n += p.n
	}
	b := NewSparseBuilder(n)
	off := 0
	for _, p := range parts {
		for i := 0; i < p.n; i++ {
			cols, vals := p.RowNZ(i)
			for k, j := range cols {
				b.Add(off+i, off+j, vals[k])
			}
		}
		off += p.n
	}
	s := b.Build()
	natural := make([]int, n)
	for i := range natural {
		natural[i] = i
	}
	sym, err := NewCholSymbolic(s, natural)
	if err != nil {
		panic(err)
	}
	kids := make([][]int, n+1) // kids[n] lists the roots
	for j, p := range sym.parent {
		if p == -1 {
			p = n
		}
		kids[p] = append(kids[p], j)
	}
	post := make([]int, 0, n)
	var visit func(j int)
	visit = func(j int) {
		for _, c := range kids[j] {
			visit(c)
		}
		post = append(post, j)
	}
	for _, r := range kids[n] {
		visit(r)
	}
	return s, post
}

// TestSparseCholeskyBackwardLanesBitIdentical: the lane-scheduled backward
// pass answers bit-identically to the serial column loop through SolveInto,
// and SolveSparseInto does on its closure — on nested-dissection grid factors (scalar and
// supernodal, one and two layers), on the RCM default (which must fall back
// to the serial loop), on postordered random forests, and on two factors
// sharing one symbolic analysis under concurrent solves.
func TestSparseCholeskyBackwardLanesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, d := range [][2]int{{2, 2}, {7, 50}, {24, 24}, {64, 64}, {96, 96}} {
		for layers := 1; layers <= 2; layers++ {
			s, perm := layeredGrid(d[0], d[1], layers, rng)
			sym, err := NewCholSymbolic(s, perm)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("nd %dx%dx%d", d[0], d[1], layers)
			if d[0]*d[1] >= 24*24 && !lanesPaired(sym) {
				t.Fatalf("%s: lane schedule did not engage", name)
			}
			checkLaneSchedule(t, sym)
			if d[0]*d[1] <= 24*24 { // the scalar kernel is slow at grid scale
				scalar, err := sym.Factorize(s)
				if err != nil {
					t.Fatal(err)
				}
				checkLanesBitIdentical(t, name+" scalar", scalar, rng)
			}
			super, err := sym.Supernodes().Factorize(s)
			if err != nil {
				t.Fatal(err)
			}
			checkLanesBitIdentical(t, name+" supernodal", super, rng)
		}
	}

	rcm, err := NewSparseCholesky(buildLaplacian(24, 24))
	if err != nil {
		t.Fatal(err)
	}
	if lanesPaired(rcm.sym) {
		t.Fatal("RCM factor: lane schedule engaged, want the serial fallback")
	}
	checkLaneSchedule(t, rcm.sym)
	checkLanesBitIdentical(t, "rcm", rcm, rng)

	for trial := 0; trial < 4; trial++ {
		s, post := forestSPD(2+trial, rng)
		sym, err := NewCholSymbolic(s, post)
		if err != nil {
			t.Fatal(err)
		}
		if !lanesPaired(sym) {
			t.Fatalf("forest %d: lane schedule did not engage on %d trees", trial, 2+trial)
		}
		checkLaneSchedule(t, sym)
		ch, err := sym.Factorize(s)
		if err != nil {
			t.Fatal(err)
		}
		checkLanesBitIdentical(t, fmt.Sprintf("forest %d", trial), ch, rng)
		// Under the RCM default the forest need not be postordered; either
		// way the answer must not change.
		checkLanesBitIdentical(t, fmt.Sprintf("forest %d natural", trial), factorWith(t, s, nil), rng)
	}

	// Every factor of one pattern shares the symbolic analysis, and so the
	// schedule; concurrent solves on both must stay exact.
	s, perm := layeredGrid(32, 32, 2, rng)
	sym, err := NewCholSymbolic(s, perm)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for f := 0; f < 2; f++ {
		ch, err := sym.Supernodes().Factorize(s)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				checkLanesBitIdentical(t, fmt.Sprintf("shared symbolic %d", seed), ch, rand.New(rand.NewSource(seed)))
			}(int64(10*f + g))
		}
	}
	wg.Wait()
}

// patch lists the cells of the w×h rectangle at (x0, y0) on layer 0 of an
// nx-wide grid — the footprint of one block's power deposit.
func patch(nx, x0, y0, w, h int) []int {
	var cells []int
	for y := y0; y < y0+h; y++ {
		for x := x0; x < x0+w; x++ {
			cells = append(cells, y*nx+x)
		}
	}
	return cells
}

// TestSolveSparseIntoClosureBitIdenticalND: SolveSparseInto on a
// nested-dissection grid factor is bitwise solveSerial on the footprint's
// elimination-tree closure and NaN off it — for footprints shaped like one,
// two and many blocks, on scalar and supernodal factors of one- and
// two-layer grids, aliased and not, with the pooled scratch reused between
// calls. The footprints span the closure-share gate, so both the closure
// loops and the masked full solve run.
func TestSolveSparseIntoClosureBitIdenticalND(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var below, above int
	for _, d := range []int{24, 64} {
		for layers := 1; layers <= 2; layers++ {
			s, perm := layeredGrid(d, d, layers, rng)
			sym, err := NewCholSymbolic(s, perm)
			if err != nil {
				t.Fatal(err)
			}
			factors := map[string]*SparseCholesky{}
			if d <= 24 { // the scalar kernel is slow at grid scale
				if factors["scalar"], err = sym.Factorize(s); err != nil {
					t.Fatal(err)
				}
			}
			if factors["supernodal"], err = sym.Supernodes().Factorize(s); err != nil {
				t.Fatal(err)
			}
			q := d / 4
			footprints := map[string][]int{
				"one cell":    {d*d/2 + d/2},
				"corner":      patch(d, 0, 0, q, q),
				"center":      patch(d, d/2-q/2, d/2-q/2, q, q),
				"two blocks":  append(patch(d, 1, 2, q, q/2), patch(d, d-q, d-q, q, q)...),
				"three quads": append(append(patch(d, 0, 0, d/2, d/2), patch(d, d/2, 0, d/2, d/2)...), patch(d, 0, d/2, d/2, d/2)...),
				"die":         patch(d, 0, 0, d, d),
			}
			for fname, c := range factors {
				for pname, nz := range footprints {
					name := fmt.Sprintf("nd %dx%dx%d %s, %s", d, d, layers, fname, pname)
					if closureShareOf(c, nz) > closureShare {
						above++
					} else {
						below++
					}
					b := make([]float64, c.sym.n)
					for _, i := range nz {
						b[i] = 1 + rng.Float64()
					}
					want := solveSerial(c, b)
					got := make([]float64, c.sym.n)
					if err := c.SolveSparseInto(got, b, append(nz, nz[0])); err != nil {
						t.Fatal(err)
					}
					checkClosure(t, name, c, nz, got, want)
					if err := c.SolveSparseInto(b, b, nz); err != nil {
						t.Fatal(err)
					}
					checkClosure(t, name+" aliased", c, nz, b, want)
				}
			}
		}
	}
	if below == 0 || above == 0 {
		t.Fatalf("footprints ran %d closure solves and %d masked full solves, want both", below, above)
	}
}
