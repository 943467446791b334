package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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

// checkSteps asserts that steps covers the columns [lo, hi) once each and
// respects the elimination tree: a column's parent runs in an earlier step,
// in the same lane of the same step, or at or above hi (the trunk a half's
// schedule runs after).
func checkSteps(t *testing.T, name string, sym *CholSymbolic, steps []laneStep, lo, hi int) {
	t.Helper()
	step, lane := make([]int, hi), make([]int, hi)
	for j := range step {
		step[j] = -1
	}
	mark := func(s, l, a, b int) {
		for j := a; j < b; j++ {
			if j < lo || j >= hi || step[j] != -1 {
				t.Fatalf("%s: column %d scheduled twice or outside [%d, %d)", name, j, lo, hi)
			}
			step[j], lane[j] = s, l
		}
	}
	for s, st := range steps {
		mark(s, 0, st.a0, st.a1)
		mark(s, 1, st.b0, st.b1)
	}
	for j := lo; j < hi; j++ {
		p := sym.parent[j]
		if step[j] == -1 {
			t.Fatalf("%s: column %d never scheduled", name, j)
		}
		if p != -1 && p < hi && (step[p] > step[j] || step[p] == step[j] && lane[p] != lane[j]) {
			t.Fatalf("%s: column %d (step %d lane %d) runs before or beside its parent %d (step %d lane %d)",
				name, j, step[j], lane[j], p, step[p], lane[p])
		}
	}
}

// checkLaneSchedule asserts the lane schedule covers every column once and
// respects the elimination tree (a nil schedule is the serial loop), and
// that a split's halves are the two subtrees below the root trunk, each
// with a schedule of its own.
func checkLaneSchedule(t *testing.T, sym *CholSymbolic) {
	t.Helper()
	n := sym.n
	if sym.lanes == nil {
		if sym.split != nil {
			t.Fatal("a split without a lane schedule")
		}
		return
	}
	checkSteps(t, "lanes", sym, sym.lanes, 0, n)
	sp := sym.split
	if sp == nil {
		return
	}
	if sp.mid <= 0 || sp.top <= sp.mid || sp.top > n {
		t.Fatalf("split halves [0, %d) and [%d, %d) of %d columns", sp.mid, sp.mid, sp.top, n)
	}
	for j := sp.top; j < n; j++ { // the trunk is one chain
		if want := j + 1; j < n-1 && sym.parent[j] != want || j == n-1 && sym.parent[j] != -1 {
			t.Fatalf("trunk column %d has parent %d", j, sym.parent[j])
		}
	}
	for _, root := range []int{sp.mid - 1, sp.top - 1} {
		if p := sym.parent[root]; sp.top < n && p != sp.top || sp.top == n && p != -1 {
			t.Fatalf("half root %d has parent %d, want the trunk's lowest column %d", root, p, sp.top)
		}
	}
	checkSteps(t, "half A", sym, sp.a, 0, sp.mid)
	checkSteps(t, "half B", sym, sp.b, sp.mid, sp.top)
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
// columns.
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

// closureBits is the bitset SolveSparseInto builds for nz, by permuted
// column.
func closureBits(c *SparseCholesky, nz []int) []uint64 {
	in := make([]uint64, (c.sym.n+63)/64)
	for i, ok := range closureOf(c, nz) {
		if k := c.sym.pinv[i]; ok {
			in[k>>6] |= 1 << (uint(k) & 63)
		}
	}
	return in
}

// checkTrunkReplay asserts where a split factor's half B columns reach the
// trunk rows, and that its packed replay copy holds exactly those entries.
func checkTrunkReplay(t *testing.T, name string, c *SparseCholesky) {
	t.Helper()
	sp := c.sym.split
	total := 0
	for j := sp.mid; j < sp.top; j++ {
		k := 0
		for p := c.lp[j] + 1; p < c.lp[j+1]; p++ {
			if c.li[p] >= sp.top {
				k++
			}
		}
		if c.lp[j+1]-k != sp.headEnd[j-sp.mid] {
			t.Fatalf("%s: column %d has %d trunk-row entries, head ends at %d of [%d, %d)", name, j, k, sp.headEnd[j-sp.mid], c.lp[j], c.lp[j+1])
		}
		for p := c.lp[j+1] - k; p < c.lp[j+1]; p++ {
			r, found := c.li[p]-sp.top, false
			for e := c.trunk.ptr[r]; e < c.trunk.ptr[r+1]; e++ {
				if int(c.trunk.cols[e]) == j {
					found = math.Float64bits(c.trunk.vals[e]) == math.Float64bits(c.lx[p])
				}
			}
			if !found {
				t.Fatalf("%s: L(%d, %d) missing from the packed trunk rows", name, c.li[p], j)
			}
		}
		total += k
	}
	if total != len(c.trunk.vals) {
		t.Fatalf("%s: %d packed trunk-row entries, want %d", name, len(c.trunk.vals), total)
	}
}

// TestSolveSparseIntoClosureBitIdenticalND: SolveSparseInto on a
// nested-dissection grid factor is bitwise solveSerial on the support's
// elimination-tree closure and NaN off it, and SolveInto is bitwise
// solveSerial everywhere — on scalar and supernodal factors of one- and
// two-layer 24², 64² and 96² grids, for supports inside one of the two
// subtrees below the root trunk, straddling both, on the trunk only, and on
// every node, aliased and not, at GOMAXPROCS 1 (one goroutine) and 2 (the
// straddling and full supports split across two), with the pooled scratch
// reused between calls, and under concurrent solves on one shared factor.
// The split threshold is lifted, so the 24² factors split too.
func TestSolveSparseIntoClosureBitIdenticalND(t *testing.T) {
	defer func(v int) { splitMinNNZ = v }(splitMinNNZ)
	splitMinNNZ = 0
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(25))
	for _, d := range []int{24, 64, 96} {
		for layers := 1; layers <= 2; layers++ {
			s, perm := layeredGrid(d, d, layers, rng)
			sym, err := NewCholSymbolic(s, perm)
			if err != nil {
				t.Fatal(err)
			}
			sp := sym.split
			if sp == nil {
				t.Fatalf("nd %d², %d layers: no split", d, layers)
			}
			checkLaneSchedule(t, sym)
			factors := map[string]*SparseCholesky{}
			if d <= 24 || d <= 64 && !raceEnabled { // the scalar kernel is slow at grid scale
				if factors["scalar"], err = sym.Factorize(s); err != nil {
					t.Fatal(err)
				}
			}
			if factors["supernodal"], err = sym.Supernodes().Factorize(s); err != nil {
				t.Fatal(err)
			}
			// Supports by region, drawn in permuted columns: half A is
			// [0, mid), half B [mid, top), the trunk [top, n).
			pick := func(lo, hi, k int) []int {
				var nz []int
				for range k {
					nz = append(nz, sym.perm[lo+rng.Intn(hi-lo)])
				}
				return nz
			}
			all := make([]int, sym.n)
			for i := range all {
				all[i] = i
			}
			type support struct {
				name  string
				nz    []int
				split bool // whether the closure reaches both halves
			}
			supports := []support{
				{"half A", pick(0, sp.mid, 3), false},
				{"half B", pick(sp.mid, sp.top, 5), false},
				{"both halves", append(pick(0, sp.mid, 4), pick(sp.mid, sp.top, 2)...), true},
				{"trunk", pick(sp.top, sym.n, 2), false},
				{"every node", all, true},
			}
			// Block-shaped footprints on the top layer; each splits when
			// its closure has columns in both halves.
			q := d / 4
			for _, fp := range []struct {
				name string
				nz   []int
			}{
				{"corner block", patch(d, 0, 0, q, q)},
				{"center block", patch(d, d/2-q/2, d/2-q/2, q, q)},
				{"two blocks", append(patch(d, 1, 2, q, q/2), patch(d, d-q, d-q, q, q)...)},
				{"three quadrants", append(append(patch(d, 0, 0, d/2, d/2), patch(d, d/2, 0, d/2, d/2)...), patch(d, 0, d/2, d/2, d/2)...)},
			} {
				var inA, inB bool
				for i, ok := range closureOf(factors["supernodal"], fp.nz) {
					k := sym.pinv[i]
					inA = inA || ok && k < sp.mid
					inB = inB || ok && k >= sp.mid && k < sp.top
				}
				supports = append(supports, support{fp.name, fp.nz, inA && inB})
			}
			for fname, c := range factors {
				name := fmt.Sprintf("nd %d²×%d %s", d, layers, fname)
				checkTrunkReplay(t, name, c)
				for _, procs := range []int{1, 2} {
					runtime.GOMAXPROCS(procs)
					for _, sup := range supports {
						name := fmt.Sprintf("%s, %s, GOMAXPROCS %d", name, sup.name, procs)
						if got := c.splitFor(closureBits(c, sup.nz), 1) != nil; got != (sup.split && procs > 1) {
							t.Fatalf("%s: split %v, want %v", name, got, sup.split && procs > 1)
						}
						b := make([]float64, c.sym.n)
						for _, i := range sup.nz {
							b[i] = 1 + rng.Float64()
						}
						want := solveSerial(c, b)
						got := make([]float64, c.sym.n)
						if err := c.SolveSparseInto(got, b, append(sup.nz, sup.nz[0])); err != nil {
							t.Fatal(err)
						}
						checkClosure(t, name, c, sup.nz, got, want)
						if err := c.SolveInto(got, b); err != nil {
							t.Fatal(err)
						}
						checkClosure(t, name+" SolveInto", c, all, got, want)
						if err := c.SolveSparseInto(b, b, sup.nz); err != nil {
							t.Fatal(err)
						}
						checkClosure(t, name+" aliased", c, sup.nz, b, want)
					}
				}
			}
			// Concurrent solves on one factor; at GOMAXPROCS 4 two solves in
			// flight both split.
			runtime.GOMAXPROCS(4)
			c := factors["supernodal"]
			var wg sync.WaitGroup
			for g, sup := range supports {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					b := make([]float64, c.sym.n)
					for _, i := range sup.nz {
						b[i] = 1 + r.Float64()
					}
					want := solveSerial(c, b)
					got := make([]float64, c.sym.n)
					for range 4 {
						if err := c.SolveSparseInto(got, b, sup.nz); err != nil {
							t.Error(err)
							return
						}
						for i, in := range closureOf(c, sup.nz) {
							if in && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Errorf("nd %d²×%d concurrent %s: differs at %d", d, layers, sup.name, i)
								return
							}
						}
					}
				}(int64(g))
			}
			wg.Wait()
		}
	}
}
