package linalg

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// CholSymbolic is the ordering-and-structure half of a sparse Cholesky
// factorization: the fill-reducing permutation, the elimination tree and the
// exact non-zero structure of the factor L. It depends only on the sparsity
// pattern, so one analysis serves every matrix with that pattern — the
// thermal solver analyses a floorplan's conductance graph once and then
// factorizes one matrix per Crank–Nicolson step size against the shared
// symbolic object.
type CholSymbolic struct {
	n      int
	perm   []int // perm[k] = original index eliminated k-th
	pinv   []int // pinv[original] = elimination position
	parent []int // elimination tree over permuted indices (-1 = root)
	colPtr []int // column pointers of L (CSC), len n+1

	// lanes schedules the single-RHS backward pass over disjoint subtrees
	// of the elimination tree; split, when the tree has one, divides it into
	// two halves a solve may run on two goroutines (see planLanes).
	lanes []laneStep
	split *solveSplit

	// Permuted lower-triangular pattern of the input: row k holds the
	// permuted columns j <= k, with cmap mapping each slot back into the
	// source matrix's vals array so Factorize is a pure gather.
	cp, ci, cmap []int

	// Pattern identity of the analysed matrix, for the cheap compatibility
	// check in Factorize.
	srcRowPtr, srcCols []int
}

// NewCholSymbolic analyses the pattern of the SPD matrix s under the given
// fill-reducing permutation (nil selects RCM). It returns ErrNotSPD when s is
// not symmetric.
func NewCholSymbolic(s *Sparse, perm []int) (*CholSymbolic, error) {
	n := s.n
	if !s.IsSymmetricSparse(1e-10) {
		return nil, fmt.Errorf("%w: matrix is not symmetric", ErrNotSPD)
	}
	if perm == nil {
		perm = RCM(s)
	} else if len(perm) != n {
		return nil, fmt.Errorf("%w: permutation has %d entries, n=%d", ErrShape, len(perm), n)
	}
	sym := &CholSymbolic{
		n:         n,
		perm:      perm,
		pinv:      make([]int, n),
		parent:    make([]int, n),
		colPtr:    make([]int, n+1),
		srcRowPtr: s.rowPtr,
		srcCols:   s.cols,
	}
	for k, old := range perm {
		sym.pinv[old] = k
	}

	// Build the permuted lower-triangular pattern C = tril(P·S·Pᵀ) in CSR
	// form by counting sort over destination rows. Column order within a row
	// is irrelevant for both the elimination tree and the numeric scatter.
	cp := make([]int, n+1)
	for i := 0; i < n; i++ {
		ni := sym.pinv[i]
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			if sym.pinv[s.cols[k]] <= ni {
				cp[ni+1]++
			}
		}
	}
	for k := 0; k < n; k++ {
		cp[k+1] += cp[k]
	}
	ci := make([]int, cp[n])
	cmap := make([]int, cp[n])
	next := make([]int, n)
	copy(next, cp[:n])
	for i := 0; i < n; i++ {
		ni := sym.pinv[i]
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			if nj := sym.pinv[s.cols[k]]; nj <= ni {
				ci[next[ni]] = nj
				cmap[next[ni]] = k
				next[ni]++
			}
		}
	}
	sym.cp, sym.ci, sym.cmap = cp, ci, cmap

	// Elimination tree (Liu's algorithm with path-compressing ancestors):
	// parent[i] = min{k > i : L(k,i) != 0}.
	ancestor := make([]int, n)
	for k := 0; k < n; k++ {
		sym.parent[k] = -1
		ancestor[k] = -1
		for p := cp[k]; p < cp[k+1]; p++ {
			for i := ci[p]; i != -1 && i < k; {
				inext := ancestor[i]
				ancestor[i] = k
				if inext == -1 {
					sym.parent[i] = k
				}
				i = inext
			}
		}
	}

	sym.planLanes()

	// Column counts of L by replaying the row patterns: row k of L is the
	// union of the etree paths from the entries of row k of C up to k
	// (ereach). Total work is O(nnz(L)). The trunk rows' patterns also
	// tally half B's entries in trunk rows per column, for the split.
	counts := make([]int, n)
	wmark := make([]int, n)
	for i := range wmark {
		wmark[i] = -1
	}
	for k := 0; k < n; k++ {
		wmark[k] = k
		counts[k]++ // diagonal
		for p := cp[k]; p < cp[k+1]; p++ {
			for i := ci[p]; wmark[i] != k; i = sym.parent[i] {
				wmark[i] = k
				counts[i]++
				if sp := sym.split; sp != nil && k >= sp.top && i >= sp.mid && i < sp.top {
					sp.headEnd[i-sp.mid]++
				}
			}
		}
	}
	for k := 0; k < n; k++ {
		sym.colPtr[k+1] = sym.colPtr[k] + counts[k]
	}
	if sp := sym.split; sp != nil && sym.LNNZ() < splitMinNNZ {
		sym.split = nil
	} else if sp != nil {
		for j := sp.mid; j < sp.top; j++ { // from a tally of trunk-row entries
			sp.headEnd[j-sp.mid] = sym.colPtr[j+1] - sp.headEnd[j-sp.mid]
		}
	}
	return sym, nil
}

// laneDepth is how many etree branching levels the lane schedules split
// before they pair whole subtrees. Each level re-aligns the two lanes of a
// pair on matching separators, and a masked solve skips a whole subtree off
// its closure; past a few levels the gain is flat (PERF.md, "Two halves on
// two goroutines").
const laneDepth = 6

// laneStep is one step of the backward pass: columns [a0, a1) descending,
// interleaved in lockstep with columns [b0, b1) descending. The two ranges
// are disjoint elimination subtrees (or chains of them), so neither lane
// reads a value the other writes; an empty B lane runs A alone.
type laneStep struct{ a0, a1, b0, b1 int }

// splitMinNNZ is the factor size below which a solve never splits: on
// smaller factors the second goroutine's start costs what the halves save
// (PERF.md, "Two halves on two goroutines"). It is a variable only so
// in-package tests can split small factors.
var splitMinNNZ = 1 << 17

// solveSplit divides a postordered elimination tree whose root trunk (its
// root and the chain of single children below it, for the grid: sink, rim
// and the top separator) branches into exactly two subtrees: half A is
// columns [0, mid), half B is [mid, top) and the trunk is [top, n). The two
// halves share no column and write no row of each other, so a solve can run
// them on two goroutines (SparseCholesky.solve).
type solveSplit struct {
	mid, top int
	a, b     []laneStep // each half's backward schedule, paired within the half
	// headEnd[j-mid] is where column j of half B reaches the trunk rows:
	// its entries from there on are the updates half B's forward pass
	// defers.
	headEnd []int
}

// planLanes derives the backward pass's lane schedules, and the split of the
// tree into two halves, from the elimination tree alone, so every factor of
// one pattern shares them. Column j of Lᵀ·z = y needs only its etree
// ancestors, so disjoint subtrees may run interleaved. Unless the order is a
// postorder (every subtree a contiguous column range) and the forest branches
// somewhere, there is no schedule (the backward pass is one descending column
// loop) and no split.
func (sym *CholSymbolic) planLanes() {
	n := sym.n
	first := make([]int, n) // lowest column in each subtree
	size := make([]int, n)
	for j := range first {
		first[j] = j
	}
	for j, p := range sym.parent {
		size[j]++
		if p != -1 {
			size[p] += size[j]
			first[p] = min(first[p], first[j])
		}
	}
	for j := range first {
		if first[j] != j-size[j]+1 {
			return
		}
	}
	// In a postorder the children of node r are r-1, first[r-1]-1, … down
	// to first[r]; the roots are those of a virtual node n.
	var roots []int
	for r := n - 1; r >= 0; r = first[r] - 1 {
		roots = append(roots, r)
	}
	steps, paired := laneLevels(first, roots, 0)
	if !paired {
		return
	}
	sym.lanes = steps

	// The trunk is the one root's chain of single children, or empty under
	// a forest; its lowest node (or the virtual root) must have two children.
	top := n
	if first[n-1] == 0 {
		for top = n - 1; top > 0 && first[top-1] == 0; top-- {
		}
	}
	if top == 0 {
		return
	}
	mid := first[top-1]
	if mid == 0 || first[mid-1] != 0 {
		return
	}
	a, _ := laneLevels(first, []int{mid - 1}, 1)
	b, _ := laneLevels(first, []int{top - 1}, 1)
	sym.split = &solveSplit{mid: mid, top: top, a: a, b: b, headEnd: make([]int, top-mid)}
}

// laneLevels schedules the subtrees rooted at frontier, which sit depth
// branching levels below the roots, level by level: the chain of each
// frontier subtree down to its first branching node (its trunk), with the
// trunks of one level paired, then the branching nodes' children as the next
// frontier; at laneDepth the frontier subtrees are paired whole, and an odd
// one out runs alone. It reports whether any step runs two lanes.
func laneLevels(first, frontier []int, depth int) (steps []laneStep, paired bool) {
	for ; len(frontier) > 0; depth++ {
		var next []int
		for i, r := range frontier {
			lo := r // the trunk: r and its chain of single children
			if depth == laneDepth {
				lo = first[r] // the whole subtree
			}
			for lo > first[lo] && first[lo-1] == first[lo] {
				lo--
			}
			for c := lo - 1; c >= first[lo]; c = first[c] - 1 {
				next = append(next, c)
			}
			if i%2 == 0 {
				steps = append(steps, laneStep{a0: lo, a1: r + 1})
			} else {
				steps[len(steps)-1].b0, steps[len(steps)-1].b1 = lo, r+1
				paired = true
			}
		}
		frontier = next
	}
	return steps, paired
}

// LNNZ returns the number of non-zeros the factor L will have (including the
// diagonal) — the exact fill, known before any numeric work.
func (sym *CholSymbolic) LNNZ() int { return sym.colPtr[sym.n] }

// samePattern reports whether s has the pattern the symbolic analysis was
// computed for. The common case — matrices produced by MapValues — shares the
// underlying index slices, making the check O(1).
func (sym *CholSymbolic) samePattern(s *Sparse) bool {
	if s.n != sym.n || len(s.cols) != len(sym.srcCols) {
		return false
	}
	if len(s.cols) == 0 {
		return true
	}
	if &s.rowPtr[0] == &sym.srcRowPtr[0] && &s.cols[0] == &sym.srcCols[0] {
		return true
	}
	for i, v := range s.rowPtr {
		if sym.srcRowPtr[i] != v {
			return false
		}
	}
	for i, v := range s.cols {
		if sym.srcCols[i] != v {
			return false
		}
	}
	return true
}

// Factorize runs the numeric factorization of s against this symbolic
// analysis. s must have exactly the pattern that was analysed (same row
// pointers and column indices); values are free to differ. It returns
// ErrNotSPD on a non-positive pivot.
func (sym *CholSymbolic) Factorize(s *Sparse) (*SparseCholesky, error) {
	if !sym.samePattern(s) {
		return nil, fmt.Errorf("%w: matrix pattern differs from the symbolic analysis", ErrShape)
	}
	n := sym.n
	ch := sym.newFactor(nil, true)

	// Up-looking factorization (Davis, "Direct Methods for Sparse Linear
	// Systems", cs_chol): for each row k, ereach gives the pattern of
	// L(k, 0:k); a sparse triangular solve against the columns built so far
	// yields the row's values, which are scattered into their columns.
	//
	// The reach is sorted so the row's columns are processed in ascending
	// order — a valid etree-topological order (parents always have larger
	// indices), chosen as the canonical operation order: every update term a
	// factor entry receives arrives in ascending source-column order. The
	// supernodal kernel reproduces exactly that order panel-at-a-time, which
	// is what makes the two factorizations bit-identical.
	x := make([]float64, n) // dense accumulator, all-zero between rows
	cnext := make([]int, n) // next free slot per column of L
	copy(cnext, sym.colPtr[:n])
	wmark := make([]int, n) // ereach visited marks, stamped by row
	for i := range wmark {
		wmark[i] = -1
	}
	stack := make([]int, n)
	path := make([]int, n)
	cp, ci, cmap := sym.cp, sym.ci, sym.cmap
	for k := 0; k < n; k++ {
		top := n
		wmark[k] = k
		for p := cp[k]; p < cp[k+1]; p++ {
			i := ci[p]
			x[i] = s.vals[cmap[p]]
			ln := 0
			for t := i; wmark[t] != k; t = sym.parent[t] {
				path[ln] = t
				ln++
				wmark[t] = k
			}
			for ln > 0 {
				ln--
				top--
				stack[top] = path[ln]
			}
		}
		sort.Ints(stack[top:])
		d := x[k]
		x[k] = 0
		for ; top < n; top++ {
			i := stack[top]
			lki := x[i] / ch.lx[ch.lp[i]]
			x[i] = 0
			for p := ch.lp[i] + 1; p < cnext[i]; p++ {
				x[ch.li[p]] -= ch.lx[p] * lki
			}
			d -= lki * lki
			q := cnext[i]
			cnext[i]++
			ch.li[q] = k
			ch.lx[q] = lki
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: non-positive pivot %g at column %d", ErrNotSPD, d, k)
		}
		q := cnext[k]
		cnext[k]++
		ch.li[q] = k
		ch.lx[q] = math.Sqrt(d)
	}
	ch.packTrunk()
	return ch, nil
}

// SparseCholesky is the numeric factor P·A·Pᵀ = L·Lᵀ of a sparse SPD matrix,
// stored column-compressed with the diagonal entry first in each column and
// row indices ascending. It is immutable after construction and safe for
// concurrent solves: the working set each solve needs comes from an
// internal pool, so SolveInto allocates nothing in steady state.
//
// An out-of-core factor (built by FactorizeSpill) stores values per panel in
// segs instead of the flat lx, with evicted panels living in the spill file
// and streamed back per solve pass; all solve entry points answer
// bit-identically either way. Close such a factor to release the spill file.
type SparseCholesky struct {
	sym    *CholSymbolic
	panels *SuperSymbolic // non-nil when built by SuperSymbolic.Factorize
	lp     []int          // column pointers (shared with sym.colPtr)
	li     []int          // row indices
	lx     []float64      // flat values; nil for out-of-core factors
	segs   [][]float64    // per-panel values (out-of-core); nil entry = spilled
	spill  *spillStore    // the spill file of an out-of-core factor; nil in core
	pool   *sync.Pool     // *solveScratch; apart, so a registered pool does not pin the factor
	trunk  trunkReplay    // in-core factors of a tree with a split

	spillStats SpillStats
}

// solveScratch is one solve's pooled working set: the permuted work vector,
// the bitset of the columns the solve answers, and for a split solve its
// factor, the phase each of its two goroutines has finished and the body of
// the one that runs half B, bound at the scratch's first split so starting
// it later allocates nothing. A pooled scratch holds no factor: the sync
// package keeps every used pool reachable until two collections pass, and
// the factor must not outlive its last holder by that long.
type solveScratch struct {
	w              []float64
	in             []uint64
	c              *SparseCholesky
	stageA, stageB atomic.Int32
	halfB          func()
}

// runHalfB is half B's goroutine of a split solve (see solve): its forward
// pass, its share of the trunk-row replay and its backward pass, each after
// half A's goroutine has finished the phase it depends on.
func (s *solveScratch) runHalfB() {
	c, sp := s.c, s.c.sym.split
	c.forward(s.w, s.in, sp.mid, sp.top, sp.headEnd)
	s.stageB.Store(1)
	await(&s.stageA, 1)
	c.replayTrunk(s.w, s.in, c.trunk.cut, len(c.trunk.ptr)-1)
	s.stageB.Store(2)
	await(&s.stageA, 2)
	c.backward(s.w, s.in, sp.b)
	s.stageB.Store(3)
}

// trunkReplay holds half B's entries in the trunk rows of a split tree,
// row-major: trunk row top+r has the columns cols[ptr[r]:ptr[r+1]], ascending,
// and their values in vals. A split solve's two goroutines replay them in
// parallel, rows [0, cut) on half A's and the rest on half B's. The packed
// copy costs 12 bytes per entry (about 7% of a 64² grid factor) and reads
// sequentially where the entries in L are scattered over column tails.
type trunkReplay struct {
	ptr  []int
	cols []int32
	vals []float64
	cut  int
}

// packTrunk builds the factor's trunkReplay once its values are final.
func (c *SparseCholesky) packTrunk() {
	sp := c.sym.split
	if sp == nil {
		return
	}
	t := &c.trunk
	t.ptr = make([]int, c.sym.n-sp.top+1)
	for j := sp.mid; j < sp.top; j++ {
		for p := sp.headEnd[j-sp.mid]; p < c.lp[j+1]; p++ {
			t.ptr[c.li[p]-sp.top+1]++
		}
	}
	for r := 1; r < len(t.ptr); r++ {
		t.ptr[r] += t.ptr[r-1]
	}
	total := t.ptr[len(t.ptr)-1]
	t.cols, t.vals = make([]int32, total), make([]float64, total)
	next := slices.Clone(t.ptr[:len(t.ptr)-1])
	for j := sp.mid; j < sp.top; j++ {
		for p := sp.headEnd[j-sp.mid]; p < c.lp[j+1]; p++ {
			r := c.li[p] - sp.top
			t.cols[next[r]], t.vals[next[r]] = int32(j), c.lx[p]
			next[r]++
		}
	}
	for t.cut < len(t.ptr)-1 && 2*t.ptr[t.cut] < total {
		t.cut++
	}
}

// newFactor builds the empty factor shell against this symbolic analysis.
// li may be a shared, already-built row-index array (the supernodal path);
// nil allocates one for the scalar factorization to fill. values=false skips
// the flat value array — the out-of-core path stores values per panel.
func (sym *CholSymbolic) newFactor(li []int, values bool) *SparseCholesky {
	n := sym.n
	if li == nil {
		li = make([]int, sym.LNNZ())
	}
	ch := &SparseCholesky{
		sym: sym,
		lp:  sym.colPtr,
		li:  li,
	}
	if values {
		ch.lx = make([]float64, sym.LNNZ())
	}
	ch.pool = &sync.Pool{New: func() any {
		return &solveScratch{w: make([]float64, n), in: make([]uint64, (n+63)/64)}
	}}
	return ch
}

// NewSparseCholesky analyses and factorizes s in one call under an RCM
// ordering — the convenience path for one-shot factorizations. Callers that
// factorize several matrices with one pattern should keep the CholSymbolic
// and call Factorize per matrix.
func NewSparseCholesky(s *Sparse) (*SparseCholesky, error) {
	sym, err := NewCholSymbolic(s, nil)
	if err != nil {
		return nil, err
	}
	return sym.Factorize(s)
}

// NNZ returns the non-zero count of the factor L (including the diagonal).
func (c *SparseCholesky) NNZ() int { return c.sym.LNNZ() }

// SpillStats reports what the out-of-core factorization did; the zero value
// for fully in-core factors.
func (c *SparseCholesky) SpillStats() SpillStats { return c.spillStats }

// Close releases the spill file backing an out-of-core factor. It is
// idempotent, a no-op for in-core factors, and must not race in-flight
// solves. A finalizer covers factors dropped without Close (e.g. LRU-evicted
// server systems), but calling Close is the prompt path.
func (c *SparseCholesky) Close() error {
	if c.spill == nil {
		return nil
	}
	return c.spill.close()
}

// panelVals returns panel sn's value segment and the global position of its
// first entry, streaming a spilled segment into *buf (cap ≥ the largest
// segment) when the panel is not resident.
func (c *SparseCholesky) panelVals(sn int, buf *[]float64) ([]float64, int, error) {
	off := c.panels.pbase[sn]
	if seg := c.segs[sn]; seg != nil {
		return seg, off, nil
	}
	dst := (*buf)[:c.panels.pbase[sn+1]-off]
	if err := c.spill.readPanel(sn, dst); err != nil {
		return nil, 0, err
	}
	return dst, off, nil
}

// Symbolic returns the symbolic analysis the factor was built against.
func (c *SparseCholesky) Symbolic() *CholSymbolic { return c.sym }

// Solve returns x with A·x = b.
func (c *SparseCholesky) Solve(b []float64) ([]float64, error) {
	x := make([]float64, c.sym.n)
	if err := c.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A·x = b into dst, mirroring the dense Cholesky API. It is
// SolveSparseInto with every column in the closure: an in-core factor runs
// the same one solve, which may run two halves of the elimination tree on a
// second goroutine (see solve), and an out-of-core factor streams its panels
// through the same per-column operations (SuperSymbolic.apply). dst may
// alias b: the right-hand side is fully gathered into an internal work
// vector before dst is written. The work vector is pooled, so the call is
// allocation-free in steady state and safe for concurrent use.
func (c *SparseCholesky) SolveInto(dst, b []float64) error {
	n := c.sym.n
	if len(b) != n || len(dst) != n {
		return fmt.Errorf("%w: SparseCholesky.SolveInto with len(dst)=%d, len(b)=%d, n=%d",
			ErrShape, len(dst), len(b), n)
	}
	s := c.pool.Get().(*solveScratch)
	defer c.pool.Put(s)
	for i := range s.in {
		s.in[i] = ^uint64(0)
	}
	return c.solveOn(s, dst, b)
}

// SolveSparseInto solves A·x = b for a *sparse* right-hand side and returns
// the solution only where it is cheap: nz lists the index of every
// (potentially) non-zero entry of b, and dst is exact on the
// elimination-tree closure of nz — every index of nz and all of its etree
// ancestors — and NaN everywhere else. Duplicates in nz are harmless; an
// index missing from nz whose b entry is non-zero silently yields a wrong
// answer, so nz must cover the support of b.
//
// Both triangular passes are restricted to the closure (Gilbert–Peierls for
// the forward pass; Amestoy et al., "Parallel computation of entries of
// A⁻¹", for the backward one). Column j of L updates only etree ancestors of
// j, so the forward pass never leaves the closure; every row index of a
// closure column is such an ancestor, so the backward pass reads only
// closure entries. Each column keeps its order of terms, so the closure
// entries are bit-identical to SolveInto on the same b. A caller that reads
// the solution only at the support (a thermal query reads only the active
// cells) skips the other columns: all of them in the forward pass, and in
// the backward pass every lane whose top column is off the closure (see
// solve). An out-of-core factor runs its full streamed solve,
// masked to the same closure. dst may alias b; the call is allocation-free
// in steady state and safe for concurrent use.
func (c *SparseCholesky) SolveSparseInto(dst, b []float64, nz []int) error {
	n := c.sym.n
	if len(b) != n || len(dst) != n {
		return fmt.Errorf("%w: SparseCholesky.SolveSparseInto with len(dst)=%d, len(b)=%d, n=%d",
			ErrShape, len(dst), len(b), n)
	}
	for _, i := range nz {
		if i < 0 || i >= n {
			return fmt.Errorf("%w: SolveSparseInto nz index %d out of range [0,%d)", ErrShape, i, n)
		}
	}
	s := c.pool.Get().(*solveScratch)
	defer c.pool.Put(s)
	in := s.in
	clear(in)
	pinv, parent := c.sym.pinv, c.sym.parent
	for _, i := range nz {
		for k := pinv[i]; k != -1 && !inSet(in, k); k = parent[k] {
			in[k>>6] |= 1 << (uint(k) & 63)
		}
	}
	return c.solveOn(s, dst, b)
}

// solveOn gathers b into s.w in elimination order, solves on the bitset
// s.in and writes dst: the solution on s.in, NaN elsewhere.
func (c *SparseCholesky) solveOn(s *solveScratch, dst, b []float64) error {
	perm := c.sym.perm
	for k, i := range perm {
		s.w[k] = b[i]
	}
	if err := c.solve(s); err != nil {
		return err
	}
	for k, i := range perm {
		dst[i] = math.NaN()
		if inSet(s.in, k) {
			dst[i] = s.w[k]
		}
	}
	return nil
}

// solve runs the forward (L·y = w) and backward (Lᵀ·z = y) triangular solves
// in place on the permuted right-hand side s.w, exact on the columns of the
// bitset s.in, which must be closed under etree ancestors. An out-of-core
// factor runs every column, panel at a time over streamed value segments
// (SuperSymbolic.apply); only it can fail.
//
// An in-core factor runs the forward pass over the closure's columns and the
// lane-scheduled backward pass, which advances two independent subtrees at
// once and skips every lane whose top column is off the closure. When the
// elimination tree splits in two halves (solveSplit), the closure reaches
// both and GOMAXPROCS leaves two processors to each solve in flight, the
// halves run on two goroutines (this one runs half A, a second half B):
//  1. Both halves' forward passes. Half A's writes the trunk rows directly;
//     half B's defers its trunk-row updates.
//  2. Half B's deferred updates, row by row in ascending column order after
//     half A's, each goroutine taking about half of the trunk rows.
//  3. The trunk's forward and backward passes, on half A's goroutine.
//  4. Both halves' backward passes, which read only their own rows and the
//     trunk's.
//
// Every entry receives the same operations in the same order on every path,
// so the results are bit-identical to the serial column loops.
func (c *SparseCholesky) solve(s *solveScratch) error {
	w, in := s.w, s.in
	if c.segs != nil {
		return c.panels.apply(c, w)
	}
	busy := solvesInFlight.Add(1)
	defer solvesInFlight.Add(-1)
	sp := c.splitFor(in, busy)
	if sp == nil {
		c.forward(w, in, 0, len(w), c.lp[1:])
		c.backward(w, in, c.sym.lanes)
		return nil
	}
	if s.halfB == nil {
		s.halfB = s.runHalfB
	}
	s.c = c
	s.stageA.Store(0)
	s.stageB.Store(0)
	go s.halfB()
	c.forward(w, in, 0, sp.mid, c.lp[1:])
	s.stageA.Store(1)
	await(&s.stageB, 1)
	c.replayTrunk(w, in, 0, c.trunk.cut)
	await(&s.stageB, 2)
	c.forward(w, in, sp.top, len(w), c.lp[sp.top+1:])
	c.backwardRange(w, sp.top, len(w))
	s.stageA.Store(2)
	c.backward(w, in, sp.a)
	await(&s.stageB, 3)
	s.c = nil
	return nil
}

// await waits until stage reaches v. It yields the processor between looks
// rather than parking: the other half of a split solve then runs even when
// no other processor is free, and a waiter that stays runnable is not woken
// through the operating system, which can cost tens of microseconds.
func await(stage *atomic.Int32, v int32) {
	for stage.Load() < v {
		runtime.Gosched()
	}
}

// solvesInFlight counts the in-core solves running in the process. It is
// process-wide on purpose: it stands for the processors that solves on any
// factor already occupy.
var solvesInFlight atomic.Int32

// splitFor returns the split a solve over the closure in runs on two
// goroutines, or nil when it runs on one: the tree has no split, the closure
// misses a half, or busy solves in flight (this one included) would leave
// fewer than two processors each.
func (c *SparseCholesky) splitFor(in []uint64, busy int32) *solveSplit {
	sp := c.sym.split
	if sp == nil || !inSet(in, sp.mid-1) || !inSet(in, sp.top-1) || 2*int(busy) > runtime.GOMAXPROCS(0) {
		return nil
	}
	return sp
}

// forward runs the forward pass over the columns of [lo, hi) in the bitset
// in, ascending; column j's entries end at ends[j-lo], which is lp[j+1] but
// for half B of a split solve, whose trunk-row updates wait for
// replayTrunk. A run of columns all in the bitset goes without a bit test
// per column, and each column's values and rows are sliced once, so the
// per-entry loop keeps them in registers and checks bounds only on w.
func (c *SparseCholesky) forward(w []float64, in []uint64, lo, hi int, ends []int) {
	lp, li, lx := c.lp, c.li, c.lx
	for j := nextIn(in, lo); j < hi; j = nextIn(in, j) {
		run := min(hi, j+bits.TrailingZeros64(^(in[j>>6]>>(uint(j)&63))))
		for ; j < run; j++ {
			p0, p1 := lp[j], ends[j-lo]
			yj := w[j] / lx[p0]
			w[j] = yj
			xs, is := lx[p0+1:p1], li[p0+1:p1]
			for q, x := range xs {
				w[is[q]] -= x * yj
			}
		}
	}
}

// replayTrunk applies half B's deferred updates to the trunk rows top+lo to
// top+hi-1, row by row: each row continues from half A's terms with half B's
// in ascending column order, the serial forward pass's order.
func (c *SparseCholesky) replayTrunk(w []float64, in []uint64, lo, hi int) {
	t, top := &c.trunk, c.sym.split.top
	for r := lo; r < hi; r++ {
		s := w[top+r]
		cols, xs := t.cols[t.ptr[r]:t.ptr[r+1]], t.vals[t.ptr[r]:t.ptr[r+1]]
		for e, x := range xs {
			if j := int(cols[e]); inSet(in, j) {
				s -= x * w[j]
			}
		}
		w[top+r] = s
	}
}

// backward solves Lᵀ·z = y in place on w over the lane schedule steps,
// skipping each lane whose top column is off the bitset in: the closure is
// closed under ancestors, so none of the lane's columns is in it. Each
// column is a chain of dependent subtractions, so a lone chain runs at
// floating-point latency; a paired step advances two independent chains at
// once. A nil schedule (the order is not a postorder) is one descending loop
// over the columns in in. Every column applies the same operations in the
// same order on every path, so the result is bit-identical to the serial
// loop.
func (c *SparseCholesky) backward(w []float64, in []uint64, steps []laneStep) {
	if steps == nil {
		for j := len(w) - 1; j >= 0; j-- {
			if inSet(in, j) {
				c.backwardRange(w, j, j+1)
			}
		}
		return
	}
	for _, st := range steps {
		a := inSet(in, st.a1-1)
		b := st.b1 > st.b0 && inSet(in, st.b1-1)
		switch {
		case a && b:
			c.backwardPair(w, st)
		case a:
			c.backwardRange(w, st.a0, st.a1)
		case b:
			c.backwardRange(w, st.b0, st.b1)
		}
	}
}

// backwardRange runs the backward pass over columns [lo, hi), descending.
func (c *SparseCholesky) backwardRange(w []float64, lo, hi int) {
	lp, li, lx := c.lp, c.li, c.lx
	for j := hi - 1; j >= lo; j-- {
		s := w[j]
		for p := lp[j] + 1; p < lp[j+1]; p++ {
			s -= lx[p] * w[li[p]]
		}
		w[j] = s / lx[lp[j]]
	}
}

// backwardPair runs the two lanes of st in lockstep: per column pair one
// fused loop over the shorter column's entries, then each column's tail.
// The longer lane finishes alone in the plain descending loop.
func (c *SparseCholesky) backwardPair(w []float64, st laneStep) {
	lp, li, lx := c.lp, c.li, c.lx
	ja, jb := st.a1-1, st.b1-1
	for ; ja >= st.a0 && jb >= st.b0; ja, jb = ja-1, jb-1 {
		pa, ea := lp[ja]+1, lp[ja+1]
		pb, eb := lp[jb]+1, lp[jb+1]
		m := min(ea-pa, eb-pb)
		xa, ia := lx[pa:pa+m], li[pa:pa+m]
		xb, ib := lx[pb:pb+m], li[pb:pb+m]
		sa, sb := w[ja], w[jb]
		for q := range xa {
			sa -= xa[q] * w[ia[q]]
			sb -= xb[q] * w[ib[q]]
		}
		for p := pa + m; p < ea; p++ {
			sa -= lx[p] * w[li[p]]
		}
		for p := pb + m; p < eb; p++ {
			sb -= lx[p] * w[li[p]]
		}
		w[ja] = sa / lx[lp[ja]]
		w[jb] = sb / lx[lp[jb]]
	}
	c.backwardRange(w, st.a0, ja+1)
	c.backwardRange(w, st.b0, jb+1)
}

// inSet reports whether column k is in the bitset in.
func inSet(in []uint64, k int) bool { return in[k>>6]>>(uint(k)&63)&1 != 0 }

// nextIn returns the lowest column k ≥ j in the bitset in, or a value of at
// least 64·len(in) when there is none.
func nextIn(in []uint64, j int) int {
	i := j >> 6
	if i >= len(in) {
		return j
	}
	word := in[i] >> (uint(j) & 63)
	for word == 0 {
		if i++; i == len(in) {
			return i << 6
		}
		word, j = in[i], i<<6
	}
	return j + bits.TrailingZeros64(word)
}
