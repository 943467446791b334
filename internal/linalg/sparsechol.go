package linalg

import (
	"fmt"
	"math"
	"sort"
	"sync"
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
	// of the elimination tree (see backwardLanes).
	lanes []laneStep

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

	// Column counts of L by replaying the row patterns: row k of L is the
	// union of the etree paths from the entries of row k of C up to k
	// (ereach). Total work is O(nnz(L)).
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
			}
		}
	}
	for k := 0; k < n; k++ {
		sym.colPtr[k+1] = sym.colPtr[k] + counts[k]
	}
	sym.lanes = backwardLanes(sym.parent)
	return sym, nil
}

// laneDepth is how many etree branching levels backwardLanes splits before
// it pairs whole subtrees. Each level re-aligns the two lanes of a pair on
// matching separators; past a few levels the gain is flat (PERF.md,
// "interleaved elimination subtrees").
const laneDepth = 4

// laneStep is one step of the backward pass: columns [a0, a1) descending,
// interleaved in lockstep with columns [b0, b1) descending. The two ranges
// are disjoint elimination subtrees (or chains of them), so neither lane
// reads a value the other writes; an empty B lane runs A alone.
type laneStep struct{ a0, a1, b0, b1 int }

// backwardLanes derives the backward pass's lane schedule from the
// elimination tree alone, so every factor of one pattern shares it. Column j
// of Lᵀ·z = y needs only its etree ancestors, so disjoint subtrees may run
// interleaved. The schedule is level by level from the roots: the chain of
// each frontier subtree down to its first branching node (the trunk), with
// the trunks of one level paired, then the branching nodes' children as the
// next frontier; at laneDepth the frontier subtrees are paired whole. Unless
// the order is a postorder (every subtree a contiguous column range) and the
// forest branches somewhere, the schedule is one serial step over all
// columns.
func backwardLanes(parent []int) []laneStep {
	n := len(parent)
	serial := []laneStep{{a1: n}}
	first := make([]int, n) // lowest column in each subtree
	size := make([]int, n)
	for j := range first {
		first[j] = j
	}
	for j, p := range parent {
		size[j]++
		if p != -1 {
			size[p] += size[j]
			first[p] = min(first[p], first[j])
		}
	}
	for j := range first {
		if first[j] != j-size[j]+1 {
			return serial
		}
	}
	// In a postorder the children of node r are r-1, first[r-1]-1, … down
	// to first[r]; the roots are those of a virtual node n.
	var frontier []int
	for r := n - 1; r >= 0; r = first[r] - 1 {
		frontier = append(frontier, r)
	}
	var steps []laneStep
	paired := false
	for depth := 0; len(frontier) > 0; depth++ {
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
	if !paired {
		return serial
	}
	return steps
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
	return ch, nil
}

// SparseCholesky is the numeric factor P·A·Pᵀ = L·Lᵀ of a sparse SPD matrix,
// stored column-compressed with the diagonal entry first in each column and
// row indices ascending. It is immutable after construction and safe for
// concurrent solves: the permuted work vector each solve needs comes from an
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
	spill  *spillStore    // nil unless some panel is on disk
	pool   sync.Pool      // *[]float64 scratch, len n
	spPool sync.Pool      // *[]uint64 closure bitset for sparse-RHS solves

	spillStats SpillStats
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
	ch.pool.New = func() any {
		b := make([]float64, n)
		return &b
	}
	ch.spPool.New = func() any {
		b := make([]uint64, (n+63)/64)
		return &b
	}
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

// SolveInto solves A·x = b into dst, mirroring the dense Cholesky API; an
// in-core factor runs the column loops, with the backward pass lane-paired
// over disjoint elimination subtrees, and an out-of-core factor streams its
// panels through the same per-column operations (see applyFactor). dst may alias
// b: the right-hand side is fully gathered into an internal work vector
// before dst is written. The work vector is pooled, so the call is
// allocation-free in steady state and safe for concurrent use.
func (c *SparseCholesky) SolveInto(dst, b []float64) error {
	n := c.sym.n
	if len(b) != n || len(dst) != n {
		return fmt.Errorf("%w: SparseCholesky.SolveInto with len(dst)=%d, len(b)=%d, n=%d",
			ErrShape, len(dst), len(b), n)
	}
	wp := c.pool.Get().(*[]float64)
	w := *wp
	perm := c.sym.perm
	for k := 0; k < n; k++ {
		w[k] = b[perm[k]]
	}
	if err := c.applyFactor(w); err != nil {
		c.pool.Put(wp)
		return err
	}
	for k := 0; k < n; k++ {
		dst[perm[k]] = w[k]
	}
	c.pool.Put(wp)
	return nil
}

// applyFactor runs the forward (L·y = w) and backward (Lᵀ·z = y) triangular
// solves in place on one permuted right-hand side w. An in-core factor runs
// the column loops: forwardColumn over each column sliced once, and the
// lane-scheduled backward pass, which advances two independent subtrees at
// once. An out-of-core factor runs the same column loops panel at a time
// over streamed value segments (SuperSymbolic.apply). Both apply every
// per-entry operation in the same order, so they are bit-identical. Only the
// out-of-core streaming path can fail.
func (c *SparseCholesky) applyFactor(w []float64) error {
	if c.segs != nil {
		return c.panels.apply(c, w)
	}
	for j := range w {
		c.forwardColumn(w, j)
	}
	c.backward(w)
	return nil
}

// forwardColumn eliminates column j of L from one in-core permuted RHS w.
// The column's values and rows are sliced once, so the per-entry loop keeps
// them in registers and checks bounds only on w; the operations and their
// order are those of the plain loop over lp[j]+1 … lp[j+1]-1.
func (c *SparseCholesky) forwardColumn(w []float64, j int) {
	p0, p1 := c.lp[j], c.lp[j+1]
	yj := w[j] / c.lx[p0]
	w[j] = yj
	xs, is := c.lx[p0+1:p1], c.li[p0+1:p1]
	for q, x := range xs {
		w[is[q]] -= x * yj
	}
}

// backward solves Lᵀ·z = y in place on one in-core permuted RHS w, following
// the symbolic analysis's lane schedule. Each column is a chain of dependent
// subtractions, so a lone chain runs at floating-point latency; a paired step
// advances two independent chains at once. Every column still applies the
// same operations in the same order, so the result is bit-identical to the
// serial loop.
func (c *SparseCholesky) backward(w []float64) {
	for _, st := range c.sym.lanes {
		c.backwardPair(w, st)
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

// closureShare is the share of L's non-zeros past which SolveSparseInto
// runs the full, lane-scheduled solve instead of the closure loops. On 64²
// thermal grids the closure loops cost about 1.3× the full solve per
// non-zero, so the two break even near three quarters (PERF.md, "Closure
// solve").
const closureShare = 0.75

// SolveSparseInto solves A·x = b for a *sparse* right-hand side and returns
// the solution only where it is cheap: nz lists the index of every
// (potentially) non-zero entry of b, and dst is exact on the
// elimination-tree closure of nz — every index of nz and all of its etree
// ancestors — and NaN everywhere else. Duplicates in nz are harmless; an
// index missing from nz whose b entry is non-zero silently yields a wrong
// answer, so nz must cover the support of b.
//
// Both triangular passes run over the closure alone (Gilbert–Peierls for
// the forward pass; Amestoy et al., "Parallel computation of entries of
// A⁻¹", for the backward one). Column j of L updates only etree ancestors of
// j, so the forward pass never leaves the closure; every row index of a
// closure column is such an ancestor, so the backward pass over the closure,
// descending, reads only closure entries. Each column keeps its order of
// terms, so the closure entries are bit-identical to SolveInto on the same
// b. A caller that reads the solution only at the support (a thermal query
// reads only the active cells) skips every other column twice.
//
// Once the closure's columns hold a large share of L's non-zeros, the
// closure loops, which test every column against the closure's bitset and
// run one column at a time, cost more than the skipped columns save; past closureShare the full
// lane-scheduled solve runs instead, and its answer is masked to the same
// closure, so the result does not depend on which path ran. dst may alias
// b; the call is allocation-free in steady state and safe for concurrent
// use.
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
	inp := c.spPool.Get().(*[]uint64)
	defer c.spPool.Put(inp)
	in := *inp
	clear(in)
	pinv, parent, lp := c.sym.pinv, c.sym.parent, c.lp
	lnz := 0
	for _, i := range nz {
		for k := pinv[i]; k != -1 && !inSet(in, k); k = parent[k] {
			in[k>>6] |= 1 << (uint(k) & 63)
			lnz += lp[k+1] - lp[k]
		}
	}
	wp := c.pool.Get().(*[]float64)
	defer c.pool.Put(wp)
	w, perm := *wp, c.sym.perm
	for k, i := range perm { // the closure loops read only closure entries
		w[k] = b[i]
	}
	if c.segs != nil || float64(lnz) > closureShare*float64(c.sym.LNNZ()) {
		// An out-of-core factor always runs the full solve: it has no flat
		// lx for the closure loops to walk.
		if err := c.applyFactor(w); err != nil {
			return err
		}
	} else {
		// Both passes visit the closure in column order, so their terms
		// arrive as they do in SolveInto; scanning the set costs less than
		// sorting the closure.
		for j := range w {
			if inSet(in, j) {
				c.forwardColumn(w, j)
			}
		}
		li, lx := c.li, c.lx
		for j := len(w) - 1; j >= 0; j-- {
			if !inSet(in, j) {
				continue
			}
			s := w[j]
			for p := lp[j] + 1; p < lp[j+1]; p++ {
				s -= lx[p] * w[li[p]]
			}
			w[j] = s / lx[lp[j]]
		}
	}
	for k, i := range perm {
		dst[i] = math.NaN()
		if inSet(in, k) {
			dst[i] = w[k]
		}
	}
	return nil
}

// inSet reports whether column k is in the bitset in.
func inSet(in []uint64, k int) bool { return in[k>>6]>>(uint(k)&63)&1 != 0 }
