package linalg

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/conc"
)

// The supernode partition has one shape. Panels are at most panelWidth
// columns wide: factorization is memory-traffic-bound, and on 64² to 256²
// grids 8 beat 32 at GOMAXPROCS 1, 2 and 4 (PERF.md, "One panel shape").
// Relaxed amalgamation merges two adjacent panels whose columns form one
// elimination-tree chain while the padded-zero slots of the merged panel stay
// within max(relaxZeros, relaxRatio·packed entries). Padding lives only in
// the per-task workspace — the CSC factor stores genuine entries only — so
// relaxation trades scratch zeros for fewer, wider panels. The shape never
// changes a factor's bits.
const (
	panelWidth = 8
	relaxZeros = 16
	relaxRatio = 0.10
)

// SuperSymbolic extends a CholSymbolic with a supernode partition: maximal
// runs of columns with (nearly) identical factor structure, grouped into
// dense panels. Construction is purely symbolic and shared — one SuperSymbolic
// serves every numeric factorization of matrices with the analysed pattern.
//
// The numeric factor it produces is bit-identical to CholSymbolic.Factorize's
// scalar up-looking factor: both apply, to every factor entry, the same
// multiset of IEEE-754 operations in the same order (update terms sorted by
// source column, each a separate subtraction), and padded workspace slots
// provably stay exact zeros, so blocking and etree-parallel scheduling change
// nothing in the bits.
type SuperSymbolic struct {
	sym *CholSymbolic

	ns      int     // panel count
	first   []int   // len ns+1: panel s covers columns [first[s], first[s+1])
	snode   []int32 // len n: column → panel index
	sparent []int   // len ns: quotient elimination tree (-1 = root, parent > child)
	rptr    []int   // len ns+1 into rows
	rows    []int32 // per-panel below-diagonal row lists, ascending
	uniform []bool  // panel has zero padding: every column's structure is the shared suffix
	padded  int64   // total padded workspace slots across panels

	// uptr/ulist: CSR lists of descendant panels that update each panel,
	// ascending — the left-looking schedule.
	uptr  []int
	ulist []int32

	// li is the factor's row-index array, built symbolically once (identical
	// to what the scalar numeric factorization writes) and shared by every
	// factor from this analysis.
	li []int

	// pbase[s] = colPtr[first[s]]: panel s's value segment is
	// lx[pbase[s]:pbase[s+1]] — the contiguous unit the out-of-core path
	// spills and streams.
	pbase []int

	// Column-oriented copy of tril(P·A·Pᵀ): column j's rows atr[atp[j]:atp[j+1]]
	// ascending, atv mapping each slot into the source matrix's vals.
	atp []int
	atr []int32
	atv []int32

	maxRows int // max packed row count (block + below) over panels
	maxW    int // max panel width

	pool *sync.Pool // *superScratch; apart, so a registered pool does not pin the analysis
}

// superScratch is one factorization task's workspace: the column-major frontal
// panel W (all-zero between uses), the global-row → panel-row map, and the
// target-row scratch of the blocked update kernel.
type superScratch struct {
	W     []float64 // maxRows*maxW
	local []int32   // n; only entries for the active panel's packed rows are live
	tloc  []int32   // maxRows
}

// Supernodes builds the supernode partition for this symbolic analysis.
func (sym *CholSymbolic) Supernodes() *SuperSymbolic {
	return sym.supernodes(panelWidth, relaxZeros, relaxRatio)
}

// supernodes builds the partition with panels at most width columns wide and
// the relaxation bound max(zeros, ratio·packed); zeros and ratio both <= 0
// turn relaxation off. Supernodes passes the one shape; property tests vary
// it.
func (sym *CholSymbolic) supernodes(width, zeros int, ratio float64) *SuperSymbolic {
	n := sym.n
	ss := &SuperSymbolic{sym: sym}

	// Replay the scalar factorization's fill symbolically to build li: for
	// each row k, ereach(k) gives the columns that receive row k, and the
	// per-column next-slot pointers append in exactly the scalar order —
	// diagonal first, then rows ascending.
	li := make([]int, sym.LNNZ())
	next := make([]int, n)
	copy(next, sym.colPtr[:n])
	wmark := make([]int, n)
	for i := range wmark {
		wmark[i] = -1
	}
	cp, ci, parent := sym.cp, sym.ci, sym.parent
	for k := 0; k < n; k++ {
		wmark[k] = k
		li[next[k]] = k
		next[k]++
		for p := cp[k]; p < cp[k+1]; p++ {
			for i := ci[p]; wmark[i] != k; i = parent[i] {
				wmark[i] = k
				li[next[i]] = k
				next[i]++
			}
		}
	}
	ss.li = li

	counts := func(j int) int { return sym.colPtr[j+1] - sym.colPtr[j] }

	// Fundamental supernodes: column j extends the run when it is the etree
	// parent of j-1 and its structure is struct(j-1) minus one row — then
	// struct(run) is one shared suffix and the panel is padding-free.
	type group struct {
		f, l    int
		below   []int32 // rows beyond the block, ascending
		genuine int64   // sum of scalar column counts
		pad     int64
	}
	belowOf := func(f, l int) []int32 {
		// struct(f) = {f..l-1} ∪ below for a fundamental run.
		lo, hi := sym.colPtr[f]+(l-f), sym.colPtr[f+1]
		b := make([]int32, hi-lo)
		for i := lo; i < hi; i++ {
			b[i-lo] = int32(li[i])
		}
		return b
	}
	var groups []group
	for f := 0; f < n; {
		l := f + 1
		for l < n && parent[l-1] == l && counts(l-1) == counts(l)+1 {
			l++
		}
		var gen int64
		for j := f; j < l; j++ {
			gen += int64(counts(j))
		}
		// Split runs wider than width into balanced chunks; a chunk of a
		// fundamental run is itself padding-free (later chunk columns become
		// genuine below rows of earlier chunks).
		if w := l - f; w > width {
			nchunks := (w + width - 1) / width
			tail := belowOf(f, l)
			for c := 0; c < nchunks; c++ {
				a := f + c*w/nchunks
				b := f + (c+1)*w/nchunks
				var g int64
				for j := a; j < b; j++ {
					g += int64(counts(j))
				}
				bl := make([]int32, 0, (l-b)+len(tail))
				for j := b; j < l; j++ {
					bl = append(bl, int32(j))
				}
				bl = append(bl, tail...)
				groups = append(groups, group{f: a, l: b, below: bl, genuine: g})
			}
		} else {
			groups = append(groups, group{f: f, l: l, below: belowOf(f, l), genuine: gen})
		}
		f = l
	}

	// Relaxed amalgamation: greedily merge an adjacent pair whose columns
	// stay one etree chain (parent of the left group's last column is the
	// right group's first), whose merged width fits width, and whose
	// padding stays within the relax bound. Merges are restricted to
	// etree-adjacent pairs so every panel's columns form an etree path —
	// that keeps the quotient supernodal etree a tree that preserves
	// ancestor order, which the parallel schedule depends on.
	relax := zeros > 0 || ratio > 0
	merged := groups[:0]
	for _, g := range groups {
		for relax && len(merged) > 0 {
			c := &merged[len(merged)-1]
			w := g.l - c.f
			if w > width || parent[c.l-1] != g.f {
				break
			}
			// Merged below rows: the left group's rows past the right
			// group's block, unioned with the right group's rows.
			nb := make([]int32, 0, len(c.below)+len(g.below))
			i, j := 0, 0
			for i < len(c.below) && int(c.below[i]) < g.l {
				i++
			}
			for i < len(c.below) || j < len(g.below) {
				switch {
				case i == len(c.below):
					nb = append(nb, g.below[j])
					j++
				case j == len(g.below):
					nb = append(nb, c.below[i])
					i++
				case c.below[i] < g.below[j]:
					nb = append(nb, c.below[i])
					i++
				case c.below[i] > g.below[j]:
					nb = append(nb, g.below[j])
					j++
				default:
					nb = append(nb, c.below[i])
					i++
					j++
				}
			}
			packed := int64(w)*int64(len(nb)) + int64(w)*int64(w+1)/2
			gen := c.genuine + g.genuine
			pad := packed - gen
			bound := int64(zeros)
			if rb := int64(ratio * float64(packed)); rb > bound {
				bound = rb
			}
			if pad > bound {
				break
			}
			g = group{f: c.f, l: g.l, below: nb, genuine: gen, pad: pad}
			merged = merged[:len(merged)-1]
		}
		merged = append(merged, g)
	}
	groups = merged

	// Final assembly.
	ns := len(groups)
	ss.ns = ns
	ss.first = make([]int, ns+1)
	ss.snode = make([]int32, n)
	ss.sparent = make([]int, ns)
	ss.rptr = make([]int, ns+1)
	ss.uniform = make([]bool, ns)
	nrows := 0
	for s, g := range groups {
		ss.first[s] = g.f
		for j := g.f; j < g.l; j++ {
			ss.snode[j] = int32(s)
		}
		nrows += len(g.below)
		ss.rptr[s+1] = nrows
		ss.uniform[s] = g.pad == 0
		ss.padded += g.pad
		if w := g.l - g.f; w > ss.maxW {
			ss.maxW = w
		}
		if nr := (g.l - g.f) + len(g.below); nr > ss.maxRows {
			ss.maxRows = nr
		}
	}
	ss.first[ns] = n
	ss.pbase = make([]int, ns+1)
	for s := 0; s <= ns; s++ {
		ss.pbase[s] = sym.colPtr[ss.first[s]]
	}
	ss.rows = make([]int32, 0, nrows)
	for s, g := range groups {
		ss.rows = append(ss.rows, g.below...)
		p := -1
		if g.l < n {
			if pc := parent[g.l-1]; pc >= 0 {
				p = int(ss.snode[pc])
			}
		}
		ss.sparent[s] = p
	}

	// Updater lists: panel d updates panel s when a below row of d falls in
	// s's column range. rows are ascending and snode is monotone, so
	// adjacent dedup suffices, and iterating d ascending leaves each list
	// sorted — the left-looking application order.
	ss.uptr = make([]int, ns+1)
	for d := 0; d < ns; d++ {
		last := int32(-1)
		for _, r := range ss.rows[ss.rptr[d]:ss.rptr[d+1]] {
			if s := ss.snode[r]; s != last {
				ss.uptr[s+1]++
				last = s
			}
		}
	}
	for s := 0; s < ns; s++ {
		ss.uptr[s+1] += ss.uptr[s]
	}
	ss.ulist = make([]int32, ss.uptr[ns])
	unext := make([]int, ns)
	copy(unext, ss.uptr[:ns])
	for d := 0; d < ns; d++ {
		last := int32(-1)
		for _, r := range ss.rows[ss.rptr[d]:ss.rptr[d+1]] {
			if s := ss.snode[r]; s != last {
				ss.ulist[unext[s]] = int32(d)
				unext[s]++
				last = s
			}
		}
	}

	// Column-oriented tril(P·A·Pᵀ) so panel initialization is a column
	// gather (the symbolic analysis stores it row-oriented).
	ss.atp = make([]int, n+1)
	for _, j := range ci {
		ss.atp[j+1]++
	}
	for j := 0; j < n; j++ {
		ss.atp[j+1] += ss.atp[j]
	}
	ss.atr = make([]int32, len(ci))
	ss.atv = make([]int32, len(ci))
	anext := make([]int, n)
	copy(anext, ss.atp[:n])
	for k := 0; k < n; k++ {
		for p := cp[k]; p < cp[k+1]; p++ {
			j := ci[p]
			ss.atr[anext[j]] = int32(k)
			ss.atv[anext[j]] = int32(sym.cmap[p])
			anext[j]++
		}
	}

	rows, width := ss.maxRows, ss.maxW
	ss.pool = &sync.Pool{New: func() any {
		return &superScratch{
			W:     make([]float64, rows*width),
			local: make([]int32, n),
			tloc:  make([]int32, rows),
		}
	}}
	return ss
}

// Panels returns the number of supernode panels.
func (ss *SuperSymbolic) Panels() int { return ss.ns }

// MaxPanelWidth returns the widest panel's column count.
func (ss *SuperSymbolic) MaxPanelWidth() int { return ss.maxW }

// PaddedZeros returns the total padded workspace slots relaxation introduced.
func (ss *SuperSymbolic) PaddedZeros() int64 { return ss.padded }

// WorkspaceBytes returns the frontal workspace size one factorization task
// holds — the peak transient memory per worker beyond the factor itself.
func (ss *SuperSymbolic) WorkspaceBytes() int64 {
	return int64(ss.maxRows)*int64(ss.maxW)*8 + int64(ss.sym.n)*4 + int64(ss.maxRows)*4
}

// InCoreBytes returns what an in-core factorization holds resident: the
// factor's row indices and values plus one frontal workspace. FactorizeSpill
// factors in core exactly when this fits its budget.
func (ss *SuperSymbolic) InCoreBytes() int64 {
	return int64(ss.sym.LNNZ())*16 + ss.WorkspaceBytes()
}

// Factorize runs the supernodal numeric factorization of s. The result is
// bit-identical to sym.Factorize(s) — same lp/li/lx down to the float bits —
// but computed panel-at-a-time with dense inner loops, with independent
// elimination subtrees factoring concurrently across GOMAXPROCS workers.
func (ss *SuperSymbolic) Factorize(s *Sparse) (*SparseCholesky, error) {
	if !ss.sym.samePattern(s) {
		return nil, fmt.Errorf("%w: matrix pattern differs from the symbolic analysis", ErrShape)
	}
	ch := ss.sym.newFactor(ss.li, true)
	ch.panels = ss
	lp, li, lx := ch.lp, ch.li, ch.lx

	// The in-core segment accessor: every panel lives in the single lx
	// array at its global offsets.
	incore := func(int) ([]float64, int, error) { return lx, 0, nil }
	task := func(sn int) error {
		sc := ss.pool.Get().(*superScratch)
		err := ss.factorPanel(sn, s, lp, li, sc, incore)
		ss.pool.Put(sc)
		return err
	}

	if err := conc.Tree(runtime.GOMAXPROCS(0), ss.sparent, task); err != nil {
		return nil, err
	}
	ch.packTrunk()
	return ch, nil
}

// factorPanel runs the left-looking numeric factorization of one panel
// against the segment accessor seg, which returns a panel's value slice and
// the global position of its first entry (so positions computed from lp index
// as vals[pos-off]). The in-core path passes the whole lx with offset 0; the
// out-of-core path serves resident or reloaded segments. A slice returned by
// seg is only used until the next seg call, which is what lets the spill
// controller evict behind the accessor. sc.W is all-zero on entry and on
// every return.
func (ss *SuperSymbolic) factorPanel(sn int, s *Sparse, lp, li []int, sc *superScratch, seg func(d int) ([]float64, int, error)) error {
	f, l := ss.first[sn], ss.first[sn+1]
	w := l - f
	rowsB := ss.rows[ss.rptr[sn]:ss.rptr[sn+1]]
	nr := w + len(rowsB)
	W := sc.W[:nr*w]
	local := sc.local
	for t := 0; t < w; t++ {
		local[f+t] = int32(t)
	}
	for t, r := range rowsB {
		local[r] = int32(w + t)
	}
	// Seed the panel with A's columns (W is all-zero between tasks).
	for c := 0; c < w; c++ {
		j := f + c
		Wc := W[c*nr : (c+1)*nr]
		for p := ss.atp[j]; p < ss.atp[j+1]; p++ {
			Wc[local[ss.atr[p]]] = s.vals[ss.atv[p]]
		}
	}
	// Left-looking updates from finished descendant panels, ascending —
	// so every target entry sees its subtraction terms in ascending
	// source-column order, exactly the scalar schedule.
	for _, d32 := range ss.ulist[ss.uptr[sn]:ss.uptr[sn+1]] {
		d := int(d32)
		df, dl := ss.first[d], ss.first[d+1]
		rowsD := ss.rows[ss.rptr[d]:ss.rptr[d+1]]
		q0 := sort.Search(len(rowsD), func(q int) bool { return int(rowsD[q]) >= f })
		nq := len(rowsD) - q0
		if nq == 0 {
			continue
		}
		dx, doff, err := seg(d)
		if err != nil {
			clear(W)
			return err
		}
		if ss.uniform[d] {
			// Every column of d genuinely holds the shared row suffix,
			// so entry positions are arithmetic: column i's below rows
			// start at lp[i]+1+(dl-1-i). The source columns advance
			// four at a time; per target entry the four subtractions
			// stay separate, ordered operations.
			tloc := sc.tloc[:nq]
			for t := 0; t < nq; t++ {
				tloc[t] = local[rowsD[q0+t]]
			}
			for t1 := 0; t1 < nq; t1++ {
				j := int(rowsD[q0+t1])
				if j >= l {
					break
				}
				Wc := W[(j-f)*nr : (j-f+1)*nr]
				i := df
				for ; i+3 < dl; i += 4 {
					b0 := lp[i] + 1 + (dl - 1 - i) + q0 - doff
					b1 := lp[i+1] + 1 + (dl - 2 - i) + q0 - doff
					b2 := lp[i+2] + 1 + (dl - 3 - i) + q0 - doff
					b3 := lp[i+3] + 1 + (dl - 4 - i) + q0 - doff
					v0 := dx[b0 : b0+nq]
					v1 := dx[b1 : b1+nq]
					v2 := dx[b2 : b2+nq]
					v3 := dx[b3 : b3+nq]
					l0, l1, l2, l3 := v0[t1], v1[t1], v2[t1], v3[t1]
					for t2 := t1; t2 < nq; t2++ {
						x := Wc[tloc[t2]]
						x -= v0[t2] * l0
						x -= v1[t2] * l1
						x -= v2[t2] * l2
						x -= v3[t2] * l3
						Wc[tloc[t2]] = x
					}
				}
				for ; i < dl; i++ {
					b := lp[i] + 1 + (dl - 1 - i) + q0 - doff
					v := dx[b : b+nq]
					lj := v[t1]
					for t2 := t1; t2 < nq; t2++ {
						Wc[tloc[t2]] -= v[t2] * lj
					}
				}
			}
		} else {
			// Non-uniform panel: walk its columns through the CSC
			// factor directly. Same per-entry operation order.
			for i := df; i < dl; i++ {
				p0, pEnd := lp[i]+1, lp[i+1]
				p1 := p0 + sort.Search(pEnd-p0, func(q int) bool { return li[p0+q] >= f })
				for ; p1 < pEnd && li[p1] < l; p1++ {
					Wc := W[(li[p1]-f)*nr : (li[p1]-f+1)*nr]
					lji := dx[p1-doff]
					for p2 := p1; p2 < pEnd; p2++ {
						Wc[local[li[p2]]] -= dx[p2-doff] * lji
					}
				}
			}
		}
	}
	// Dense in-panel factorization: sqrt/scale column c, then
	// right-looking updates into the columns to its right — per entry,
	// the in-panel source columns arrive ascending, after all
	// descendant columns, completing the scalar order.
	for c := 0; c < w; c++ {
		Wc := W[c*nr : (c+1)*nr]
		d := Wc[c]
		if d <= 0 || math.IsNaN(d) {
			clear(W)
			return fmt.Errorf("%w: non-positive pivot %g at column %d", ErrNotSPD, d, f+c)
		}
		d = math.Sqrt(d)
		Wc[c] = d
		for t := c + 1; t < nr; t++ {
			Wc[t] /= d
		}
		for c2 := c + 1; c2 < w; c2++ {
			ljc := Wc[c2]
			W2 := W[c2*nr : (c2+1)*nr]
			for t := c2; t < nr; t++ {
				W2[t] -= Wc[t] * ljc
			}
		}
	}
	// Scatter genuine entries back; padded slots (exact zeros — see the
	// type comment) are skipped because li lists only genuine rows. The
	// target's segment is requested only now, after every descendant read:
	// the out-of-core path allocates it on first touch, so the budget never
	// holds an unfinished panel and the frontal scratch simultaneously with
	// stale descendants.
	tx, toff, err := seg(sn)
	if err != nil {
		clear(W)
		return err
	}
	for c := 0; c < w; c++ {
		j := f + c
		Wc := W[c*nr:]
		for p := lp[j]; p < lp[j+1]; p++ {
			tx[p-toff] = Wc[local[li[p]]]
		}
	}
	clear(W)
	return nil
}

// apply runs the forward and backward triangular solves on one permuted
// right-hand side w for an out-of-core factor, panel at a time: each pass
// streams a spilled panel's value segment into a pooled buffer as it reaches
// the panel (so the resident overhead per solve is one max-size segment) and
// runs that panel's columns as the in-core column loops do, indexing the
// segment at p-off. Every entry receives the same subtractions in the same
// order as SolveInto on an in-core factor, so the results are bit-identical.
func (ss *SuperSymbolic) apply(c *SparseCholesky, w []float64) error {
	lp, li := c.lp, c.li
	var segBuf *[]float64
	if c.spill != nil {
		segBuf = c.spill.pool.Get().(*[]float64)
		defer c.spill.pool.Put(segBuf)
	}
	for sn := 0; sn < ss.ns; sn++ {
		lx, off, err := c.panelVals(sn, segBuf)
		if err != nil {
			return err
		}
		for j := ss.first[sn]; j < ss.first[sn+1]; j++ {
			yj := w[j] / lx[lp[j]-off]
			w[j] = yj
			for p := lp[j] + 1; p < lp[j+1]; p++ {
				w[li[p]] -= lx[p-off] * yj
			}
		}
	}
	for sn := ss.ns - 1; sn >= 0; sn-- {
		lx, off, err := c.panelVals(sn, segBuf)
		if err != nil {
			return err
		}
		for j := ss.first[sn+1] - 1; j >= ss.first[sn]; j-- {
			s := w[j]
			for p := lp[j] + 1; p < lp[j+1]; p++ {
				s -= lx[p-off] * w[li[p]]
			}
			w[j] = s / lx[lp[j]-off]
		}
	}
	return nil
}
