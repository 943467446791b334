package linalg

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrNoConverge is returned when an iterative solver exhausts its iteration
// budget without reaching the requested tolerance.
var ErrNoConverge = errors.New("linalg: iterative solver did not converge")

// coo is one coordinate-format entry during sparse assembly; key packs
// (row, col) as row<<32 | col, so key order is row-major order.
type coo struct {
	key uint64
	v   float64
}

// SparseBuilder accumulates stencil entries (duplicates are summed) and
// compiles them into a CSR matrix. This is the natural interface for
// assembling conductance matrices: call Add for every conductance and
// AddDiag for ground ties, then Build once.
type SparseBuilder struct {
	n       int
	entries []coo
}

// NewSparseBuilder creates a builder for an n×n matrix, n ≤ 2³² (packed keys).
func NewSparseBuilder(n int) *SparseBuilder {
	if n <= 0 || uint64(n) > 1<<32 {
		panic(fmt.Sprintf("linalg: invalid sparse dimension %d", n))
	}
	return &SparseBuilder{n: n}
}

// Add accumulates v at (i, j).
func (b *SparseBuilder) Add(i, j int, v float64) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("linalg: sparse index (%d,%d) out of range for n=%d", i, j, b.n))
	}
	b.entries = append(b.entries, coo{uint64(i)<<32 | uint64(j), v})
}

// AddConductance inserts the symmetric stencil of a conductance g between
// nodes a and b: +g on both diagonals, −g off-diagonal.
func (b *SparseBuilder) AddConductance(a, c int, g float64) {
	b.Add(a, a, g)
	b.Add(c, c, g)
	b.Add(a, c, -g)
	b.Add(c, a, -g)
}

// AddGround inserts a conductance from node a to the eliminated ground node
// (diagonal only).
func (b *SparseBuilder) AddGround(a int, g float64) { b.Add(a, a, g) }

// Build compiles the accumulated entries into CSR form, summing duplicates in
// sorted order — pdqsort's, which slices.SortFunc shares with sort.Slice. A
// stable sort would change the last bits of summed diagonals.
func (b *SparseBuilder) Build() *Sparse {
	slices.SortFunc(b.entries, func(x, y coo) int { return cmp.Compare(x.key, y.key) })
	s := &Sparse{n: b.n, rowPtr: make([]int, b.n+1)}
	for k := 0; k < len(b.entries); {
		key := b.entries[k].key
		v := 0.0
		for ; k < len(b.entries) && b.entries[k].key == key; k++ {
			v += b.entries[k].v
		}
		if v != 0 {
			s.cols = append(s.cols, int(key&(1<<32-1)))
			s.vals = append(s.vals, v)
			s.rowPtr[key>>32+1]++
		}
	}
	for i := 0; i < b.n; i++ {
		s.rowPtr[i+1] += s.rowPtr[i]
	}
	return s
}

// Sparse is an immutable CSR (compressed sparse row) matrix.
type Sparse struct {
	n      int
	rowPtr []int
	cols   []int
	vals   []float64
}

// NNZ returns the number of stored non-zeros.
func (s *Sparse) NNZ() int { return len(s.vals) }

// MulVec computes y = S·x into a caller-provided slice (allocated when nil).
func (s *Sparse) MulVec(x, y []float64) ([]float64, error) {
	if len(x) != s.n {
		return nil, fmt.Errorf("%w: sparse MulVec with len(x)=%d, n=%d", ErrShape, len(x), s.n)
	}
	if y == nil {
		y = make([]float64, s.n)
	} else if len(y) != s.n {
		return nil, fmt.Errorf("%w: sparse MulVec with len(y)=%d, n=%d", ErrShape, len(y), s.n)
	}
	for i := 0; i < s.n; i++ {
		var sum float64
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			sum += s.vals[k] * x[s.cols[k]]
		}
		y[i] = sum
	}
	return y, nil
}

// Diagonal extracts the main diagonal.
func (s *Sparse) Diagonal() []float64 {
	d := make([]float64, s.n)
	for i := 0; i < s.n; i++ {
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			if s.cols[k] == i {
				d[i] = s.vals[k]
				break
			}
		}
	}
	return d
}

// RowNZ returns the stored column indices and values of row i as subslices of
// the matrix's internal storage — read-only views for consumers that iterate
// the pattern (assembling derived operators, preconditioners).
func (s *Sparse) RowNZ(i int) (cols []int, vals []float64) {
	return s.cols[s.rowPtr[i]:s.rowPtr[i+1]], s.vals[s.rowPtr[i]:s.rowPtr[i+1]]
}

// MapValues returns a new matrix sharing s's pattern whose value at each
// stored (i, j) is f(i, j, v). Because the index slices are shared, derived
// matrices (e.g. the Crank–Nicolson operators C/h ± G/2) are recognised as
// pattern-identical by CholSymbolic.Factorize in O(1).
func (s *Sparse) MapValues(f func(i, j int, v float64) float64) *Sparse {
	vals := make([]float64, len(s.vals))
	for i := 0; i < s.n; i++ {
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			vals[k] = f(i, s.cols[k], s.vals[k])
		}
	}
	return &Sparse{n: s.n, rowPtr: s.rowPtr, cols: s.cols, vals: vals}
}

// Dense expands the matrix to dense form (tests and small cross-checks).
func (s *Sparse) Dense() *Matrix {
	m := NewSquare(s.n)
	for i := 0; i < s.n; i++ {
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			m.Set(i, s.cols[k], s.vals[k])
		}
	}
	return m
}

// Preconditioner approximates A⁻¹ for the conjugate-gradient solver: Apply
// writes z ≈ A⁻¹·r. Implementations must be safe for concurrent Apply calls
// on distinct argument slices.
type Preconditioner interface {
	Apply(z, r []float64)
}

// IC0 is a zero-fill incomplete Cholesky preconditioner: an approximate
// factor L with exactly the lower-triangular pattern of A, so Apply costs one
// forward and one backward sweep over nnz(tril(A)). On M-matrices such as
// conductance systems the factorization cannot break down, and CG iteration
// counts drop severalfold versus Jacobi.
type IC0 struct {
	n      int
	rowPtr []int
	cols   []int // ascending within each row; diagonal last
	vals   []float64
}

// NewIC0 computes the IC(0) factor of the SPD matrix s. It returns ErrNotSPD
// when the incomplete factorization hits a non-positive pivot (possible for
// SPD matrices that are not M-matrices).
func NewIC0(s *Sparse) (*IC0, error) {
	n := s.n
	ic := &IC0{n: n, rowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			if s.cols[k] <= i {
				ic.rowPtr[i+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		ic.rowPtr[i+1] += ic.rowPtr[i]
	}
	nnz := ic.rowPtr[n]
	ic.cols = make([]int, nnz)
	ic.vals = make([]float64, nnz)
	pos := 0
	for i := 0; i < n; i++ {
		var diag float64
		hasDiag := false
		rowStart := ic.rowPtr[i]
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			j := s.cols[k]
			if j > i {
				continue
			}
			a := s.vals[k]
			if j == i {
				diag, hasDiag = a, true
				continue
			}
			// L[i][j] = (A[i][j] − Σ_{t<j} L[i][t]·L[j][t]) / L[j][j], the sum
			// running over the intersection of the two sparse rows
			// (two-pointer merge; both are sorted ascending).
			jStart, jEnd := ic.rowPtr[j], ic.rowPtr[j+1]-1 // exclude j's diagonal
			pi, pj := rowStart, jStart
			sum := a
			for pi < pos && pj < jEnd {
				ci, cj := ic.cols[pi], ic.cols[pj]
				switch {
				case ci == cj:
					sum -= ic.vals[pi] * ic.vals[pj]
					pi++
					pj++
				case ci < cj:
					pi++
				default:
					pj++
				}
			}
			ljj := ic.vals[jEnd] // j's diagonal is the last entry of its row
			ic.cols[pos] = j
			ic.vals[pos] = sum / ljj
			pos++
		}
		if !hasDiag {
			return nil, fmt.Errorf("%w: missing diagonal at row %d", ErrNotSPD, i)
		}
		for p := rowStart; p < pos; p++ {
			diag -= ic.vals[p] * ic.vals[p]
		}
		if diag <= 0 || math.IsNaN(diag) {
			return nil, fmt.Errorf("%w: IC(0) pivot %g at row %d", ErrNotSPD, diag, i)
		}
		ic.cols[pos] = i
		ic.vals[pos] = math.Sqrt(diag)
		pos++
	}
	return ic, nil
}

// Apply implements Preconditioner: z = (L·Lᵀ)⁻¹·r via two triangular sweeps.
// z and r must not alias.
func (ic *IC0) Apply(z, r []float64) {
	// Forward L·y = r (row-oriented; diagonal is each row's last entry).
	for i := 0; i < ic.n; i++ {
		s := r[i]
		end := ic.rowPtr[i+1] - 1
		for p := ic.rowPtr[i]; p < end; p++ {
			s -= ic.vals[p] * z[ic.cols[p]]
		}
		z[i] = s / ic.vals[end]
	}
	// Backward Lᵀ·z = y (column-oriented over L's rows), in place.
	for i := ic.n - 1; i >= 0; i-- {
		end := ic.rowPtr[i+1] - 1
		zi := z[i] / ic.vals[end]
		z[i] = zi
		for p := ic.rowPtr[i]; p < end; p++ {
			z[ic.cols[p]] -= ic.vals[p] * zi
		}
	}
}

// CGScratch holds the work vectors of a conjugate-gradient solve so hot
// callers can reuse them across calls instead of allocating four n-vectors
// per query. The zero value is ready to use; vectors are (re)sized on demand.
// A CGScratch must not be shared by concurrent solves.
type CGScratch struct {
	r, z, p, ap []float64
	invDiag     []float64 // Jacobi fallback storage when no Precond is given
}

// vec returns a zeroed-capacity slice of length n backed by *buf.
func (sc *CGScratch) vec(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// CGOptions tunes the conjugate-gradient solver.
type CGOptions struct {
	Tol     float64 // relative residual target; 0 → 1e-10
	MaxIter int     // 0 → 10·n
	// Precond supplies the preconditioner; nil builds a Jacobi preconditioner
	// from the matrix diagonal on each call (cheap: one pass over the
	// diagonal, stored in Scratch when provided).
	Precond Preconditioner
	// Scratch reuses the solver's work vectors across calls. nil allocates
	// fresh vectors per call.
	Scratch *CGScratch
}

// SolveCG solves S·x = b for a symmetric positive definite sparse matrix via
// preconditioned conjugate gradients (Jacobi by default; see CGOptions).
func (s *Sparse) SolveCG(b []float64, opts CGOptions) ([]float64, error) {
	x := make([]float64, s.n)
	if _, err := s.SolveCGInto(x, b, opts); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveCGInto solves S·x = b into dst (initial guess zero) and returns the
// number of iterations used — the diagnostic callers watch to size tolerance
// and preconditioner choices. With opts.Scratch set the call performs no
// allocations. dst must not alias b.
func (s *Sparse) SolveCGInto(dst, b []float64, opts CGOptions) (int, error) {
	if len(b) != s.n || len(dst) != s.n {
		return 0, fmt.Errorf("%w: SolveCGInto with len(dst)=%d, len(b)=%d, n=%d",
			ErrShape, len(dst), len(b), s.n)
	}
	tol := opts.Tol
	if tol == 0 {
		tol = 1e-10
	}
	maxIter := opts.MaxIter
	if maxIter == 0 {
		maxIter = 10 * s.n
	}
	sc := opts.Scratch
	if sc == nil {
		sc = &CGScratch{}
	}
	// The default Jacobi preconditioner is applied inline from a scratch
	// diagonal rather than through the interface, keeping the Scratch path
	// free of per-call allocations.
	pre := opts.Precond
	var invDiag []float64
	if pre == nil {
		invDiag = sc.vec(&sc.invDiag, s.n)
		for i := 0; i < s.n; i++ {
			d := 0.0
			for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
				if s.cols[k] == i {
					d = s.vals[k]
					break
				}
			}
			if d <= 0 {
				return 0, fmt.Errorf("%w: non-positive diagonal %g at %d", ErrNotSPD, d, i)
			}
			invDiag[i] = 1 / d
		}
	}
	applyPre := func(z, r []float64) {
		if pre != nil {
			pre.Apply(z, r)
			return
		}
		for i := range z {
			z[i] = invDiag[i] * r[i]
		}
	}

	x := dst
	for i := range x {
		x[i] = 0
	}
	r := sc.vec(&sc.r, s.n)
	copy(r, b) // r = b − S·0
	z := sc.vec(&sc.z, s.n)
	applyPre(z, r)
	p := sc.vec(&sc.p, s.n)
	copy(p, z)
	ap := sc.vec(&sc.ap, s.n)
	rz := Dot(r, z)
	bNorm := Norm2(b)
	if bNorm == 0 {
		return 0, nil
	}
	for iter := 1; iter <= maxIter; iter++ {
		if _, err := s.MulVec(p, ap); err != nil {
			return iter, err
		}
		pAp := Dot(p, ap)
		if pAp <= 0 {
			return iter, fmt.Errorf("%w: curvature %g at iteration %d", ErrNotSPD, pAp, iter)
		}
		alpha := rz / pAp
		AXPY(alpha, p, x)
		AXPY(-alpha, ap, r)
		if Norm2(r) <= tol*bNorm {
			return iter, nil
		}
		applyPre(z, r)
		rzNext := Dot(r, z)
		beta := rzNext / rz
		rz = rzNext
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return maxIter, fmt.Errorf("%w: %d iterations, residual %g (target %g)",
		ErrNoConverge, maxIter, Norm2(r)/bNorm, tol)
}

// IsSymmetricSparse reports whether the matrix is structurally and
// numerically symmetric within tol (absolute, scaled by the largest entry).
func (s *Sparse) IsSymmetricSparse(tol float64) bool {
	var scale float64
	for _, v := range s.vals {
		scale = math.Max(scale, math.Abs(v))
	}
	if scale == 0 {
		return true
	}
	// at returns S(i, j), 0 when not stored; columns are sorted within rows.
	at := func(i, j int) float64 {
		lo := s.rowPtr[i]
		if p, ok := slices.BinarySearch(s.cols[lo:s.rowPtr[i+1]], j); ok {
			return s.vals[lo+p]
		}
		return 0
	}
	for i := 0; i < s.n; i++ {
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			if j := s.cols[k]; j > i && math.Abs(s.vals[k]-at(j, i)) > tol*scale {
				return false
			}
		}
	}
	return true
}
