package linalg

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

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
// the pattern (assembling derived operators).
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
