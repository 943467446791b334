package linalg

import (
	"fmt"
	"math"
)

// Cholesky is the lower-triangular factor L of an SPD matrix A = L·Lᵀ.
// A transposed copy of the factor is kept so the backward substitution in
// SolveInto walks contiguous rows instead of striding down columns.
type Cholesky struct {
	n  int
	l  *Matrix
	lt *Matrix // Lᵀ, row-major: lt.Row(i)[k] == l.At(k, i)
}

// NewCholesky factorizes the symmetric positive definite matrix a.
// It returns ErrNotSPD when a is not symmetric (1e-10 relative tolerance) or
// a non-positive pivot appears during factorization.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if !a.IsSquare() {
		return nil, fmt.Errorf("%w: Cholesky of %d×%d", ErrShape, a.rows, a.cols)
	}
	if !a.IsSymmetric(1e-10) {
		return nil, fmt.Errorf("%w: matrix is not symmetric", ErrNotSPD)
	}
	n := a.rows
	l := NewSquare(n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		lj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lj[k] * lj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: non-positive pivot %g at column %d", ErrNotSPD, d, j)
		}
		diag := math.Sqrt(d)
		l.Set(j, j, diag)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			li := l.Row(i)
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			l.Set(i, j, s/diag)
		}
	}
	return &Cholesky{n: n, l: l, lt: l.Transpose()}, nil
}

// Solve returns x with A·x = b.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	x := make([]float64, c.n)
	if err := c.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A·x = b into dst without allocating. dst may alias b, in
// which case the solve happens fully in place. Both triangular sweeps walk
// matrix rows (the backward pass uses the cached transposed factor), so the
// inner loops are contiguous in memory.
func (c *Cholesky) SolveInto(dst, b []float64) error {
	if len(b) != c.n || len(dst) != c.n {
		return fmt.Errorf("%w: Cholesky.SolveInto with len(dst)=%d, len(b)=%d, n=%d",
			ErrShape, len(dst), len(b), c.n)
	}
	// Forward: L·y = b, y written into dst. In-place safe: b[i] is consumed
	// before dst[i] is written, and only dst[k<i] (already y values) are read.
	for i := 0; i < c.n; i++ {
		s := b[i]
		li := c.l.Row(i)
		for k := 0; k < i; k++ {
			s -= li[k] * dst[k]
		}
		dst[i] = s / li[i]
	}
	// Backward: Lᵀ·x = y, overwriting dst from the bottom up; row i of Lᵀ
	// holds exactly the coefficients the elimination of x[i] needs.
	for i := c.n - 1; i >= 0; i-- {
		s := dst[i]
		ui := c.lt.Row(i)
		for k := i + 1; k < c.n; k++ {
			s -= ui[k] * dst[k]
		}
		dst[i] = s / ui[i]
	}
	return nil
}

// SolveSPD solves A·x = b for a symmetric positive definite A, with one step
// of iterative refinement to sharpen the residual. It is the dense reference
// the sparse and grid solvers are cross-validated against in tests.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	ch, err := NewCholesky(a)
	if err != nil {
		return nil, err
	}
	x, err := ch.Solve(b)
	if err != nil {
		return nil, err
	}
	// One refinement step: r = b - A·x ; x += A⁻¹·r.
	ax, err := a.MulVec(x)
	if err != nil {
		return nil, err
	}
	r := make([]float64, len(b))
	for i := range r {
		r[i] = b[i] - ax[i]
	}
	dx, err := ch.Solve(r)
	if err != nil {
		return nil, err
	}
	for i := range x {
		x[i] += dx[i]
	}
	return x, nil
}

// AXPY computes y += alpha*x in place; it panics on a length mismatch.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: AXPY of lengths %d and %d", len(x), len(y)))
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}
