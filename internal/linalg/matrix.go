// Package linalg implements the small dense linear-algebra kernel needed by
// the compact thermal model: column-major-free dense matrices, the Cholesky
// factorization, triangular solves and a couple of vector helpers.
//
// The steady-state thermal problem is G·T = P where G is the (symmetric,
// strictly diagonally dominant, hence positive definite) thermal conductance
// matrix of the RC network with the ambient node eliminated. Cholesky is the
// natural factorization.
//
// Matrices here are dense because compact thermal models at block granularity
// are small (tens to a few hundred nodes); a sparse solver would be wasted
// complexity at this scale.
//
// The sparse Cholesky (SparseCholesky) serves the larger block models and the
// fine grid. An in-core solve of a factor with at least 2¹⁷ non-zeros whose
// elimination tree splits in two below its root trunk — a nested-dissection
// grid — uses up to two goroutines when GOMAXPROCS ≥ 2 and no other solve is
// running; it answers bit-identically on one. There is no knob.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrNotSPD is returned by Cholesky when the matrix is not symmetric positive
// definite.
var ErrNotSPD = errors.New("linalg: matrix is not symmetric positive definite")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("linalg: dimension mismatch")

// Matrix is a dense row-major n×m matrix of float64.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix allocates a zeroed rows×cols matrix. It panics if either
// dimension is non-positive: matrix shapes are static programmer decisions,
// not runtime inputs.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid matrix shape %d×%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewSquare allocates a zeroed n×n matrix.
func NewSquare(n int) *Matrix { return NewMatrix(n, n) }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a live view of row i (mutations are visible in the matrix).
func (m *Matrix) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// IsSquare reports whether the matrix is square.
func (m *Matrix) IsSquare() bool { return m.rows == m.cols }

// IsSymmetric reports whether the matrix is symmetric within tolerance tol on
// the relative scale of the largest entry.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if !m.IsSquare() {
		return false
	}
	scale := m.MaxAbs()
	if scale == 0 {
		return true
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol*scale {
				return false
			}
		}
	}
	return true
}

// MaxAbs returns the largest absolute entry.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// MulVec computes y = M·x. It returns ErrShape when len(x) != Cols.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.cols {
		return nil, fmt.Errorf("%w: MulVec with len(x)=%d, cols=%d", ErrShape, len(x), m.cols)
	}
	y := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y, nil
}

// Transpose returns Mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Matrix) String() string {
	const limit = 12
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix %d×%d", m.rows, m.cols)
	if m.rows > limit || m.cols > limit {
		return b.String()
	}
	for i := 0; i < m.rows; i++ {
		b.WriteString("\n  ")
		for j := 0; j < m.cols; j++ {
			fmt.Fprintf(&b, "% .4g ", m.At(i, j))
		}
	}
	return b.String()
}
