package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// dot returns the inner product of two equal-length vectors.
func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// randomSPD builds a random symmetric positive definite n×n matrix as
// Mᵀ·M + n·I, which is SPD by construction.
func randomSPD(n int, rng *rand.Rand) *Matrix {
	m := NewSquare(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	mt := m.Transpose()
	spd := NewSquare(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			spd.Set(i, j, dot(mt.Row(i), mt.Row(j)))
		}
		spd.add(i, i, float64(n))
	}
	return spd
}

func randomVec(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * 10
	}
	return v
}

// fromRows builds a matrix from row slices of one length.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// add adds v to the element at row i, column j.
func (m *Matrix) add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// residual returns b - A·x.
func residual(a *Matrix, x, b []float64) []float64 {
	ax, err := a.MulVec(x)
	if err != nil {
		panic(err)
	}
	r := make([]float64, len(b))
	for i := range r {
		r[i] = b[i] - ax[i]
	}
	return r
}

// normInf returns the max-absolute-value norm of a vector.
func normInf(v []float64) float64 {
	var mx float64
	for _, x := range v {
		mx = math.Max(mx, math.Abs(x))
	}
	return mx
}

var errSingular = errors.New("linalg: matrix is singular to working precision")

// luFactor is an LU factorization with partial pivoting, P·A = L·U: an
// independent dense reference for the Cholesky solvers.
type luFactor struct {
	n    int
	lu   *Matrix // packed L (unit diagonal, below) and U (on/above diagonal)
	perm []int   // row permutation: solution uses b[perm[i]]
}

// newLU factorizes a square matrix with partial pivoting. It returns
// errSingular when a pivot underflows the working precision.
func newLU(a *Matrix) (*luFactor, error) {
	n := a.rows
	lu := NewSquare(n)
	copy(lu.data, a.data)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: largest |entry| in column k at or below the diagonal.
		p := k
		mx := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > mx {
				mx, p = a, i
			}
		}
		if mx < 1e-300 {
			return nil, fmt.Errorf("%w: pivot %g at column %d", errSingular, mx, k)
		}
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			perm[k], perm[p] = perm[p], perm[k]
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivot
			lu.Set(i, k, f)
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= f * rk[j]
			}
		}
	}
	return &luFactor{n: n, lu: lu, perm: perm}, nil
}

// solve returns x with A·x = b.
func (f *luFactor) solve(b []float64) []float64 {
	x := make([]float64, f.n)
	// Forward substitution with permuted b (L has unit diagonal).
	for i := 0; i < f.n; i++ {
		s := b[f.perm[i]]
		ri := f.lu.Row(i)
		for k := 0; k < i; k++ {
			s -= ri[k] * x[k]
		}
		x[i] = s
	}
	// Backward substitution on U.
	for i := f.n - 1; i >= 0; i-- {
		ri := f.lu.Row(i)
		s := x[i]
		for k := i + 1; k < f.n; k++ {
			s -= ri[k] * x[k]
		}
		x[i] = s / ri[i]
	}
	return x
}

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMatrix(0, 3) should panic")
		}
	}()
	NewMatrix(0, 3)
}

func TestIdentityMulVec(t *testing.T) {
	id := NewSquare(4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	x := []float64{1, 2, 3, 4}
	y, err := id.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if y[i] != x[i] {
			t.Errorf("I·x[%d] = %g, want %g", i, y[i], x[i])
		}
	}
	if _, err := id.MulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("short vector: err = %v, want ErrShape", err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMatrix(3, 5)
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			m.Set(i, j, rng.Float64())
		}
	}
	tt := m.Transpose().Transpose()
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if tt.At(i, j) != m.At(i, j) {
				t.Fatalf("transpose involution broken at (%d,%d)", i, j)
			}
		}
	}
}

func TestCholeskyKnownSystem(t *testing.T) {
	// A = [[4,2],[2,3]], b = [10, 8] → x = [1.75, 1.5]
	a := fromRows([][]float64{{4, 2}, {2, 3}})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := ch.Solve([]float64{10, 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1.75) > 1e-12 || math.Abs(x[1]-1.5) > 1e-12 {
		t.Errorf("x = %v, want [1.75 1.5]", x)
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	asym := fromRows([][]float64{{1, 2}, {3, 4}})
	if _, err := NewCholesky(asym); !errors.Is(err, ErrNotSPD) {
		t.Errorf("asymmetric: err = %v, want ErrNotSPD", err)
	}
	indef := fromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := NewCholesky(indef); !errors.Is(err, ErrNotSPD) {
		t.Errorf("indefinite: err = %v, want ErrNotSPD", err)
	}
	rect := NewMatrix(2, 3)
	if _, err := NewCholesky(rect); !errors.Is(err, ErrShape) {
		t.Errorf("rectangular: err = %v, want ErrShape", err)
	}
}

func TestCholeskyFactorReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomSPD(8, rng)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	scale := a.MaxAbs()
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if llt := dot(ch.l.Row(i), ch.l.Row(j)); math.Abs(llt-a.At(i, j)) > 1e-10*scale {
				t.Fatalf("L·Lᵀ differs from A at (%d,%d): %g vs %g", i, j, llt, a.At(i, j))
			}
		}
	}
}

func TestLUKnownSystem(t *testing.T) {
	// Requires pivoting: first pivot is 0.
	a := fromRows([][]float64{{0, 1}, {1, 0}})
	f, err := newLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x := f.solve([]float64{2, 3})
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := newLU(a); !errors.Is(err, errSingular) {
		t.Errorf("singular: err = %v, want errSingular", err)
	}
}

func TestSolveSPDResidualProperty(t *testing.T) {
	// Property: for random SPD systems the refined solution has a tiny
	// relative residual.
	rng := rand.New(rand.NewSource(23))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		a := randomSPD(n, r)
		b := randomVec(n, r)
		x, err := SolveSPD(a, b)
		if err != nil {
			return false
		}
		return normInf(residual(a, x, b)) <= 1e-8*(1+normInf(b))
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestLUAndCholeskyAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(20)
		a := randomSPD(n, rng)
		b := randomVec(n, rng)
		xc, err := SolveSPD(a, b)
		if err != nil {
			t.Fatal(err)
		}
		f, err := newLU(a)
		if err != nil {
			t.Fatal(err)
		}
		xl := f.solve(b)
		for i := range xc {
			if math.Abs(xc[i]-xl[i]) > 1e-7*(1+math.Abs(xc[i])) {
				t.Fatalf("trial %d: solvers disagree at %d: %g vs %g", trial, i, xc[i], xl[i])
			}
		}
	}
}

func TestVectorHelpers(t *testing.T) {
	y := []float64{1, 1}
	AXPY(2, []float64{1, 2}, y)
	if y[0] != 3 || y[1] != 5 {
		t.Errorf("AXPY result = %v, want [3 5]", y)
	}
}

func TestAXPYPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AXPY length mismatch should panic")
		}
	}()
	AXPY(1, []float64{1}, []float64{1, 2})
}

func TestIsSymmetric(t *testing.T) {
	sym := fromRows([][]float64{{1, 2}, {2, 1}})
	if !sym.IsSymmetric(1e-12) {
		t.Error("symmetric matrix not recognised")
	}
	asym := fromRows([][]float64{{1, 2}, {2.1, 1}})
	if asym.IsSymmetric(1e-12) {
		t.Error("asymmetric matrix reported symmetric")
	}
	if NewMatrix(2, 3).IsSymmetric(1e-12) {
		t.Error("rectangular matrix reported symmetric")
	}
	if !NewSquare(3).IsSymmetric(1e-12) {
		t.Error("zero matrix should count as symmetric")
	}
}

func TestStringForms(t *testing.T) {
	small := NewSquare(2)
	if small.String() == "" {
		t.Error("String() empty for small matrix")
	}
	big := NewSquare(20)
	if big.String() == "" {
		t.Error("String() empty for big matrix")
	}
}

func TestCholeskySolveIntoMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 2, 5, 16, 33} {
		a := randomSPD(n, rng)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		b := randomVec(n, rng)
		want, err := ch.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, n)
		if err := ch.SolveInto(dst, b); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: SolveInto[%d] = %g, Solve = %g", n, i, dst[i], want[i])
			}
		}
		// In-place: dst aliases b.
		inPlace := append([]float64(nil), b...)
		if err := ch.SolveInto(inPlace, inPlace); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if inPlace[i] != want[i] {
				t.Fatalf("n=%d: in-place SolveInto[%d] = %g, want %g", n, i, inPlace[i], want[i])
			}
		}
		// Residual check against the original system.
		if r := normInf(residual(a, dst, b)); r > 1e-8*normInf(b) {
			t.Errorf("n=%d: residual %g too large", n, r)
		}
	}
}

func TestCholeskySolveIntoShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ch, err := NewCholesky(randomSPD(4, rng))
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.SolveInto(make([]float64, 3), make([]float64, 4)); !errors.Is(err, ErrShape) {
		t.Errorf("short dst: err = %v, want ErrShape", err)
	}
	if err := ch.SolveInto(make([]float64, 4), make([]float64, 5)); !errors.Is(err, ErrShape) {
		t.Errorf("long b: err = %v, want ErrShape", err)
	}
}
