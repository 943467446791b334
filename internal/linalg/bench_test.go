package linalg

import (
	"fmt"
	"testing"
)

// The backend benches factor and solve grid Laplacians of growing size with
// the dense and the sparse Cholesky, charting the crossover that the thermal
// Model's backend pick is based on (see PERF.md). Dense variants stop at
// n=1024 — beyond that the O(n³) factor dominates any benchmark budget,
// which is itself the result.

func benchDims(n int) (nx, ny int) {
	switch n {
	case 64:
		return 8, 8
	case 256:
		return 16, 16
	case 1024:
		return 32, 32
	case 4096:
		return 64, 64
	case 16384:
		return 128, 128
	default:
		panic("unsupported bench size")
	}
}

func BenchmarkCholeskyFactorDense(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			nx, ny := benchDims(n)
			d := buildLaplacian(nx, ny).Dense()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewCholesky(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCholeskyFactorSparse(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 4096, 16384} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			nx, ny := benchDims(n)
			s := buildLaplacian(nx, ny)
			sym, err := NewCholSymbolic(s, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(sym.LNNZ()), "factor_nnz")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sym.Factorize(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCholeskySolveDense(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			nx, ny := benchDims(n)
			ch, err := NewCholesky(buildLaplacian(nx, ny).Dense())
			if err != nil {
				b.Fatal(err)
			}
			rhs := make([]float64, n)
			rhs[n/2] = 1
			dst := make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ch.SolveInto(dst, rhs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCholeskySolveSparse(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 4096, 16384} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			nx, ny := benchDims(n)
			ch, err := NewSparseCholesky(buildLaplacian(nx, ny))
			if err != nil {
				b.Fatal(err)
			}
			rhs := make([]float64, n)
			rhs[n/2] = 1
			dst := make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ch.SolveInto(dst, rhs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCholeskySolveSparseND is BenchmarkCholeskySolveSparse on the grid
// solver's own factor: geometric nested dissection, supernodal kernel. RCM's
// elimination tree is one chain, so only this order exercises the lane-paired
// backward pass.
func BenchmarkCholeskySolveSparseND(b *testing.B) {
	for _, n := range []int{4096, 16384} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			nx, ny := benchDims(n)
			s := buildLaplacian(nx, ny)
			sym, err := NewCholSymbolic(s, NestedDissectionGrid(nx, ny, 1))
			if err != nil {
				b.Fatal(err)
			}
			ch, err := sym.Supernodes(SupernodalOptions{}).Factorize(s)
			if err != nil {
				b.Fatal(err)
			}
			rhs := make([]float64, n)
			rhs[n/2] = 1
			dst := make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ch.SolveInto(dst, rhs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
