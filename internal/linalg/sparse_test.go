package linalg

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// buildLaplacian assembles the conductance matrix of a grid graph with unit
// conductances and a ground tie at node 0 — the canonical SPD sparse test
// problem, structurally identical to a thermal grid layer.
func buildLaplacian(nx, ny int) *Sparse {
	b := NewSparseBuilder(nx * ny)
	id := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if x+1 < nx {
				b.AddConductance(id(x, y), id(x+1, y), 1)
			}
			if y+1 < ny {
				b.AddConductance(id(x, y), id(x, y+1), 1)
			}
		}
	}
	b.AddGround(0, 0.5)
	return b.Build()
}

func TestSparseBuilderSumsDuplicates(t *testing.T) {
	b := NewSparseBuilder(2)
	b.Add(0, 1, 2)
	b.Add(0, 1, 3)
	b.Add(1, 1, 4)
	s := b.Build()
	d := s.Dense()
	if d.At(0, 1) != 5 || d.At(1, 1) != 4 || d.At(0, 0) != 0 {
		t.Errorf("dense form wrong: %v", d)
	}
	if s.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", s.NNZ())
	}
	// Exactly cancelling entries are dropped.
	b2 := NewSparseBuilder(2)
	b2.Add(0, 0, 1)
	b2.Add(0, 0, -1)
	b2.Add(1, 1, 1)
	if got := b2.Build().NNZ(); got != 1 {
		t.Errorf("cancelled entry kept: NNZ = %d", got)
	}
}

func TestSparseBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Add should panic")
		}
	}()
	NewSparseBuilder(2).Add(0, 5, 1)
}

func TestSparseMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := NewSparseBuilder(12)
	for k := 0; k < 40; k++ {
		b.Add(rng.Intn(12), rng.Intn(12), rng.NormFloat64())
	}
	s := b.Build()
	d := s.Dense()
	x := randomVec(12, rng)
	ys, err := s.MulVec(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	yd, err := d.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ys {
		if math.Abs(ys[i]-yd[i]) > 1e-12*(1+math.Abs(yd[i])) {
			t.Fatalf("sparse/dense MulVec differ at %d: %g vs %g", i, ys[i], yd[i])
		}
	}
	if _, err := s.MulVec(x[:3], nil); !errors.Is(err, ErrShape) {
		t.Errorf("short x: err = %v, want ErrShape", err)
	}
	if _, err := s.MulVec(x, make([]float64, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("short y: err = %v, want ErrShape", err)
	}
}

func TestSparseDiagonal(t *testing.T) {
	b := NewSparseBuilder(3)
	b.Add(0, 0, 2)
	b.Add(2, 2, 5)
	b.Add(0, 1, 7)
	d := b.Build().Diagonal()
	if d[0] != 2 || d[1] != 0 || d[2] != 5 {
		t.Errorf("Diagonal = %v", d)
	}
}

func TestIsSymmetricSparse(t *testing.T) {
	b := NewSparseBuilder(2)
	b.Add(0, 1, 3)
	if b.Build().IsSymmetricSparse(1e-12) {
		t.Error("asymmetric matrix reported symmetric")
	}
	b2 := NewSparseBuilder(2)
	b2.AddConductance(0, 1, 3)
	if !b2.Build().IsSymmetricSparse(1e-12) {
		t.Error("symmetric matrix not recognised")
	}
	if !NewSparseBuilder(2).Build().IsSymmetricSparse(1e-12) {
		t.Error("empty matrix should count as symmetric")
	}
}

// buildSortSliceReference compiles b's entries the way Build did before the
// packed key: a sort.Slice over (row, col) pairs, then duplicates summed in
// the order the sort left them. Build must match it bit for bit.
func buildSortSliceReference(b *SparseBuilder) *Sparse {
	type ijv struct {
		i, j int
		v    float64
	}
	es := make([]ijv, len(b.entries))
	for k, e := range b.entries {
		es[k] = ijv{int(e.key >> 32), int(e.key & (1<<32 - 1)), e.v}
	}
	sort.Slice(es, func(x, y int) bool {
		if es[x].i != es[y].i {
			return es[x].i < es[y].i
		}
		return es[x].j < es[y].j
	})
	s := &Sparse{n: b.n, rowPtr: make([]int, b.n+1)}
	for k := 0; k < len(es); {
		e := es[k]
		v := 0.0
		for k < len(es) && es[k].i == e.i && es[k].j == e.j {
			v += es[k].v
			k++
		}
		if v != 0 {
			s.cols = append(s.cols, e.j)
			s.vals = append(s.vals, v)
			s.rowPtr[e.i+1]++
		}
	}
	for i := 0; i < b.n; i++ {
		s.rowPtr[i+1] += s.rowPtr[i]
	}
	return s
}

// gridStencilBuilder adds the two-layer thermal grid stencil with rim and
// sink hubs, in the order the thermal assembler adds it: every diagonal
// collects several conductances of unrelated magnitudes, so the summation
// order shows in the last bits.
func gridStencilBuilder(nx, ny int, rng *rand.Rand) *SparseBuilder {
	nc := nx * ny
	rim, sink := 2*nc, 2*nc+1
	b := NewSparseBuilder(2*nc + 2)
	g := func() float64 { return math.Exp(rng.NormFloat64() * 3) }
	for layer := 0; layer < 2; layer++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				id := layer*nc + y*nx + x
				if x+1 < nx {
					b.AddConductance(id, id+1, g())
				}
				if y+1 < ny {
					b.AddConductance(id, id+nx, g())
				}
				if x == 0 || y == 0 || x == nx-1 || y == ny-1 {
					b.AddConductance(id, rim, g())
				}
			}
		}
	}
	for c := 0; c < nc; c++ {
		b.AddConductance(c, nc+c, g())
		b.AddConductance(nc+c, sink, g())
	}
	b.AddConductance(rim, sink, g())
	b.AddGround(sink, g())
	return b
}

func sameSparseBits(a, b *Sparse) bool {
	if a.n != b.n || len(a.rowPtr) != len(b.rowPtr) || len(a.cols) != len(b.cols) || len(a.vals) != len(b.vals) {
		return false
	}
	for i := range a.rowPtr {
		if a.rowPtr[i] != b.rowPtr[i] {
			return false
		}
	}
	for k := range a.cols {
		if a.cols[k] != b.cols[k] || math.Float64bits(a.vals[k]) != math.Float64bits(b.vals[k]) {
			return false
		}
	}
	return true
}

// TestSparseBuilderMatchesSortSliceReference pins Build's duplicate
// summation order to the sort.Slice order it replaced. Both sorts come from
// the same pdqsort template; a toolchain that changes one template but not
// the other, or a switch to a stable sort, fails here.
func TestSparseBuilderMatchesSortSliceReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var builders []*SparseBuilder
		for _, dim := range [][2]int{{16, 16}, {33, 17}, {64, 64}} {
			builders = append(builders, gridStencilBuilder(dim[0], dim[1], rng))
		}
		for _, n := range []int{7, 100, 1500} {
			// Random stencils: every diagonal gets at least three addends,
			// plus many repeated off-diagonal pairs.
			b := NewSparseBuilder(n)
			for i := 0; i < n; i++ {
				for a := 0; a < 3; a++ {
					b.AddGround(i, rng.Float64()*math.Pow(10, float64(rng.Intn(7)-3)))
				}
			}
			for e := 0; e < 4*n; e++ {
				i, j := rng.Intn(n), rng.Intn(min(n, 8))
				b.AddConductance(i, j, rng.Float64())
			}
			rng.Shuffle(len(b.entries), func(x, y int) { b.entries[x], b.entries[y] = b.entries[y], b.entries[x] })
			builders = append(builders, b)
		}
		for k, b := range builders {
			ref := buildSortSliceReference(b)
			if got := b.Build(); !sameSparseBits(got, ref) {
				t.Fatalf("seed %d builder %d: Build differs from the sort.Slice reference", seed, k)
			}
		}
	}
}

func TestSparseBuilderRejectsUnpackableDimension(t *testing.T) {
	if math.MaxInt <= 1<<32 {
		t.Skip("every int dimension packs on this platform")
	}
	var limit uint64 = 1 << 32
	NewSparseBuilder(int(limit)) // largest packable dimension: accepted
	defer func() {
		if recover() == nil {
			t.Error("NewSparseBuilder(2^32+1) should panic")
		}
	}()
	NewSparseBuilder(int(limit + 1))
}

// isSymmetricLinearReference is IsSymmetricSparse's semantics by linear
// scan of the mirrored row.
func isSymmetricLinearReference(s *Sparse, tol float64) bool {
	var scale float64
	for _, v := range s.vals {
		scale = math.Max(scale, math.Abs(v))
	}
	if scale == 0 {
		return true
	}
	at := func(i, j int) float64 {
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			if s.cols[k] == j {
				return s.vals[k]
			}
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

// TestIsSymmetricSparseHubRow covers the binary search over a long hub row
// (like the grid's sink, which couples to every spreader cell): a matching
// mirror, a mismatched value in the hub row's last slot, and an upper entry
// whose mirror is missing from the hub row.
func TestIsSymmetricSparseHubRow(t *testing.T) {
	const n = 4100
	hub := n - 1
	build := func(perturbLast bool, oneSided int) *Sparse {
		b := NewSparseBuilder(n)
		for i := 0; i < hub; i++ {
			b.AddGround(i, 4)
			if i == oneSided {
				b.Add(i, hub, -1) // stored at (i, hub), absent at (hub, i)
				continue
			}
			b.Add(i, hub, -1)
			b.Add(hub, i, -1)
		}
		if perturbLast {
			b.Add(hub, hub-1, 1e-3) // the hub row has no diagonal: last slot
		}
		return b.Build()
	}
	sym := build(false, -1)
	if cols, _ := sym.RowNZ(hub); len(cols) < 4000 || cols[len(cols)-1] != hub-1 {
		t.Fatalf("hub row has %d entries, last column %d", len(cols), cols[len(cols)-1])
	}
	if !sym.IsSymmetricSparse(1e-10) {
		t.Error("symmetric hub matrix rejected")
	}
	if build(true, -1).IsSymmetricSparse(1e-10) {
		t.Error("asymmetric value in the hub row's last slot accepted")
	}
	for _, i := range []int{0, 2047, hub - 1} {
		if build(false, i).IsSymmetricSparse(1e-10) {
			t.Errorf("entry (%d, hub) without its mirror accepted", i)
		}
	}

	// Random near-symmetric matrices: same verdict as the linear scan.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(30)
		b := NewSparseBuilder(n)
		for e := 0; e < 3*n; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			v := rng.Float64()
			switch rng.Intn(8) {
			case 0:
				b.Add(i, j, v) // one-sided
			case 1:
				b.Add(i, j, v)
				b.Add(j, i, v*(1+1e-9)) // near-miss mirror
			default:
				b.AddConductance(i, j, v)
			}
		}
		s := b.Build()
		for _, tol := range []float64{1e-12, 1e-8} {
			if got, want := s.IsSymmetricSparse(tol), isSymmetricLinearReference(s, tol); got != want {
				t.Fatalf("trial %d tol %g: IsSymmetricSparse = %v, linear scan = %v", trial, tol, got, want)
			}
		}
	}
}
