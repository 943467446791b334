package floorplan

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestRandomSeededAdjacencyDeterministic: the same seed must reproduce not
// just the geometry (covered by TestRandomDeterministic) but the derived
// adjacency graph — the structure the thermal model and the fleet's random
// scenarios are built from.
func TestRandomSeededAdjacencyDeterministic(t *testing.T) {
	build := func() *Adjacency {
		fp, err := Random(RandomOptions{Blocks: 24, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return NewAdjacency(fp)
	}
	a, b := build(), build()
	for i := 0; i < a.fp.NumBlocks(); i++ {
		na, nb := a.Neighbors(i), b.Neighbors(i)
		if len(na) != len(nb) {
			t.Fatalf("block %d: %d vs %d neighbors across identical seeds", i, len(na), len(nb))
		}
		for k := range na {
			if na[k] != nb[k] {
				t.Fatalf("block %d neighbor %d differs: %+v vs %+v", i, k, na[k], nb[k])
			}
		}
	}
}

// TestRandomAdjacencySymmetry: adjacency must be an undirected graph — j in
// N(i) iff i in N(j), with the identical shared-edge length both ways.
func TestRandomAdjacencySymmetry(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		fp, err := Random(RandomOptions{Blocks: 32, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		adj := NewAdjacency(fp)
		for i := 0; i < fp.NumBlocks(); i++ {
			for _, nb := range adj.Neighbors(i) {
				j := nb.Index
				if sharedLen(adj, j, i) == 0 {
					t.Fatalf("seed %d: %d->%d adjacency not symmetric", seed, i, j)
				}
				if got := sharedLen(adj, j, i); got != nb.SharedLen {
					t.Fatalf("seed %d: shared length %g (%d->%d) vs %g (%d->%d)",
						seed, nb.SharedLen, i, j, got, j, i)
				}
			}
		}
	}
}

// TestRandomFuzzedSeedsWellFormed sweeps many seeds and block counts: no
// zero-area or sub-MinDim blocks, no pairwise overlaps, and the blocks must
// tile the die exactly.
func TestRandomFuzzedSeedsWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 60; trial++ {
		opts := RandomOptions{
			Blocks:   1 + rng.Intn(64),
			Seed:     rng.Int63(),
			AreaSkew: rng.Float64() * 0.9,
		}
		fp, err := Random(opts)
		if err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, opts, err)
		}
		if fp.NumBlocks() != opts.Blocks {
			t.Fatalf("trial %d: got %d blocks, want %d", trial, fp.NumBlocks(), opts.Blocks)
		}
		minDim := 16e-3 / 64 // the default MinDim for the default die
		rects := make([]geom.Rect, fp.NumBlocks())
		for i := 0; i < fp.NumBlocks(); i++ {
			r := fp.Block(i).Rect
			rects[i] = r
			if !(r.Area() > 0) {
				t.Fatalf("trial %d block %d: zero/negative area %g", trial, i, r.Area())
			}
			if r.W < minDim-1e-12 || r.H < minDim-1e-12 {
				t.Fatalf("trial %d block %d: %gx%g below MinDim %g", trial, i, r.W, r.H, minDim)
			}
		}
		if i, j := geom.AnyOverlap(rects); i >= 0 {
			t.Fatalf("trial %d: blocks %d and %d overlap", trial, i, j)
		}
		if !fp.IsFullTiling() {
			t.Fatalf("trial %d: not a full tiling (coverage %.6f)", trial, fp.Coverage())
		}
		if err := NewAdjacency(fp).Validate(); err != nil {
			t.Fatalf("trial %d: adjacency invalid: %v", trial, err)
		}
	}
}

// TestRandomMinDimRespectedUnderSkew: extreme skew must still clamp cuts so
// both halves respect MinDim.
func TestRandomMinDimRespectedUnderSkew(t *testing.T) {
	opts := RandomOptions{Blocks: 40, Seed: 5, AreaSkew: 0.99, MinDim: 1e-3}
	fp, err := Random(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fp.NumBlocks(); i++ {
		r := fp.Block(i).Rect
		if r.W < opts.MinDim-1e-12 || r.H < opts.MinDim-1e-12 {
			t.Fatalf("block %d: %gx%g violates MinDim %g under heavy skew", i, r.W, r.H, opts.MinDim)
		}
	}
}
