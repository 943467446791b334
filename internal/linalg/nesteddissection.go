package linalg

// NestedDissectionGrid computes the geometric nested-dissection elimination
// order for an nx×ny mesh replicated across layers vertically coupled copies
// — the exact topology of thermal.GridModel's silicon + spreader stack. Node
// ids follow the grid layout: layer·nx·ny + y·nx + x. The mesh is split by
// recursive coordinate bisection: each recursion removes a one-cell-wide
// straight strip (all layer copies of it) perpendicular to the longer axis,
// orders both halves first and the strip last. Straight geometric separators
// are minimal for grid graphs, so the fill stays well under RCM's band
// profile on this topology. Callers with extra off-grid nodes (rim, sink)
// append them after this permutation.
//
// The ordering is also what makes the supernodal kernel effective here: each
// separator strip is emitted contiguously (cells in ascending coordinate,
// layer copies interleaved per cell), so its columns form elimination-tree
// chains with nearly identical factor structure — exactly the runs
// CholSymbolic.Supernodes merges into dense panels.
func NestedDissectionGrid(nx, ny, layers int) []int {
	if nx < 0 {
		nx = 0
	}
	if ny < 0 {
		ny = 0
	}
	if layers < 1 {
		layers = 1
	}
	nc := nx * ny
	perm := make([]int, 0, nc*layers)
	emit := func(x, y int) {
		id := y*nx + x
		for l := 0; l < layers; l++ {
			perm = append(perm, l*nc+id)
		}
	}
	// rec orders the sub-rectangle [x0,x1)×[y0,y1).
	var rec func(x0, y0, x1, y1 int)
	rec = func(x0, y0, x1, y1 int) {
		w, h := x1-x0, y1-y0
		if w <= 0 || h <= 0 {
			return
		}
		if w <= 3 && h <= 3 {
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					emit(x, y)
				}
			}
			return
		}
		if w >= h {
			mid := x0 + w/2
			rec(x0, y0, mid, y1)
			rec(mid+1, y0, x1, y1)
			for y := y0; y < y1; y++ {
				emit(mid, y)
			}
		} else {
			mid := y0 + h/2
			rec(x0, y0, x1, mid)
			rec(x0, mid+1, x1, y1)
			for x := x0; x < x1; x++ {
				emit(x, mid)
			}
		}
	}
	rec(0, 0, nx, ny)
	return perm
}
