package floorplan

import (
	"fmt"
	"strings"

	"repro/internal/geom"
)

// Neighbor describes one lateral adjacency of a block: the index of the
// touching block, the length of the shared boundary segment and the
// centre-to-centre conduction path length perpendicular to that boundary.
// Downstream, the lateral thermal resistance of this contact is
//
//	R = PathLen / (k_si · t_die · SharedLen)
//
// following the thermal–electrical duality used by HotSpot-style compact
// models (conduction path length over conductivity times cross-section).
type Neighbor struct {
	Index     int
	Side      geom.Side // side of the owning block facing the neighbour
	SharedLen float64   // m
	PathLen   float64   // m, centre-to-centre along the contact normal
}

// RimContact describes a block's contact with the die boundary on one side.
// Heat leaving through these segments spreads into the package rim (the part
// of the heat spreader overhanging the die).
type RimContact struct {
	Side geom.Side
	Len  float64 // m
}

// Adjacency is the lateral adjacency graph of a floorplan. Build it once with
// NewAdjacency and reuse it: it is immutable and safe for concurrent readers.
type Adjacency struct {
	fp        *Floorplan
	neighbors [][]Neighbor
	rim       [][]RimContact
}

// NewAdjacency computes the adjacency graph of fp. Two blocks are neighbours
// when they share a boundary segment of positive length; corner touches do
// not count. O(n²) pair scan — block counts are small by construction.
func NewAdjacency(fp *Floorplan) *Adjacency {
	n := fp.NumBlocks()
	adj := &Adjacency{
		fp:        fp,
		neighbors: make([][]Neighbor, n),
		rim:       make([][]RimContact, n),
	}
	for i := 0; i < n; i++ {
		bi := fp.Block(i)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			bj := fp.Block(j)
			se := geom.SharedEdgeBetween(bi.Rect, bj.Rect)
			if se.Side == geom.SideNone || se.Length <= geom.Eps {
				continue
			}
			adj.neighbors[i] = append(adj.neighbors[i], Neighbor{
				Index:     j,
				Side:      se.Side,
				SharedLen: se.Length,
				PathLen:   geom.CenterDistanceAlong(bi.Rect, bj.Rect),
			})
		}
		for side, l := range geom.BoundaryContact(bi.Rect, fp.Die()) {
			if l > geom.Eps {
				adj.rim[i] = append(adj.rim[i], RimContact{Side: side, Len: l})
			}
		}
		// Deterministic ordering regardless of map iteration above.
		sortNeighbors(adj.neighbors[i])
		sortRim(adj.rim[i])
	}
	return adj
}

func sortNeighbors(ns []Neighbor) {
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j].Index < ns[j-1].Index; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

func sortRim(rs []RimContact) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Side < rs[j-1].Side; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// Neighbors returns the lateral neighbours of block i in ascending index
// order. The returned slice is shared; callers must not mutate it.
func (a *Adjacency) Neighbors(i int) []Neighbor { return a.neighbors[i] }

// Rim returns block i's die-boundary contacts. The returned slice is shared;
// callers must not mutate it.
func (a *Adjacency) Rim(i int) []RimContact { return a.rim[i] }

// Validate cross-checks internal symmetry invariants: if j is a neighbour of
// i, i must be a neighbour of j with identical shared length and opposite
// side. It exists to guard the geometry kernel against regressions and is
// exercised by tests and the floorplan CLI.
func (a *Adjacency) Validate() error {
	for i := range a.neighbors {
		for _, n := range a.neighbors[i] {
			var back *Neighbor
			for k := range a.neighbors[n.Index] {
				if a.neighbors[n.Index][k].Index == i {
					back = &a.neighbors[n.Index][k]
					break
				}
			}
			if back == nil {
				return fmt.Errorf("floorplan: adjacency not symmetric: %d→%d present, %d→%d missing",
					i, n.Index, n.Index, i)
			}
			if diff := back.SharedLen - n.SharedLen; diff > geom.Eps || diff < -geom.Eps {
				return fmt.Errorf("floorplan: shared length mismatch %d↔%d: %g vs %g",
					i, n.Index, n.SharedLen, back.SharedLen)
			}
			if back.Side != n.Side.Opposite() {
				return fmt.Errorf("floorplan: sides not opposite %d↔%d: %v vs %v",
					i, n.Index, n.Side, back.Side)
			}
		}
	}
	return nil
}

// Describe renders the adjacency lists for inspection.
func (a *Adjacency) Describe() string {
	var sb strings.Builder
	for i := range a.neighbors {
		b := a.fp.Block(i)
		fmt.Fprintf(&sb, "%-12s:", b.Name)
		for _, n := range a.neighbors[i] {
			fmt.Fprintf(&sb, " %s(%s, %.2fmm)", a.fp.Block(n.Index).Name, n.Side, n.SharedLen*1e3)
		}
		for _, r := range a.rim[i] {
			fmt.Fprintf(&sb, " RIM(%s, %.2fmm)", r.Side, r.Len*1e3)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
