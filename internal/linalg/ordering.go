package linalg

import "sort"

// RCM computes a reverse Cuthill–McKee ordering of the symmetric sparsity
// pattern of s: a permutation that clusters the non-zeros of each connected
// component into a narrow band around the diagonal, which keeps the fill-in
// of a subsequent Cholesky factorization close to the band profile. The
// returned slice maps new position to original index: perm[k] is the node
// eliminated k-th.
//
// The root of each component is a pseudo-peripheral node found with the
// George–Liu procedure (repeated BFS towards a level structure of maximal
// eccentricity), and neighbours are visited in ascending-degree order — the
// classic recipe that makes RCM effective on mesh-like graphs such as grid
// conductance matrices.
//
// Hub vertices — degree far above the graph's average, like the heat-sink
// node every spreader cell ties into — are withheld from the traversal and
// eliminated last. Plain RCM collapses on such graphs (every node is within
// a couple of BFS levels of the hub, so no ordering of the levels is
// narrow), while eliminating a hub after its neighbours adds only its own
// row to the fill. This mirrors the dense-row deferral sparse direct solvers
// apply before ordering.
func RCM(s *Sparse) []int {
	n := s.n
	deg, hub, hubs := hubPartition(s)

	// mark/stamp implement O(1) reset of the per-BFS visited set; done is the
	// global "already ordered" set used to find the next component.
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	stamp := 0
	done := make([]bool, n)

	order := make([]int, 0, n)    // BFS output, level by level
	levelPtr := make([]int, 0, 8) // start index of each BFS level in order
	nbr := make([]int, 0, 8)      // per-node neighbour scratch

	// bfs fills order with the component of root in level order, visiting
	// each node's unvisited neighbours in ascending-degree order (ties by
	// index, for determinism).
	bfs := func(root int) {
		stamp++
		order = append(order[:0], root)
		levelPtr = append(levelPtr[:0], 0)
		mark[root] = stamp
		for begin := 0; begin < len(order); {
			end := len(order)
			for h := begin; h < end; h++ {
				u := order[h]
				nbr = nbr[:0]
				for k := s.rowPtr[u]; k < s.rowPtr[u+1]; k++ {
					v := s.cols[k]
					if v != u && !hub[v] && mark[v] != stamp {
						mark[v] = stamp
						nbr = append(nbr, v)
					}
				}
				sort.Slice(nbr, func(a, b int) bool {
					if deg[nbr[a]] != deg[nbr[b]] {
						return deg[nbr[a]] < deg[nbr[b]]
					}
					return nbr[a] < nbr[b]
				})
				order = append(order, nbr...)
			}
			if len(order) > end {
				levelPtr = append(levelPtr, end)
			}
			begin = end
		}
	}

	perm := make([]int, 0, n)
	for start := 0; start < n; start++ {
		if done[start] || hub[start] {
			continue
		}
		// George–Liu pseudo-peripheral search: walk to a min-degree node of
		// the deepest BFS level until the eccentricity stops growing. The
		// final bfs call leaves the component's Cuthill–McKee order in order.
		bfs(start)
		for ecc := len(levelPtr); ; {
			last := order[levelPtr[len(levelPtr)-1]:]
			cand := last[0]
			for _, u := range last[1:] {
				if deg[u] < deg[cand] {
					cand = u
				}
			}
			bfs(cand)
			if len(levelPtr) <= ecc {
				break
			}
			ecc = len(levelPtr)
		}
		for _, u := range order {
			done[u] = true
		}
		perm = append(perm, order...)
	}

	// Reverse — RCM's single twist over plain CM, halving the factor profile
	// on typical meshes.
	for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
		perm[i], perm[j] = perm[j], perm[i]
	}
	// Hubs eliminate last, lowest degree first.
	return append(perm, hubs...)
}

// hubPartition computes the off-diagonal degree of every vertex and splits
// out the hubs: vertices whose degree dwarfs both the average degree and a
// fixed floor (so small graphs never trigger the path) — the heat-sink node
// every spreader cell ties into is the canonical example. RCM defers hubs to
// the very end of the elimination order, lowest degree first (ties by
// index), mirroring the dense-row deferral production sparse solvers apply
// before ordering.
func hubPartition(s *Sparse) (deg []int, hub []bool, hubs []int) {
	n := s.n
	deg = make([]int, n)
	total := 0
	for i := 0; i < n; i++ {
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			if s.cols[k] != i {
				deg[i]++
			}
		}
		total += deg[i]
	}
	hubCut := n // unreachable: degrees are < n
	if n > 0 {
		if c := 8 * (total/n + 1); c > 16 {
			hubCut = c
		} else {
			hubCut = 16
		}
	}
	hub = make([]bool, n)
	for i := 0; i < n; i++ {
		if deg[i] > hubCut {
			hub[i] = true
			hubs = append(hubs, i)
		}
	}
	sort.Slice(hubs, func(a, b int) bool {
		if deg[hubs[a]] != deg[hubs[b]] {
			return deg[hubs[a]] < deg[hubs[b]]
		}
		return hubs[a] < hubs[b]
	})
	return deg, hub, hubs
}
