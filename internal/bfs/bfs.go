// Package bfs implements the breadth-first-search toolkit underlying both
// the offline labelling construction and the online query components:
// single-source BFS (ground truth and SPT construction), bidirectional BFS
// (the Bi-BFS baseline of Table 2), and the distance-bounded bidirectional
// search of the paper's Algorithm 2 and the depth-limited one-to-all
// search of batch refinement (Depths), which run on the sparsified graph
// G[V\R] expressed as a skip mask.
//
// Every search runs on the flat CSR arrays of a *graph.Graph: the
// single-source engine (engine.go) expands a level top-down or bottom-up
// by the measured frontier, the bidirectional searches and Depths
// top-down only. Scratch state is pooled, so the convenience forms
// allocate only what they return.
package bfs

import "highway/internal/graph"

// Unreachable is the distance reported between vertices in different
// connected components.
const Unreachable int32 = -1

// Distances returns the BFS distance from src to every vertex
// (Unreachable where no path exists) in a freshly allocated slice.
func Distances(g *graph.Graph, src int32) []int32 {
	return DistancesReuse(g, src, nil)
}

// DistancesReuse is Distances writing into buf, growing it if needed, and
// returning it. buf need not be pre-filled (or even non-nil), so callers
// running many BFSs — the oracle harness, landmark sampling — can reuse
// one buffer with zero per-call allocation.
func DistancesReuse(g *graph.Graph, src int32, buf []int32) []int32 {
	n := g.NumVertices()
	if cap(buf) < n {
		buf = make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = Unreachable
	}
	distancesCSR(g, src, buf, dirAuto, nil)
	return buf
}

// Dist returns the exact distance between s and t via unidirectional BFS
// with early exit. It is the simplest correct oracle and serves as ground
// truth in tests. All scratch state is pooled.
func Dist(g *graph.Graph, s, t int32) int32 {
	if s == t {
		return 0
	}
	a := getArena(g.NumVertices())
	defer putArena(a)
	dist := a.distBuf(g.NumVertices())
	dist[s] = 0
	frontier := append(a.frontier[:0], s)
	next := a.next[:0]
	defer func() { a.frontier, a.next = frontier, next }()
	for d := int32(1); len(frontier) > 0; d++ {
		next = next[:0]
		for _, u := range frontier {
			for _, v := range g.Neighbors(u) {
				if dist[v] == Unreachable {
					if v == t {
						return d
					}
					dist[v] = d
					next = append(next, v)
				}
			}
		}
		frontier, next = next, frontier
	}
	return Unreachable
}
