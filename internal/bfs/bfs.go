// Package bfs implements the breadth-first-search toolkit underlying both
// the offline labelling construction and the online query components:
// single-source BFS (ground truth and SPT construction), bidirectional BFS
// (the Bi-BFS baseline of Table 2), and the distance-bounded bidirectional
// search of the paper's Algorithm 2, which runs on the sparsified graph
// G[V\R] expressed as a skip mask.
//
// All searches run on the shared direction-optimizing engine (engine.go):
// graphs exposing flat CSR arrays via CSRAccess get hybrid
// top-down/bottom-up level expansion with bitset frontiers; other
// adjacency views fall back to the generic top-down walk. Scratch state
// is pooled, so the convenience forms allocate only what they return.
package bfs

// Adjacency is the read-only graph view the searches operate on. It is a
// type parameter (not an interface value) so that searches over
// *graph.Graph monomorphize with zero dispatch cost while dynamic overlay
// graphs (e.g. the FD baseline's insert-only graph) reuse the same
// algorithms. Implementations that also satisfy CSRAccess opt in to the
// direction-optimizing fast path.
type Adjacency interface {
	NumVertices() int
	Neighbors(v int32) []int32
}

// Unreachable is the distance reported between vertices in different
// connected components.
const Unreachable int32 = -1

// Distances returns the BFS distance from src to every vertex
// (Unreachable where no path exists). The returned slice is freshly
// allocated; all other search state comes from the scratch pool.
func Distances[G Adjacency](g G, src int32) []int32 {
	dist := make([]int32, g.NumVertices())
	for i := range dist {
		dist[i] = Unreachable
	}
	DistancesInto(g, src, dist)
	return dist
}

// DistancesReuse is Distances writing into buf, growing it if needed, and
// returning it. Unlike DistancesInto it does not require buf to be
// pre-filled (or even non-nil), so callers running many BFSs — the oracle
// harness, landmark sampling — can reuse one buffer with zero per-call
// allocation.
func DistancesReuse[G Adjacency](g G, src int32, buf []int32) []int32 {
	n := g.NumVertices()
	if cap(buf) < n {
		buf = make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = Unreachable
	}
	DistancesInto(g, src, buf)
	return buf
}

// DistancesInto runs BFS from src writing into dist, which must have length
// g.NumVertices() and be pre-filled with Unreachable. It returns the number
// of vertices reached (including src). Reusing dist across calls avoids
// allocation; the caller is responsible for re-clearing it.
func DistancesInto[G Adjacency](g G, src int32, dist []int32) int {
	return DistancesIntoDir(g, src, dist, DirectionAuto, nil)
}

// DistancesIntoDir is DistancesInto with an explicit traversal direction
// and optional stats collection. DirectionAuto is the
// direction-optimizing default; the forced directions exist for
// differential testing and benchmarks. Non-auto directions require CSR
// access only for DirectionBottomUp; graphs without it always run the
// generic top-down walk.
func DistancesIntoDir[G Adjacency](g G, src int32, dist []int32, dir Direction, stats *TraversalStats) int {
	a := getArena(g.NumVertices())
	defer putArena(a)
	if off, tgt, ok := csrOf(g); ok {
		return distancesCSR(off, tgt, src, dist, a, dir, stats)
	}
	return distancesGeneric(g, src, dist, a, stats)
}

// Dist returns the exact distance between s and t via unidirectional BFS
// with early exit. It is the simplest correct oracle and serves as ground
// truth in tests. All scratch state is pooled.
func Dist[G Adjacency](g G, s, t int32) int32 {
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
