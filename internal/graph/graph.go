// Package graph provides the compact immutable graph representation used by
// every component of the repository: a CSR (compressed sparse row) adjacency
// structure for unweighted, undirected graphs, together with builders,
// serialization, statistics and connectivity utilities.
//
// The representation follows the paper's setting (Section 2): graphs are
// undirected and unweighted; directed inputs are symmetrized; self-loops and
// parallel edges are dropped.
package graph

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Graph is an immutable undirected graph in CSR form.
//
// Vertices are dense integers in [0, NumVertices()). Each undirected edge
// {u,v} appears twice in the adjacency arrays: once in u's list and once in
// v's list. Neighbor lists are sorted ascending, enabling binary search and
// deterministic iteration.
//
// The zero value is the empty graph.
type Graph struct {
	offsets []int64       // len n+1; offsets[v]..offsets[v+1] index targets
	targets []int32       // len 2m; sorted within each vertex's range
	fp      atomic.Uint64 // 1<<32 | Fingerprint(), once known
}

// NumVertices returns n, the number of vertices.
func (g *Graph) NumVertices() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns m, the number of undirected edges.
func (g *Graph) NumEdges() int64 {
	if len(g.offsets) == 0 {
		return 0
	}
	return int64(len(g.targets)) / 2
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v as a shared slice view.
// The caller must not modify the returned slice.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.targets[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether the undirected edge {u,v} is present.
func (g *Graph) HasEdge(u, v int32) bool {
	nb := g.Neighbors(u)
	if len(nb) == 0 {
		return false
	}
	i := SearchInt32(nb, v)
	return i < len(nb) && nb[i] == v
}

// SearchInt32 returns the smallest index i with a[i] >= x (len(a) if no
// such element), assuming a is sorted ascending. It is the lower-bound
// helper behind HasEdge: a sort.Search specialization that the compiler
// can inline because it takes no closure.
func SearchInt32(a []int32, x int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// CSR exposes the raw adjacency arrays — offsets (len n+1) and targets
// (len 2m) — that every search in internal/bfs and the construction
// sweep in internal/core run over. Callers must not modify the returned
// slices.
func (g *Graph) CSR() (offsets []int64, targets []int32) {
	return g.offsets, g.targets
}

// MaxDegree returns the maximum vertex degree, and the vertex attaining it.
// For the empty graph it returns (0, -1).
func (g *Graph) MaxDegree() (int, int32) {
	best, arg := 0, int32(-1)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if d := g.Degree(v); d > best || arg < 0 {
			best, arg = d, v
		}
	}
	return best, arg
}

// AvgDegree returns the average degree 2m/n (0 for the empty graph).
func (g *Graph) AvgDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(len(g.targets)) / float64(n)
}

// SizeBytes returns the in-memory footprint of the adjacency structure,
// mirroring Table 1's |G| column (each edge appears in the forward and
// reverse adjacency lists).
func (g *Graph) SizeBytes() int64 {
	return int64(len(g.offsets))*8 + int64(len(g.targets))*4
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.NumVertices(), g.NumEdges())
}

// DegreeOrder returns the vertices sorted by decreasing degree, ties broken
// by ascending vertex id. This is the landmark ordering used throughout the
// paper's experiments ("top 20 vertices as landmarks after sorting based on
// decreasing order of their degrees").
func (g *Graph) DegreeOrder() []int32 {
	n := g.NumVertices()
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	// Counting sort by degree: O(n + maxDeg), deterministic.
	maxDeg, _ := g.MaxDegree()
	buckets := make([]int32, maxDeg+2)
	for v := int32(0); v < int32(n); v++ {
		buckets[maxDeg-g.Degree(v)]++
	}
	sum := int32(0)
	for i := range buckets {
		sum += buckets[i]
		buckets[i] = sum - buckets[i]
	}
	for v := int32(0); v < int32(n); v++ {
		b := maxDeg - g.Degree(v)
		order[buckets[b]] = v
		buckets[b]++
	}
	return order
}

// InducedSubgraph returns the subgraph induced by keep (G[keep]) plus the
// mapping from new vertex ids to original ids. Vertices in keep are
// renumbered densely in the order given. Duplicate entries in keep are
// rejected.
func (g *Graph) InducedSubgraph(keep []int32) (*Graph, []int32, error) {
	// newID[v] is v's new id plus one, so the zero value means "dropped".
	newID := make([]int32, g.NumVertices())
	for i, v := range keep {
		if v < 0 || int(v) >= g.NumVertices() {
			return nil, nil, fmt.Errorf("graph: induced subgraph vertex %d out of range [0,%d)", v, g.NumVertices())
		}
		if newID[v] != 0 {
			return nil, nil, fmt.Errorf("graph: duplicate vertex %d in induced subgraph", v)
		}
		newID[v] = int32(i) + 1
	}
	// Count, prefix-sum, fill: new row i is written by whoever draws i, so
	// both passes split over the rows of keep.
	offsets := make([]int64, len(keep)+1)
	forRowRanges(len(keep), int64(len(g.targets)), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			kept := int64(0)
			for _, w := range g.Neighbors(keep[i]) {
				if newID[w] != 0 {
					kept++
				}
			}
			offsets[i+1] = kept
		}
	})
	for i := range keep {
		offsets[i+1] += offsets[i]
	}
	targets := make([]int32, offsets[len(keep)])
	forRowRanges(len(keep), int64(len(g.targets)), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := offsets[i]
			for _, w := range g.Neighbors(keep[i]) {
				if j := newID[w]; j != 0 {
					targets[p] = j - 1
					p++
				}
			}
		}
	})
	// An ascending keep renumbers monotonically, so the rows arrive sorted
	// and canonicalize only reads them; any other order gets its rows
	// sorted there.
	return canonicalize(offsets, targets), slices.Clone(keep), nil
}
