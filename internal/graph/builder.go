package graph

import (
	"fmt"
	"slices"
)

// Builder accumulates undirected edges and produces a deduplicated CSR
// Graph. It is the entry point for constructing graphs from edges:
// generators, file loaders and tests all go through it, so self-loop and
// multi-edge handling is uniform everywhere. Callers that already hold
// adjacency rows use FromAdjacency; both finish in the same row kernel
// (canonicalize).
//
// Builder is not safe for concurrent use.
type Builder struct {
	n     int
	edges []uint64 // packed (min<<32 | max)
}

// NewBuilder returns a Builder for a graph with n vertices. An edge added
// with AddEdgeGrow grows n to cover its endpoints; one added with AddEdge
// that leaves [0,n) is reported by Build.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// Grow raises the vertex count to at least n.
func (b *Builder) Grow(n int) {
	if n > b.n {
		b.n = n
	}
}

// Reserve makes room for m more AddEdge calls, so a caller that knows its
// edge count fills the buffer without regrowing it.
func (b *Builder) Reserve(m int) {
	b.edges = slices.Grow(b.edges, max(m, 0))
}

// NumVertices returns the current vertex count.
func (b *Builder) NumVertices() int { return b.n }

// AddEdge records the undirected edge {u,v}. Self-loops are dropped
// silently (the paper's graphs are simple). Ordering of endpoints does not
// matter. Out-of-range endpoints are reported by Build.
func (b *Builder) AddEdge(u, v int32) {
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, uint64(uint32(u))<<32|uint64(uint32(v)))
}

// AppendPacked lets a caller that produces edges in bulk write them
// straight into the edge buffer: fill gets m free slots at its end, stores
// each edge {u,v}, u < v, as uint64(u)<<32|uint64(v) in a prefix of them
// and returns how long that prefix is. The edges then count as if AddEdge
// had added them in that order. A self-loop or an edge with u > v is not
// an edge fill may store; that is the caller's invariant and is not
// checked here.
func (b *Builder) AppendPacked(m int, fill func(slots []uint64) int) {
	b.Reserve(m)
	n := len(b.edges)
	b.edges = b.edges[:n+fill(b.edges[n:n+max(m, 0)])]
}

// AddEdgeGrow records {u,v} and grows the vertex count to cover both
// endpoints. Useful when loading edge lists whose vertex count is unknown.
func (b *Builder) AddEdgeGrow(u, v int32) {
	b.Grow(int(max(u, v)) + 1)
	b.AddEdge(u, v)
}

// Build produces the deduplicated CSR graph in time linear in the edges
// added, without sorting anything. Row v is its lower part (neighbours
// below v) followed by its upper part (neighbours above v). Build counts
// degrees, prefix-sums them into row starts and scatters every edge's
// smaller endpoint into the front of its larger endpoint's row, which
// leaves the lower parts in arrival order and shows where each upper part
// begins. Two transpositions then visit the rows in ascending order: v goes
// to the upper part of every u in v's lower part, which writes the upper
// parts ascending, and u goes back to the lower part of every v in u's
// upper part, which rewrites the lower parts ascending. canonicalize has
// only repeated edges left to drop. The Builder can be reused afterwards
// (its edge buffer is retained).
func (b *Builder) Build() (*Graph, error) {
	n, edges := b.n, b.edges
	offsets := make([]int64, n+1)
	for _, e := range edges {
		u, v := int32(e>>32), int32(uint32(e))
		if u < 0 || int(v) >= n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, n)
		}
		offsets[u+1]++
		offsets[v+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]int32, 2*len(edges))
	// Lower parts in arrival order: cur[v] advances from where row v begins
	// to where its upper part does.
	cur := slices.Clone(offsets[:n])
	for _, e := range edges {
		v := uint32(e)
		targets[cur[v]] = int32(e >> 32)
		cur[v]++
	}
	// Upper parts. The upper part of row v is written only while rows above
	// v are visited, so cur[v] still marks the end of v's lower part when
	// v's turn comes.
	for v := 0; v < n; v++ {
		for _, u := range targets[offsets[v]:cur[v]] {
			targets[cur[u]] = int32(v)
			cur[u]++
		}
	}
	// Lower parts again, ascending this time. The lower part of row u is
	// written only while rows below it are visited, so when u's turn comes
	// cur[u] has reached the beginning of u's upper part.
	copy(cur, offsets)
	for u := 0; u < n; u++ {
		for _, v := range targets[cur[u]:offsets[u+1]] {
			targets[cur[v]] = int32(u)
			cur[v]++
		}
	}
	return canonicalize(offsets, targets), nil
}

// MustBuild is Build that panics on error; for tests and generators whose
// inputs are in-range by construction.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromAdjacency builds the graph whose vertex v has the neighbours rows[v],
// for callers that already hold adjacency rows: rows are copied straight
// into the CSR arrays and no edge list is formed. Rows may be in any order
// and may repeat a neighbour or name their own vertex; both are dropped, as
// Builder drops them. The rows must be symmetric (w in rows[v] iff v in
// rows[w]); that is the caller's invariant and is not checked here.
func FromAdjacency(rows [][]int32) (*Graph, error) {
	n := len(rows)
	offsets := make([]int64, n+1)
	for v, row := range rows {
		offsets[v+1] = offsets[v] + int64(len(row))
	}
	targets := make([]int32, offsets[n])
	for v, row := range rows {
		for _, w := range row {
			if w < 0 || int(w) >= n {
				return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", min(int32(v), w), max(int32(v), w), n)
			}
		}
		copy(targets[offsets[v]:], row)
	}
	return canonicalize(offsets, targets), nil
}

// FromEdges is a convenience constructor used heavily in tests: it builds a
// graph with n vertices from an explicit edge list.
func FromEdges(n int, edges [][2]int32) (*Graph, error) {
	b := NewBuilder(n)
	b.Reserve(len(edges))
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// MustFromEdges is FromEdges that panics on error.
func MustFromEdges(n int, edges [][2]int32) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}
