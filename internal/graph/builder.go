package graph

import (
	"fmt"
	"slices"
)

// Builder accumulates undirected edges and produces a deduplicated CSR
// Graph. It is the entry point for constructing graphs from edges:
// generators, file loaders and tests all go through it, so self-loop and
// multi-edge handling is uniform everywhere. A caller that holds a graph
// and a batch of edge changes uses Graph.Patch instead.
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

// Packed returns the edges added so far as AppendPacked packs them: the
// Builder's own buffer, read-only and valid until the next edge is added.
func (b *Builder) Packed() []uint64 { return b.edges }

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

// Patch returns g with the edges ins added and del removed, leaving g
// unchanged: snapshots share it. It sorts the batch's arcs by row, moves
// the targets between two arcs, untouched rows included, with one copy,
// and merges each arc into its row where a binary search puts it: no row
// is sorted. An insert present, a delete absent, an edge named twice (a
// self-loop's two arcs are one arc twice) or an endpoint outside [0,n) is
// an error and returns no graph. targets keeps 2 slots a delete as slack.
func (g *Graph) Patch(ins, del [][2]int32) (*Graph, error) {
	if len(ins)+len(del) == 0 {
		return g, nil
	}
	n, off, tgt := g.NumVertices(), g.offsets, g.targets
	// Both arcs of every edge as row<<33 | target<<1 | deleted: sorted, they
	// run by row and target, an edge named twice as two equal key>>1.
	arcs := make([]uint64, 0, 2*(len(ins)+len(del)))
	for bit, edges := range [][][2]int32{ins, del} {
		for _, e := range edges {
			u, v := e[0], e[1]
			if u < 0 || v < 0 || int(u) >= n || int(v) >= n {
				return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", min(u, v), max(u, v), n)
			}
			arcs = append(arcs, uint64(u)<<33|uint64(v)<<1|uint64(bit), uint64(v)<<33|uint64(u)<<1|uint64(bit))
		}
	}
	slices.Sort(arcs)
	offsets := make([]int64, n+1)
	targets := make([]int32, len(tgt)+2*len(ins))
	// tgt[:r] is read, targets[:p] written, and rows below next have their
	// offsets. An edge's first arc met is in its smaller endpoint's row, so
	// {v,w} below names it smaller endpoint first.
	r, p, next := int64(0), int64(0), 0
	for i, a := range arcs {
		v, w := int(a>>33), int32(uint32(a>>1))
		for ; next <= v; next++ {
			offsets[next] = off[next] + p - r
		}
		at := max(r, off[v])
		at += int64(SearchInt32(tgt[at:off[v+1]], w))
		p, r = p+int64(copy(targets[p:], tgt[r:at])), at
		present := at < off[v+1] && tgt[at] == w
		switch {
		case i > 0 && a>>1 == arcs[i-1]>>1:
			return nil, fmt.Errorf("graph: edge {%d,%d} named twice", v, w)
		case present != (a&1 == 1):
			return nil, fmt.Errorf("graph: edge {%d,%d} %s", v, w, [2]string{"inserted is present", "deleted is absent"}[a&1])
		case present:
			r++
		default:
			targets[p], p = w, p+1
		}
	}
	for ; next <= n; next++ {
		offsets[next] = off[next] + p - r
	}
	p += int64(copy(targets[p:], tgt[r:]))
	return &Graph{offsets: offsets, targets: targets[:p]}, nil
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
