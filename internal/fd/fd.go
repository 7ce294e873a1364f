// Package fd implements the FD baseline (Hayashi, Akiba, Kawarabayashi,
// CIKM 2016): the method the paper identifies as closest to its own
// (Section 7). FD precomputes a full shortest-path tree (here: the full
// distance array) from each of k landmarks, bounds a query by the best
// landmark detour, and refines the bound with a bidirectional BFS on the
// graph minus the landmarks — the same querying skeleton as the highway
// cover labelling, but with labels of fixed size k for every vertex
// (Table 2 reports FD's ALS as "20+64": 20 landmark entries plus 64
// bit-parallel neighbor bits per landmark — BuildBP implements the
// bit-parallel part via internal/bptree).
//
// Unlike HL, FD is fully dynamic in the original paper; this
// implementation supports its incremental side (edge insertions) by
// repairing each landmark's distance array with a pruned BFS from the
// improved endpoint. Deletions are out of scope (they need per-tree parent
// counts and are orthogonal to the paper's comparison). Queries always
// search a *graph.Graph: an insert refreezes the evolved adjacency with
// graph.FromAdjacency, O(n+m) per edge, which no benchmark or bench test
// measures (none inserts into fd).
package fd

import (
	"context"
	"fmt"

	"highway/internal/bfs"
	"highway/internal/bptree"
	"highway/internal/graph"
	"highway/internal/method"
)

// FD implements the method-agnostic index contract (and the optional
// Inserter mutation surface); see internal/method.
var (
	_ method.DistanceIndex = (*Index)(nil)
	_ method.Inserter      = (*Index)(nil)
)

// Infinity is the distance reported between disconnected vertices.
const Infinity int32 = -1

// Index is an FD distance oracle.
type Index struct {
	g          *graph.Graph // the graph as it is now, inserted edges included
	landmarks  []int32
	rankOf     []int32
	isLandmark []bool
	dist       [][]int32 // dist[r][v] = d(landmarks[r], v); full SPT arrays

	// bp holds one bit-parallel tree per landmark when built with
	// BuildBP (the paper's "20+64" configuration); nil otherwise.
	// BP trees are static: InsertEdge drops them (their bounds could
	// become stale), falling back to the plain SPT bounds.
	bp []*bptree.Tree

	// adj holds the rows InsertEdge appends to, in insertion order (the
	// order the overlay section is written in); g is refrozen from it.
	// nil while the index is purely static.
	adj [][]int32
}

// Build constructs the FD index: one full BFS per landmark.
func Build(ctx context.Context, g *graph.Graph, landmarks []int32) (*Index, error) {
	n := g.NumVertices()
	if len(landmarks) == 0 {
		return nil, fmt.Errorf("fd: no landmarks")
	}
	rankOf := make([]int32, n)
	for i := range rankOf {
		rankOf[i] = -1
	}
	isLandmark := make([]bool, n)
	for r, v := range landmarks {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("fd: landmark %d out of range [0,%d)", v, n)
		}
		if rankOf[v] >= 0 {
			return nil, fmt.Errorf("fd: duplicate landmark %d", v)
		}
		rankOf[v] = int32(r)
		isLandmark[v] = true
	}
	ix := &Index{
		g:          g,
		landmarks:  landmarks,
		rankOf:     rankOf,
		isLandmark: isLandmark,
		dist:       make([][]int32, len(landmarks)),
	}
	for r, l := range landmarks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ix.dist[r] = bfs.DistancesReuse(g, l, make([]int32, n))
	}
	return ix, nil
}

// Searcher carries per-goroutine query scratch.
type Searcher struct {
	ix *Index
	sc *bfs.Scratch
}

// NewSearcher returns a query searcher bound to the index, typed as the
// method-agnostic interface.
func (ix *Index) NewSearcher() method.Searcher { return ix.newSearcher() }

func (ix *Index) newSearcher() *Searcher {
	return &Searcher{ix: ix, sc: bfs.NewScratch(ix.g.NumVertices())}
}

// UpperBound returns the landmark-detour bound (see Index.UpperBound).
func (sr *Searcher) UpperBound(s, t int32) int32 { return sr.ix.UpperBound(s, t) }

// UpperBound returns the best landmark detour min_r d(r,s) + d(r,t),
// refined by the bit-parallel trees when present (each tree can shave 1
// or 2 off a detour that passes next to the landmark), or Infinity if no
// landmark reaches both endpoints.
func (ix *Index) UpperBound(s, t int32) int32 {
	best := Infinity
	for _, row := range ix.dist {
		ds, dt := row[s], row[t]
		if ds < 0 || dt < 0 {
			continue
		}
		if d := ds + dt; best < 0 || d < best {
			best = d
		}
	}
	if ix.bp != nil {
		if d := bptree.MinQuery(ix.bp, s, t); d < best || best < 0 {
			if d < 1<<30 {
				best = d
			}
		}
	}
	return best
}

// BuildBP constructs the FD index with one bit-parallel tree per landmark
// covering up to 64 of its neighbors — the paper's FD configuration
// (Table 2 reports FD's label width as "20+64").
func BuildBP(ctx context.Context, g *graph.Graph, landmarks []int32) (*Index, error) {
	ix, err := Build(ctx, g, landmarks)
	if err != nil {
		return nil, err
	}
	used := make([]bool, g.NumVertices())
	for _, l := range landmarks {
		used[l] = true
	}
	ix.bp = make([]*bptree.Tree, 0, len(landmarks))
	for _, l := range landmarks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ix.bp = append(ix.bp, bptree.Build(g, l, used))
	}
	return ix, nil
}

// NumBPTrees returns the number of bit-parallel trees (0 unless BuildBP).
func (ix *Index) NumBPTrees() int { return len(ix.bp) }

// Distance returns the exact distance between s and t, or Infinity.
func (sr *Searcher) Distance(s, t int32) int32 {
	ix := sr.ix
	if s == t {
		return 0
	}
	// A landmark endpoint is answered by its own distance row.
	if r := ix.rankOf[s]; r >= 0 {
		return ix.dist[r][t]
	}
	if r := ix.rankOf[t]; r >= 0 {
		return ix.dist[r][s]
	}
	ub := ix.UpperBound(s, t)
	bound := ub
	if bound == Infinity {
		bound = bfs.NoBound
	}
	d := bfs.BoundedBiBFS(ix.g, s, t, bound, ix.isLandmark, sr.sc)
	if d == bfs.Unreachable {
		return ub // Infinity when ub is Infinity too
	}
	return d
}

// Distance is the allocation-per-call convenience form.
func (ix *Index) Distance(s, t int32) int32 {
	return ix.newSearcher().Distance(s, t)
}

// Stats summarizes the index (method-agnostic form). FD labels have
// fixed size k for every non-landmark vertex.
func (ix *Index) Stats() method.Stats {
	k := len(ix.landmarks)
	return method.Stats{
		Method:       "fd",
		NumVertices:  ix.g.NumVertices(),
		NumEdges:     ix.g.NumEdges(),
		NumLandmarks: k,
		NumEntries:   ix.NumEntries(),
		AvgLabelSize: ix.AvgLabelSize(),
		MaxLabelSize: k,
		SizeBytes:    ix.SizeBytes(),
		BPTrees:      len(ix.bp),
	}
}

// InsertEdge adds the undirected edge {u,v} and repairs every landmark's
// distance array incrementally. Inserting an existing edge or a self-loop
// is a no-op. Vertices must already exist (vertex additions are not
// supported; FD's original paper adds isolated vertices first, which never
// changes distances).
func (ix *Index) InsertEdge(u, v int32) error {
	n := ix.g.NumVertices()
	if u < 0 || v < 0 || int(u) >= n || int(v) >= n {
		return fmt.Errorf("fd: edge {%d,%d} out of range [0,%d)", u, v, n)
	}
	if u == v || ix.g.HasEdge(u, v) {
		return nil
	}
	ix.bp = nil // BP bounds are static; drop them on mutation
	ix.materialize()
	ix.adj[u] = append(ix.adj[u], v)
	ix.adj[v] = append(ix.adj[v], u)
	g, err := graph.FromAdjacency(ix.adj)
	if err != nil {
		return err
	}
	ix.g = g
	for _, row := range ix.dist {
		ix.repairRow(row, u, v)
	}
	return nil
}

// materialize copies the CSR adjacency into the mutable rows.
func (ix *Index) materialize() {
	if ix.adj != nil {
		return
	}
	n := ix.g.NumVertices()
	adj := make([][]int32, n)
	for v := 0; v < n; v++ {
		nb := ix.g.Neighbors(int32(v))
		adj[v] = append(make([]int32, 0, len(nb)+1), nb...)
	}
	ix.adj = adj
}

// repairRow restores row = d(landmark, ·) after inserting {u,v}: if one
// endpoint's distance improves through the other, a BFS from the improved
// endpoint relaxes the affected region. Unreachable vertices (-1) become
// reachable when the new edge connects their component.
func (ix *Index) repairRow(row []int32, u, v int32) {
	du, dv := row[u], row[v]
	// Normalize: make u the better-connected endpoint.
	if du < 0 && dv < 0 {
		return // both unreachable: still unreachable
	}
	if du < 0 || (dv >= 0 && dv < du) {
		u, v = v, u
		du, dv = dv, du
	}
	if dv >= 0 && du+1 >= dv {
		return // no improvement
	}
	// v improves to du+1; propagate.
	row[v] = du + 1
	frontier := []int32{v}
	var next []int32
	for len(frontier) > 0 {
		next = next[:0]
		for _, x := range frontier {
			dx := row[x]
			for _, y := range ix.g.Neighbors(x) {
				if row[y] < 0 || row[y] > dx+1 {
					row[y] = dx + 1
					next = append(next, y)
				}
			}
		}
		frontier, next = next, frontier
	}
}

// NumLandmarks returns k.
func (ix *Index) NumLandmarks() int { return len(ix.landmarks) }

// Landmarks returns the landmark ids by rank (not to be modified).
func (ix *Index) Landmarks() []int32 { return ix.landmarks }

// NumEntries returns the label-entry count: k entries for every
// non-landmark vertex (FD stores full SPTs).
func (ix *Index) NumEntries() int64 {
	return int64(len(ix.landmarks)) * int64(ix.g.NumVertices()-len(ix.landmarks))
}

// AvgLabelSize is k for every vertex (Table 2 reports "20+64"; the +64
// bit-parallel part is not implemented).
func (ix *Index) AvgLabelSize() float64 { return float64(len(ix.landmarks)) }

// SizeBytes reports the index size under the paper's accounting: 32-bit
// vertex ids + 8-bit distances per entry.
func (ix *Index) SizeBytes() int64 { return ix.NumEntries() * 5 }
