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
// FD is fully dynamic in the original paper; the paper compares against
// its static build and query only, and so does this implementation: an
// Index is built once and never mutated. The highway labelling's
// core.Rows.ApplyOps is this repository's update path.
package fd

import (
	"context"
	"fmt"

	"highway/internal/bfs"
	"highway/internal/bptree"
	"highway/internal/graph"
	"highway/internal/method"
)

// FD implements the method-agnostic index contract; see internal/method.
var _ method.DistanceIndex = (*Index)(nil)

// Infinity is the distance reported between disconnected vertices.
const Infinity int32 = -1

// Index is an FD distance oracle.
type Index struct {
	g          *graph.Graph
	landmarks  []int32
	rankOf     []int32
	isLandmark []bool
	dist       [][]int32 // dist[r][v] = d(landmarks[r], v); full SPT arrays

	// bp holds one bit-parallel tree per landmark when built with
	// BuildBP (the paper's "20+64" configuration); nil otherwise.
	bp []*bptree.Tree
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
