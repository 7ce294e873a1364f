// Package pll implements the Pruned Landmark Labelling baseline (Akiba,
// Iwata, Yoshida, SIGMOD 2013), the 2-hop-cover method the paper compares
// against in Tables 2-3 and Figures 1 and 4.
//
// PLL performs one pruned BFS per vertex in a fixed labelling order
// (decreasing degree). The BFS from the i-th vertex r prunes a visited
// vertex u at distance d whenever the 2-hop query over the labels built by
// the previous i-1 BFSs already certifies d(r,u) ≤ d; otherwise it adds
// the entry (r, d) to L(u) and keeps expanding. The result is a 2-hop
// cover: d(s,t) = min over common hubs h of δ(h,s)+δ(h,t).
//
// Unlike the highway cover labelling, PLL's size depends on the labelling
// order (the paper's Figure 4 shows 25 vs 30 entries for two orders of the
// same three roots; TestPaperFigure4 reproduces both numbers exactly).
//
// The original implementation adds 50 bit-parallel BFS trees; BuildBP
// implements them (see bitparallel.go), matching the paper's PLL
// configuration. Build constructs the plain variant.
package pll

import (
	"context"
	"fmt"
	"math"

	"highway/internal/bptree"
	"highway/internal/graph"
	"highway/internal/method"
)

// PLL implements the method-agnostic index contract; see internal/method.
var _ method.DistanceIndex = (*Index)(nil)

// Infinity is the distance reported between disconnected vertices.
const Infinity int32 = -1

// Index is a 2-hop-cover pruned landmark labelling.
//
// Label entries are stored in CSR form sorted by hub rank (the position of
// the hub in the labelling order); ranks are int32 because PLL hubs range
// over all vertices.
type Index struct {
	g      *graph.Graph
	order  []int32 // rank -> vertex
	rankOf []int32 // vertex -> rank (-1 if vertex was not a BFS root)

	labelOff  []int64
	labelRank []int32
	labelDist []int32

	bp []*bptree.Tree // bit-parallel trees (BuildBP); nil for plain builds

	full bool // whether every vertex was a root (index answers all pairs)
}

// Build constructs the full PLL index using the decreasing-degree
// labelling order, checking ctx between pruned BFSs.
func Build(ctx context.Context, g *graph.Graph) (*Index, error) {
	return BuildRoots(ctx, g, g.DegreeOrder())
}

// BuildRoots constructs a pruned landmark labelling whose BFS roots are
// exactly roots, in the given order. When roots covers every vertex the
// index is a complete 2-hop cover and Distance is exact; with fewer roots
// Distance returns the best 2-hop upper bound through the roots (used by
// the Figure 4 reproduction and the labelling-size comparison against HL,
// Corollary 3.14).
func BuildRoots(ctx context.Context, g *graph.Graph, roots []int32) (*Index, error) {
	return build(ctx, g, roots, nil)
}

// build runs one pruned BFS per root, in order. A visited vertex u at
// distance d is pruned when the labels built so far or one of the
// bit-parallel trees (nil for plain PLL) already certify d(root,u) ≤ d —
// the one extra test bit-parallel PLL adds. The trees become the index's
// extra hubs at query time.
func build(ctx context.Context, g *graph.Graph, roots []int32, trees []*bptree.Tree) (*Index, error) {
	n := g.NumVertices()
	if len(roots) == 0 {
		return nil, fmt.Errorf("pll: no roots")
	}
	rankOf := make([]int32, n)
	for i := range rankOf {
		rankOf[i] = -1
	}
	for i, v := range roots {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("pll: root %d out of range [0,%d)", v, n)
		}
		if rankOf[v] >= 0 {
			return nil, fmt.Errorf("pll: duplicate root %d", v)
		}
		rankOf[v] = int32(i)
	}

	// Growing per-vertex labels; packed into CSR at the end.
	labels := make([][]entry, n)

	// Pruning-query scratch: hubDist[h] = δ(h, root) for hubs h in the
	// current root's label, else +inf.
	hubDist := make([]int32, len(roots))
	for i := range hubDist {
		hubDist[i] = math.MaxInt32
	}
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	frontier := make([]int32, 0, 1024)
	next := make([]int32, 0, 1024)
	visited := make([]int32, 0, 1024)

	for ri, root := range roots {
		if ri%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		// Load the root's current label into hubDist.
		for _, e := range labels[root] {
			hubDist[e.rank] = e.dist
		}
		frontier = append(frontier[:0], root)
		dist[root] = 0
		visited = append(visited[:0], root)
		for d := int32(0); len(frontier) > 0; d++ {
			next = next[:0]
			for _, u := range frontier {
				// Prune if the existing 2-hop labels or a tree already
				// cover d(root,u) ≤ d.
				if query2hop(labels[u], hubDist) <= d || bptree.MinQuery(trees, root, u) <= d {
					continue
				}
				labels[u] = append(labels[u], entry{rank: int32(ri), dist: d})
				for _, v := range g.Neighbors(u) {
					if dist[v] < 0 {
						dist[v] = d + 1
						visited = append(visited, v)
						next = append(next, v)
					}
				}
			}
			frontier, next = next, frontier
		}
		// Reset scratch.
		for _, e := range labels[root] {
			hubDist[e.rank] = math.MaxInt32
		}
		for _, v := range visited {
			dist[v] = -1
		}
	}

	ix := pack(g, roots, rankOf, labels)
	ix.bp = trees
	return ix, nil
}

type entry struct {
	rank int32
	dist int32
}

// query2hop returns the best 2-hop distance between the current root
// (whose label is loaded in hubDist) and the vertex with label l.
func query2hop(l []entry, hubDist []int32) int32 {
	best := int32(math.MaxInt32)
	for _, e := range l {
		if hd := hubDist[e.rank]; hd != math.MaxInt32 {
			if d := hd + e.dist; d < best {
				best = d
			}
		}
	}
	return best
}

func pack(g *graph.Graph, roots []int32, rankOf []int32, labels [][]entry) *Index {
	n := g.NumVertices()
	off := make([]int64, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + int64(len(labels[v]))
	}
	ix := &Index{
		g:         g,
		order:     roots,
		rankOf:    rankOf,
		labelOff:  off,
		labelRank: make([]int32, off[n]),
		labelDist: make([]int32, off[n]),
		full:      len(roots) == n,
	}
	for v := 0; v < n; v++ {
		base := off[v]
		for i, e := range labels[v] {
			ix.labelRank[base+int64(i)] = e.rank
			ix.labelDist[base+int64(i)] = e.dist
		}
	}
	return ix
}

// Distance returns the 2-hop-cover distance between s and t: exact when
// the index was built over all vertices, otherwise the best bound through
// the roots (Infinity if the labels share no hub).
func (ix *Index) Distance(s, t int32) int32 {
	if s == t {
		return 0
	}
	i, iEnd := ix.labelOff[s], ix.labelOff[s+1]
	j, jEnd := ix.labelOff[t], ix.labelOff[t+1]
	best := bptree.MinQuery(ix.bp, s, t)
	for i < iEnd && j < jEnd {
		ri, rj := ix.labelRank[i], ix.labelRank[j]
		switch {
		case ri == rj:
			if d := ix.labelDist[i] + ix.labelDist[j]; d < best {
				best = d
			}
			i++
			j++
		case ri < rj:
			i++
		default:
			j++
		}
	}
	if best == math.MaxInt32 {
		return Infinity
	}
	return best
}

// UpperBound returns the best 2-hop distance through the labels — for
// PLL that IS the query (Distance), exact on full covers, hence always
// an admissible bound.
func (ix *Index) UpperBound(s, t int32) int32 { return ix.Distance(s, t) }

// NewSearcher returns the index itself: its queries are allocation-free
// merges over immutable arrays, safe for concurrent use, so a searcher
// needs no scratch of its own.
func (ix *Index) NewSearcher() method.Searcher { return ix }

// Stats summarizes the index (method-agnostic form).
func (ix *Index) Stats() method.Stats {
	n := ix.g.NumVertices()
	maxLS := 0
	for v := 0; v < n; v++ {
		if ls := ix.LabelSize(int32(v)); ls > maxLS {
			maxLS = ls
		}
	}
	return method.Stats{
		Method:       "pll",
		NumVertices:  n,
		NumEdges:     ix.g.NumEdges(),
		NumLandmarks: len(ix.order),
		NumEntries:   ix.NumEntries(),
		AvgLabelSize: ix.AvgLabelSize(),
		MaxLabelSize: maxLS,
		SizeBytes:    ix.SizeBytes(),
		BPTrees:      len(ix.bp),
	}
}

// Full reports whether the index is a complete 2-hop cover (every vertex
// was a BFS root), i.e. Distance is exact for all pairs.
func (ix *Index) Full() bool { return ix.full }

// NumEntries returns size(L) = Σ_v |L(v)| (the LS measure of Figure 4).
func (ix *Index) NumEntries() int64 { return ix.labelOff[len(ix.labelOff)-1] }

// LabelSize returns |L(v)|.
func (ix *Index) LabelSize(v int32) int {
	return int(ix.labelOff[v+1] - ix.labelOff[v])
}

// AvgLabelSize returns the average entries per vertex (Table 2's ALS).
func (ix *Index) AvgLabelSize() float64 {
	if ix.g.NumVertices() == 0 {
		return 0
	}
	return float64(ix.NumEntries()) / float64(ix.g.NumVertices())
}

// SizeBytes reports the labelling size under the paper's accounting for
// PLL: 32-bit vertex ids + 8-bit distances per entry (Section 5.2), plus
// 8+8+1 bytes per vertex per bit-parallel tree (two 64-bit masks and an
// 8-bit distance).
func (ix *Index) SizeBytes() int64 {
	return ix.NumEntries()*5 + int64(len(ix.bp))*int64(ix.g.NumVertices())*17
}

// NumBPTrees returns the number of bit-parallel trees (0 for plain
// builds).
func (ix *Index) NumBPTrees() int { return len(ix.bp) }
