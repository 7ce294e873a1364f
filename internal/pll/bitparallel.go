package pll

import (
	"context"

	"highway/internal/bptree"
	"highway/internal/graph"
)

// Bit-parallel PLL: the paper's experiments run PLL with 50 bit-parallel
// trees ("the number of bit-parallel BFSs is set to 50 for PLL",
// Section 6.2). See internal/bptree for the tree construction and query.
// BP labels are upper bounds used both as a pruning oracle during
// construction and as extra hubs at query time.

// BuildBP constructs a PLL index with nBP bit-parallel trees rooted at the
// highest-degree vertices followed by the standard pruned BFS over the
// full degree order, pruning with the trees as well as the labels.
func BuildBP(ctx context.Context, g *graph.Graph, nBP int) (*Index, error) {
	n := g.NumVertices()
	order := g.DegreeOrder()
	if nBP > len(order) {
		nBP = len(order)
	}
	used := make([]bool, n)
	trees := make([]*bptree.Tree, 0, nBP)
	for i := 0; i < len(order) && len(trees) < nBP; i++ {
		if used[order[i]] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		trees = append(trees, bptree.Build(g, order[i], used))
	}
	return build(ctx, g, order, trees)
}
