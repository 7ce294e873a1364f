// Package landmark selects the landmark set R used by the highway cover
// labelling and the baselines: the k highest-degree vertices ("we chose
// top 20 vertices as landmarks after sorting based on decreasing order of
// their degrees", Section 6.3 of the paper), ties broken as
// graph.DegreeOrder breaks them, so a (graph, k) pair always yields the
// same landmarks. EXPERIMENTS.md's Ablation A measured random,
// sampled-closeness and degree-spread selection against it.
package landmark

import (
	"fmt"

	"highway/internal/graph"
)

// Strategy names a selection rule; Degree is the only one.
type Strategy string

// Degree picks the k highest-degree vertices (the paper's choice).
const Degree Strategy = "degree"

// Options configures Select.
type Options struct {
	K int // number of landmarks, 1 ≤ K ≤ n
	// Strategy is "" or Degree. Only the benchmark harness names it; it
	// goes under ROADMAP 1(c)'s rule.
	Strategy Strategy
}

// Select returns the K highest-degree vertices, rank 0 first, in a slice
// of their own: an index built on them keeps no n-vertex order behind it.
func Select(g *graph.Graph, opt Options) ([]int32, error) {
	if n := g.NumVertices(); opt.K < 1 || opt.K > n {
		return nil, fmt.Errorf("landmark: K = %d, want 1 ≤ K ≤ %d (the vertex count)", opt.K, n)
	}
	if opt.Strategy != "" && opt.Strategy != Degree {
		return nil, fmt.Errorf("landmark: unknown strategy %q", opt.Strategy)
	}
	lm := make([]int32, opt.K)
	copy(lm, g.DegreeOrder())
	return lm, nil
}
