package graph

// ConnectedComponents labels every vertex with a component id in
// [0, count) and returns the labels and component count. Component ids are
// assigned in order of the smallest vertex in each component, so output is
// deterministic.
func ConnectedComponents(g *Graph) (labels []int32, count int) {
	n := g.NumVertices()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]int32, 0, 1024)
	for v := int32(0); v < int32(n); v++ {
		if labels[v] >= 0 {
			continue
		}
		id := int32(count)
		count++
		labels[v] = id
		queue = append(queue[:0], v)
		for head := 0; head < len(queue); head++ {
			for _, w := range g.Neighbors(queue[head]) {
				if labels[w] < 0 {
					labels[w] = id
					queue = append(queue, w)
				}
			}
		}
	}
	return labels, count
}

// LargestComponent returns the induced subgraph of the largest connected
// component (ties broken by smallest component id) together with the
// mapping from new ids to original ids. The paper assumes connected graphs
// (Section 2); loaders use this to enforce that assumption.
func LargestComponent(g *Graph) (*Graph, []int32) {
	labels, count := ConnectedComponents(g)
	if count <= 1 {
		// Already connected (or empty): identity mapping.
		ids := make([]int32, g.NumVertices())
		for i := range ids {
			ids[i] = int32(i)
		}
		return g, ids
	}
	sizes := make([]int64, count)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for c := 1; c < count; c++ {
		if sizes[c] > sizes[best] {
			best = c
		}
	}
	keep := make([]int32, 0, sizes[best])
	for v, l := range labels {
		if l == int32(best) {
			keep = append(keep, int32(v))
		}
	}
	sub, orig, err := g.InducedSubgraph(keep)
	if err != nil {
		// keep is in-range and duplicate-free by construction.
		panic("graph: LargestComponent: " + err.Error())
	}
	return sub, orig
}

// IsConnected reports whether the graph has at most one connected component.
func IsConnected(g *Graph) bool {
	_, count := ConnectedComponents(g)
	return count <= 1
}
