package bench

import (
	"sync"
	"testing"

	"highway/internal/bfs"
	"highway/internal/datasets"
	"highway/internal/graph"
)

// BenchmarkBuildBFS's fixture is the Skitter stand-in at shrink 4, loaded
// once for every round of the benchmark.
var (
	buildFixOnce sync.Once
	buildFixG    *graph.Graph
)

func buildFixture(b *testing.B) *graph.Graph {
	b.Helper()
	buildFixOnce.Do(func() {
		d, err := datasets.ByName("Skitter")
		if err != nil {
			panic(err)
		}
		buildFixG = d.Load(4)
	})
	return buildFixG
}

// BenchmarkBuildBFS isolates the engine: one full single-source BFS from
// the highest-degree vertex.
func BenchmarkBuildBFS(b *testing.B) {
	g := buildFixture(b)
	_, hub := g.MaxDegree()
	var dist []int32
	for i := 0; i < b.N; i++ {
		dist = bfs.DistancesReuse(g, hub, dist)
	}
}
