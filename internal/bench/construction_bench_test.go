package bench

import (
	"context"
	"sync"
	"testing"

	"highway/internal/bfs"
	"highway/internal/core"
	"highway/internal/datasets"
	"highway/internal/graph"
	"highway/internal/landmark"
)

// The construction benchmarks run on the same fixture as the top-level
// bench_test.go: the Skitter stand-in at shrink 4 with k=20 degree
// landmarks.
var (
	buildFixOnce sync.Once
	buildFixG    *graph.Graph
	buildFixLM   []int32
)

func buildFixture(b *testing.B) (*graph.Graph, []int32) {
	b.Helper()
	buildFixOnce.Do(func() {
		d, err := datasets.ByName("Skitter")
		if err != nil {
			panic(err)
		}
		buildFixG = d.Load(4)
		buildFixLM, err = landmark.Select(buildFixG, landmark.Options{K: 20})
		if err != nil {
			panic(err)
		}
	})
	return buildFixG, buildFixLM
}

// BenchmarkBuild measures index construction on one goroutine (HL) and on
// all cores (HLP).
func BenchmarkBuild(b *testing.B) {
	g, lm := buildFixture(b)
	for _, c := range []struct {
		name    string
		workers int
	}{{"HL", 1}, {"HLP", 0}} {
		b.Run(c.name, func(b *testing.B) {
			var edges int64
			for i := 0; i < b.N; i++ {
				ix, err := core.BuildOpts(context.Background(), g, lm, core.Options{Workers: c.workers})
				if err != nil {
					b.Fatal(err)
				}
				edges = ix.BuildStats().Traversal.EdgesScanned()
			}
			b.ReportMetric(float64(edges), "edges-scanned")
		})
	}
}

// BenchmarkBuildBFS isolates the engine: one full single-source BFS from
// the highest-degree vertex.
func BenchmarkBuildBFS(b *testing.B) {
	g, _ := buildFixture(b)
	_, hub := g.MaxDegree()
	var dist []int32
	for i := 0; i < b.N; i++ {
		dist = bfs.DistancesReuse(g, hub, dist)
	}
}
