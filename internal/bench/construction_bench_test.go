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
		buildFixLM, err = landmark.Select(buildFixG, landmark.Options{K: 20, Strategy: landmark.Degree})
		if err != nil {
			panic(err)
		}
	})
	return buildFixG, buildFixLM
}

// BenchmarkBuild measures index construction per traversal direction and
// worker count: the topdown variants push every level, dopt is the
// push/pull default.
func BenchmarkBuild(b *testing.B) {
	g, lm := buildFixture(b)
	cases := []struct {
		name string
		opt  core.Options
	}{
		{"HL/topdown", core.Options{Workers: 1, Direction: core.DirectionTopDown}},
		{"HL/dopt", core.Options{Workers: 1, Direction: core.DirectionAuto}},
		{"HLP/topdown", core.Options{Workers: 0, Direction: core.DirectionTopDown}},
		{"HLP/dopt", core.Options{Workers: 0, Direction: core.DirectionAuto}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var edges int64
			for i := 0; i < b.N; i++ {
				ix, err := core.BuildOpts(context.Background(), g, lm, c.opt)
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
// the highest-degree vertex, per direction.
func BenchmarkBuildBFS(b *testing.B) {
	g, _ := buildFixture(b)
	_, hub := g.MaxDegree()
	dist := make([]int32, g.NumVertices())
	for _, c := range []struct {
		name string
		dir  bfs.Direction
	}{
		{"topdown", bfs.DirectionTopDown},
		{"dopt", bfs.DirectionAuto},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range dist {
					dist[j] = bfs.Unreachable
				}
				bfs.DistancesIntoDir(g, hub, dist, c.dir, nil)
			}
		})
	}
}
