package graph_test

import (
	"bytes"
	"math/rand"
	"testing"

	"highway/internal/gen"
	"highway/internal/graph"
)

// rawEdges returns g's edges the way a loader meets them: in a seeded
// random order, every eighth one a second time with its endpoints
// swapped.
func rawEdges(g *graph.Graph) [][2]int32 {
	var edges [][2]int32
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				edges = append(edges, [2]int32{u, v})
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for i, m := 0, len(edges); i < m; i += 8 {
		edges = append(edges, [2]int32{edges[i][1], edges[i][0]})
	}
	return edges
}

var benchFixtures = []struct {
	name string
	make func() *graph.Graph
}{
	{"rmat16", func() *graph.Graph { return gen.RMAT(16, 8, 0.57, 0.19, 0.19, 42) }},
	{"ba20k", func() *graph.Graph { return gen.BarabasiAlbert(20_000, 5, 42) }},
}

var sink *graph.Graph

// BenchmarkBuilderBuild times edge list to CSR: AddEdge for every raw
// edge, then Build.
func BenchmarkBuilderBuild(b *testing.B) {
	for _, fx := range benchFixtures {
		g := fx.make()
		edges := rawEdges(g)
		b.Run(fx.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sink = graph.MustFromEdges(g.NumVertices(), edges)
			}
			if sink.NumEdges() != g.NumEdges() {
				b.Fatalf("rebuilt %d edges, want %d", sink.NumEdges(), g.NumEdges())
			}
		})
	}
}

// BenchmarkPatch times the CSR half of a write: one edge inserted, as
// cluster-ba20k writes, and a churn batch of 8 edges, 3 deleted and 5
// inserted, as churn-ba20k writes. The batches are drawn once, valid
// against the fixture, and every iteration patches the fixture itself.
func BenchmarkPatch(b *testing.B) {
	for _, fx := range benchFixtures {
		g := fx.make()
		n := int32(g.NumVertices())
		rng := rand.New(rand.NewSource(3))
		var ins, del [][2]int32
		for len(ins) < 5 {
			if u, v := rng.Int31n(n), rng.Int31n(n); u != v && !g.HasEdge(u, v) {
				ins = append(ins, [2]int32{u, v})
			}
		}
		for len(del) < 3 {
			if u := rng.Int31n(n); g.Degree(u) > 0 {
				del = append(del, [2]int32{u, g.Neighbors(u)[0]})
			}
		}
		for _, bc := range []struct {
			name     string
			ins, del [][2]int32
		}{{"edges=1", ins[:1], nil}, {"edges=8", ins, del}} {
			b.Run(fx.name+"/"+bc.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					var err error
					if sink, err = g.Patch(bc.ins, bc.del); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkLargestComponent times the component cut at the benchmark
// fixtures' shapes — raw R-MAT, whose isolated vertices make the cut real,
// and connected BA, which is one sweep and no cut — and on BA with a
// fifth of its vertices cut off.
func BenchmarkLargestComponent(b *testing.B) {
	fifthOff := func(g *graph.Graph) *graph.Graph {
		keep := make([]int32, 0, g.NumVertices())
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			if v%5 != 0 {
				keep = append(keep, v)
			}
		}
		g, _, err := g.InducedSubgraph(keep)
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	for _, fx := range []struct {
		name      string
		g         *graph.Graph
		connected bool
	}{
		{"rmat16", gen.RMAT(16, 8, 0.57, 0.19, 0.19, 42), false},
		{"rmat18", gen.RMAT(18, 8, 0.57, 0.19, 0.19, 42), false},
		{"ba20k", fifthOff(gen.BarabasiAlbert(20_000, 5, 42)), false},
		{"ba100k", gen.BarabasiAlbert(100_000, 5, 42), true},
	} {
		b.Run(fx.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sink, _ = graph.LargestComponent(fx.g)
			}
			if (sink == fx.g) != fx.connected {
				b.Fatalf("fixture returned as it is: %v, connected: %v", sink == fx.g, fx.connected)
			}
		})
	}
}

// BenchmarkReadEdgeList times text to CSR: the fixture written by
// WriteEdgeList, parsed and built.
func BenchmarkReadEdgeList(b *testing.B) {
	for _, fx := range benchFixtures {
		g := fx.make()
		var text bytes.Buffer
		if err := g.WriteEdgeList(&text); err != nil {
			b.Fatal(err)
		}
		b.Run(fx.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(text.Len()))
			for b.Loop() {
				var err error
				if sink, err = graph.ReadEdgeList(bytes.NewReader(text.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
			if sink.NumEdges() != g.NumEdges() {
				b.Fatalf("read %d edges, want %d", sink.NumEdges(), g.NumEdges())
			}
		})
	}
}
