package core

import (
	"math/rand"
	"testing"

	"highway/internal/gen"
	"highway/internal/graph"
	"highway/internal/landmark"
)

// benchFixture is one of the benchmark's fixtures (benchmark/catalog.go):
// the same generator call and seed, its largest component, and its k
// highest-degree vertices as landmarks.
type benchFixture struct {
	name  string
	gen   func() *graph.Graph
	k     int
	bytes int // len(Write) of its index
}

var benchFixtures = []benchFixture{
	{"ba20k", func() *graph.Graph { return gen.BarabasiAlbert(20_000, 5, 42) }, 16, 77_841},
	{"ba100k", func() *graph.Graph { return gen.BarabasiAlbert(100_000, 5, 42) }, 20, 509_726},
	{"rmat18", func() *graph.Graph { return gen.RMAT(18, 8, 0.57, 0.19, 0.19, 42) }, 20, 882_386},
}

// build returns the fixture's index, built as the benchmark builds it.
func (fx benchFixture) build(tb testing.TB) *Index {
	tb.Helper()
	g, _ := graph.LargestComponent(fx.gen())
	lm, err := landmark.Select(g, landmark.Options{K: fx.k, Strategy: landmark.Degree})
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := BuildParallel(g, lm)
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// TestFixtureIndexBytes pins the length of each benchmark fixture's index
// file, the benchmark's index_bytes, exactly: a change to the layout that
// grows it fails here by name. R-MAT-18 (a second to build) is skipped
// under -short.
func TestFixtureIndexBytes(t *testing.T) {
	for _, fx := range benchFixtures {
		t.Run(fx.name, func(t *testing.T) {
			if testing.Short() && fx.name == "rmat18" {
				t.Skip("R-MAT-18 under -short")
			}
			if got := len(v2Bytes(t, fx.build(t))); got != fx.bytes {
				t.Fatalf("index file of %d bytes, want %d", got, fx.bytes)
			}
		})
	}
}

// BenchmarkUpperBound times Searcher.UpperBound, the label merge every
// query starts with, over 200 000 random pairs of each benchmark fixture,
// one pair an op, and reports the sum of their bounds, which every layout
// of the labels must repeat.
func BenchmarkUpperBound(b *testing.B) {
	for _, fx := range benchFixtures {
		b.Run(fx.name, func(b *testing.B) {
			ix := fx.build(b)
			rng, n, sr := rand.New(rand.NewSource(1)), ix.g.NumVertices(), ix.Searcher()
			pairs, sum := make([][2]int32, 200_000), 0.0
			for i := range pairs {
				pairs[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
				sum += float64(sr.UpperBound(pairs[i][0], pairs[i][1]))
			}
			for i := 0; b.Loop(); i = (i + 1) % len(pairs) {
				sr.UpperBound(pairs[i][0], pairs[i][1])
			}
			b.ReportMetric(sum, "sum")
		})
	}
}
