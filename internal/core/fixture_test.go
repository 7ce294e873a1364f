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
	{"ba20k", func() *graph.Graph { return gen.BarabasiAlbert(20_000, 5, 42) }, 16, 69_557},
	{"ba100k", func() *graph.Graph { return gen.BarabasiAlbert(100_000, 5, 42) }, 20, 435_502},
	{"rmat18", func() *graph.Graph { return gen.RMAT(18, 8, 0.57, 0.19, 0.19, 42) }, 20, 385_203},
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

// boundPairs returns 200 000 random pairs of ix's vertices, seeded as
// BenchmarkUpperBound seeds them, and the sum of their bounds.
func boundPairs(ix *Index) (pairs [][2]int32, sum float64) {
	rng, n, sr := rand.New(rand.NewSource(1)), ix.g.NumVertices(), ix.Searcher()
	pairs = make([][2]int32, 200_000)
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
		sum += float64(sr.UpperBound(pairs[i][0], pairs[i][1]))
	}
	return pairs, sum
}

// TestUpperBoundSums pins the sum BenchmarkUpperBound reports on BA-20k
// and on R-MAT-16 (the benchmark's R-MAT generator at scale 16, seed 42,
// k = 20), whose leaves the labelling elides: a change to the layout of
// the labels that moves any bound fails here, under -short too.
func TestUpperBoundSums(t *testing.T) {
	rmat16 := benchFixture{"rmat16", func() *graph.Graph { return gen.RMAT(16, 8, 0.57, 0.19, 0.19, 42) }, 20, 0}
	for _, c := range []struct {
		fx  benchFixture
		sum float64
	}{{benchFixtures[0], 832_363}, {rmat16, 672_002}} {
		t.Run(c.fx.name, func(t *testing.T) {
			if _, sum := boundPairs(c.fx.build(t)); sum != c.sum {
				t.Fatalf("the bounds of 200 000 random pairs sum to %.0f, want %.0f", sum, c.sum)
			}
		})
	}
}

// BenchmarkUpperBound times Searcher.UpperBound, the label merge every
// query starts with, over 200 000 random pairs of each benchmark fixture,
// one pair an op, and reports the sum of their bounds, which every layout
// of the labels must repeat (TestUpperBoundSums).
func BenchmarkUpperBound(b *testing.B) {
	for _, fx := range benchFixtures {
		b.Run(fx.name, func(b *testing.B) {
			ix := fx.build(b)
			pairs, sum := boundPairs(ix)
			sr := ix.Searcher()
			for i := 0; b.Loop(); i = (i + 1) % len(pairs) {
				sr.UpperBound(pairs[i][0], pairs[i][1])
			}
			b.ReportMetric(sum, "sum")
		})
	}
}
