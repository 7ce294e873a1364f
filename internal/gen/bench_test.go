package gen

import (
	"fmt"
	"testing"

	"highway/internal/graph"
)

var sink *graph.Graph

// BenchmarkRMAT times seed to raw CSR for the web-graph family: the draws
// (scale of them an edge), their decoding and Builder.Build. scale=18 is
// the offline-rmat fixture's shape.
func BenchmarkRMAT(b *testing.B) {
	for _, scale := range []uint{16, 18} {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sink = RMAT(scale, 8, 0.57, 0.19, 0.19, 42)
			}
		})
	}
}

// BenchmarkBarabasiAlbert times seed to CSR for the social-network family,
// at the shapes of the benchmark's two BA fixtures.
func BenchmarkBarabasiAlbert(b *testing.B) {
	for _, n := range []int{20_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sink = BarabasiAlbert(n, 5, 42)
			}
		})
	}
}
