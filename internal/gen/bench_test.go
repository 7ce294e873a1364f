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

// BenchmarkBarabasiAlbert times seed to CSR for the social-network family.
func BenchmarkBarabasiAlbert(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		sink = BarabasiAlbert(20_000, 5, 42)
	}
}
