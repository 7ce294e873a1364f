package gen

import (
	"testing"

	"highway/internal/graph"
)

var sink *graph.Graph

// BenchmarkRMAT times seed to raw CSR for the web-graph family: the draw
// loop (scale draws per edge) and Builder.Build.
func BenchmarkRMAT(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		sink = RMAT(16, 8, 0.57, 0.19, 0.19, 42)
	}
}

// BenchmarkBarabasiAlbert times seed to CSR for the social-network family.
func BenchmarkBarabasiAlbert(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		sink = BarabasiAlbert(20_000, 5, 42)
	}
}
