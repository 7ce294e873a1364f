package gen

import (
	"hash/fnv"
	"testing"

	"highway/internal/graph"
)

// TestFixtureBytesGolden pins the serialized bytes of one small graph per
// random family, and of the R-MAT one's largest component. The benchmark's
// fixtures, landmarks and index_bytes all follow from these bytes, so a
// change to a generator's RNG stream, to Builder.Build or to
// InducedSubgraph that moves a fixture fails here, in tier-1, not as an
// index_bytes diff in the benchmark. A deliberate change re-records the
// values and says so.
func TestFixtureBytesGolden(t *testing.T) {
	rmat := RMAT(12, 8, 0.57, 0.19, 0.19, 42)
	lcc, _ := graph.LargestComponent(rmat)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want uint64
	}{
		{"rmat12", rmat, 0x349bd100bab393b9},
		{"rmat12.lcc", lcc, 0x85302d99798fe8cc},
		{"ba2k", BarabasiAlbert(2000, 5, 42), 0xfb95f54a6c244251},
		{"ws2k", WattsStrogatz(2000, 4, 0.1, 42), 0x8077724cf48b0c71},
	} {
		h := fnv.New64a()
		if err := tc.g.WriteBinary(h); err != nil {
			t.Fatal(err)
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: %v serializes to FNV-1a %#x, want %#x", tc.name, tc.g, got, tc.want)
		}
	}
}
