package gen

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"highway/internal/graph"
)

// graphMagic began the retired graph file, whose layout graphFNV hashes.
const graphMagic = "HWGRAPH1"

// graphFNV hashes g's CSR arrays in the layout the values below were
// recorded in, the legacy graph file's: its magic, n and 2m, the offsets as
// uint64 and the targets as uint32, little-endian. How graphs are written
// today does not enter it.
func graphFNV(t testing.TB, g *graph.Graph) uint64 {
	t.Helper()
	offsets, targets := g.CSR()
	h := fnv.New64a()
	h.Write([]byte(graphMagic))
	for _, v := range []any{uint64(g.NumVertices()), uint64(len(targets)), offsets, targets} {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	return h.Sum64()
}

// TestFixtureBytesGolden pins the CSR arrays of one small graph per random
// family, of the R-MAT one's largest component, and (without -short) of
// the benchmark's own fixtures. The benchmark's landmarks and index_bytes
// all follow from these arrays, so a change to a generator's RNG stream,
// to Builder.Build or to InducedSubgraph that moves a fixture fails here,
// in tier-1, not as an index_bytes diff in the benchmark. The values were
// recorded at the commit before the draw loops and Build were rewritten; a
// deliberate change re-records them and says so.
func TestFixtureBytesGolden(t *testing.T) {
	check := func(name string, g *graph.Graph, want uint64) {
		t.Helper()
		if got := graphFNV(t, g); got != want {
			t.Errorf("%s: %v serializes to FNV-1a %#x, want %#x", name, g, got, want)
		}
	}
	rmat := RMAT(12, 8, 0.57, 0.19, 0.19, 42)
	lcc, _ := graph.LargestComponent(rmat)
	check("rmat12", rmat, 0x349bd100bab393b9)
	check("rmat12.lcc", lcc, 0x85302d99798fe8cc)
	check("ba2k", BarabasiAlbert(2000, 5, 42), 0xfb95f54a6c244251)
	check("ws2k", WattsStrogatz(2000, 4, 0.1, 42), 0x8077724cf48b0c71)
	check("er2k", ErdosRenyi(2000, 8000, 42), 0xc5534fb9b4e001a3)
	if testing.Short() {
		return
	}
	// The benchmark's own: offline-rmat, point-ba and batch-ba, churn-ba20k
	// and cluster-ba20k.
	rmat = RMAT(18, 8, 0.57, 0.19, 0.19, 42)
	lcc, _ = graph.LargestComponent(rmat)
	check("rmat18", rmat, 0x762667000e5cfea4)
	check("rmat18.lcc", lcc, 0x1f939bc7326505c4)
	check("ba100k", BarabasiAlbert(100_000, 5, 42), 0x2480896464008bec)
	check("ba20k", BarabasiAlbert(20_000, 5, 42), 0xbc5300f65deaf9c5)
	check("er50k", ErdosRenyi(50_000, 200_000, 42), 0x31fc2cf764653b33)
}

// TestEdgeListBytesGolden pins the text form the same way.
func TestEdgeListBytesGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want uint64
	}{
		{"rmat12", RMAT(12, 8, 0.57, 0.19, 0.19, 42), 0x8973182a20684e89},
		{"ba2k", BarabasiAlbert(2000, 5, 42), 0x6b6e559b9deed6ef},
	} {
		h := fnv.New64a()
		if err := tc.g.WriteEdgeList(h); err != nil {
			t.Fatal(err)
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: edge list hashes to FNV-1a %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
