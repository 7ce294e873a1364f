package core

import (
	"bytes"
	"math/rand"
	"testing"

	"highway/internal/gen"
	"highway/internal/graph"
)

// TestOffsetsBlocks holds newOffsets and at to plain prefix sums around the
// block edges: n+1 offsets fill a block short of one, exactly, and one over,
// for one block and two, with every label at the 255 entries that bring a
// block's last uint16 to its limit and with random sizes.
func TestOffsetsBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 254, 255, 256, 511, 512} {
		for _, size := range []func() uint8{
			func() uint8 { return MaxLandmarks },
			func() uint8 { return uint8(rng.Intn(MaxLandmarks + 1)) },
		} {
			sizes := make([]uint8, n)
			for v := range sizes {
				sizes[v] = size()
			}
			off, entries := newOffsets(sizes)
			if len(off.base) != (n+1+offBlock-1)/offBlock*8 || len(off.rel) != (n+1)*2 {
				t.Fatalf("n=%d: %d bytes of base and %d of rel", n, len(off.base), len(off.rel))
			}
			var sum int64
			for v := 0; v <= n; v++ {
				if got := off.at(int32(v)); got != sum {
					t.Fatalf("n=%d: at(%d) = %d, want %d", n, v, got, sum)
				}
				if v%offBlock == 0 && off.rel[v*2]|off.rel[v*2+1] != 0 {
					t.Fatalf("n=%d: block starting at %d does not restart", n, v)
				}
				if v < n {
					sum += int64(sizes[v])
				}
			}
			if entries != sum {
				t.Fatalf("n=%d: %d entries, want %d", n, entries, sum)
			}
		}
	}
}

// roundTrips saves ix in both offset layouts and checks that each loads as
// ix and writes ix's file again.
func roundTrips(t *testing.T, g *graph.Graph, ix *Index) {
	t.Helper()
	file := v2Bytes(t, ix)
	for layout, raw := range map[string][]byte{"sections 7 and 8": file, "section 3": legacyV2Bytes(t, ix)} {
		got, err := Read(bytes.NewReader(raw), g)
		if err != nil {
			t.Fatalf("%s: %v", layout, err)
		}
		if !indexesIdentical(ix, got) || !bytes.Equal(v2Bytes(t, got), file) {
			t.Fatalf("%s: loaded a different index", layout)
		}
	}
}

// TestBlockEdgeIndexes: built, saved and reloaded indexes whose offsets end
// at each block edge agree with the reference.
func TestBlockEdgeIndexes(t *testing.T) {
	for _, n := range []int{254, 255, 256, 511, 512} {
		g := gen.BarabasiAlbert(n, 2, int64(n))
		lm := g.DegreeOrder()[:5]
		ix, err := Build(g, lm)
		if err != nil {
			t.Fatal(err)
		}
		if !indexesIdentical(referenceIndex(g, lm), ix) {
			t.Fatalf("n=%d: build differs from the reference", n)
		}
		roundTrips(t, g, ix)
	}
}

// TestFullLabels: K(255,600) with the 255 side as landmarks gives every
// other vertex a label of 255 entries, so every full block of offsets sums
// to 65 025, the most a uint16 is asked to hold.
func TestFullLabels(t *testing.T) {
	const k, rest = MaxLandmarks, 600
	var edges [][2]int32
	lm := make([]int32, k)
	for r := range lm {
		lm[r] = int32(r)
		for v := k; v < k+rest; v++ {
			edges = append(edges, [2]int32{int32(r), int32(v)})
		}
	}
	g := graph.MustFromEdges(k+rest, edges)
	ix, err := Build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumEntries() != k*rest || ix.LabelSize(k) != k {
		t.Fatalf("test premise broken: %d entries, |L(%d)| = %d", ix.NumEntries(), k, ix.LabelSize(k))
	}
	if lo, hi := ix.labelOff.at(256), ix.labelOff.at(511); hi-lo != 255*255 {
		t.Fatalf("a full block spans %d entries, want %d", hi-lo, 255*255)
	}
	if !indexesIdentical(referenceIndex(g, lm), ix) {
		t.Fatal("build differs from the reference")
	}
	roundTrips(t, g, ix)
	if d := ix.Distance(k, k+rest-1); d != 2 {
		t.Fatalf("d between two non-landmarks = %d, want 2", d)
	}
}
