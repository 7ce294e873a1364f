package core

import (
	"bytes"
	"math/rand"
	"testing"

	"highway/internal/gen"
	"highway/internal/graph"
)

// TestOffsetsBlocks holds the label starts the rank directory gives to
// plain prefix sums around its block edges: n·k bits that end a word short
// of a block of 2¹⁶, on one and a word past one, for one block and two,
// with every label full — the largest counts a uint16 of the directory is
// asked to hold — and with random labels.
func TestOffsetsBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 64, 100, MaxLandmarks} {
		for _, end := range []int{1<<16 - 64, 1 << 16, 1<<16 + 64, 2<<16 - 64, 2 << 16, 2<<16 + 64} {
			n := end / k
			for _, full := range []bool{true, false} {
				sizes := make([]int, n)
				b, entries := packRanks(n, k, 1, leafSet{}, func(_ int, v, _ int32, m *landmarkSet) {
					for r := range k {
						if full || rng.Intn(2) == 0 {
							m[r>>6] |= 1 << (r & 63)
							sizes[v]++
						}
					}
				})
				var sum int64
				for v := range n {
					if got := b.start(int32(v)); got != sum {
						t.Fatalf("k=%d n=%d: start(%d) = %d, want %d", k, n, v, got, sum)
					}
					sum += int64(sizes[v])
				}
				if entries != sum {
					t.Fatalf("k=%d n=%d: %d entries, want %d", k, n, entries, sum)
				}
			}
		}
	}
}

// roundTrips saves ix and checks that the file loads as ix and writes ix's
// file again.
func roundTrips(t *testing.T, g *graph.Graph, ix *Index) {
	t.Helper()
	file := v2Bytes(t, ix)
	got, err := Read(bytes.NewReader(file), g)
	if err != nil {
		t.Fatal(err)
	}
	if !indexesIdentical(ix, got) || !bytes.Equal(v2Bytes(t, got), file) {
		t.Fatal("loaded a different index")
	}
}

// TestBlockEdgeIndexes: built, saved and reloaded indexes of n around the
// 256 vertices a block of the retired offsets held, and a directory word
// of 64 bits at k = 5 holds 12.8 of, agree with the reference.
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
// other vertex a label of 255 entries, whose directory counts up to
// 65 280 in a uint16.
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
	if lo, _ := ix.span(256); lo != 255 {
		t.Fatalf("vertex 256's label starts at %d, want 255", lo)
	}
	if !indexesIdentical(referenceIndex(g, lm), ix) {
		t.Fatal("build differs from the reference")
	}
	roundTrips(t, g, ix)
	if d := ix.Distance(k, k+rest-1); d != 2 {
		t.Fatalf("d between two non-landmarks = %d, want 2", d)
	}
}
