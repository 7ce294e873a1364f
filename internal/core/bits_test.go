package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"highway/internal/gen"
)

// plainRanks returns both rank forms of the labels of n vertices whose
// ranks ranksOf gives, k landmarks, from their definitions, bit by bit and
// with no code of the index's: sections 7, 8 and 4 (rank bytes beside
// offsets) and sections 14 and 15 (k bits a vertex beside the set bits
// before each 2¹⁶-bit block and from its block to each stride of
// 64·⌈k/64⌉ bits).
func plainRanks(n, k int, ranksOf func(v int) []int32) map[uint32][]byte {
	le := binary.LittleEndian
	sec := map[uint32][]byte{}
	set := make([]bool, n*k)
	var blockStart int
	for v := 0; v <= n; v++ {
		if v%256 == 0 {
			blockStart = len(sec[sectLabelRank])
			sec[sectLabelBase] = le.AppendUint64(sec[sectLabelBase], uint64(blockStart))
		}
		sec[sectLabelRel] = le.AppendUint16(sec[sectLabelRel], uint16(len(sec[sectLabelRank])-blockStart))
		if v == n {
			break
		}
		for _, r := range ranksOf(v) {
			sec[sectLabelRank] = append(sec[sectLabelRank], byte(r))
			set[v*k+int(r)] = true
		}
	}
	if sec[sectLabelRank] == nil {
		sec[sectLabelRank] = []byte{}
	}
	words := (n*k + 63) / 64
	bitString, before := make([]byte, words*8), make([]int, words*64+1) // before[i]: the set bits before bit i
	for i := range words * 64 {
		before[i+1] = before[i]
		if i < n*k && set[i] {
			bitString[i/8] |= 1 << (i % 8)
			before[i+1]++
		}
	}
	var base, rel []byte
	for b := 0; b<<16 < n*k; b++ {
		base = le.AppendUint64(base, uint64(before[b<<16]))
	}
	for s := 0; s < n*k; s += 64 * ((k + 63) / 64) {
		rel = le.AppendUint16(rel, uint16(before[s]-before[s>>16<<16]))
	}
	sec[sectLabelBits], sec[sectLabelDir] = bitString, append(base, rel...)
	return sec
}

// plainRanksOf is plainRanks of ix's labels as Label reports them, those
// referenceKept keeps.
func plainRanksOf(ix *Index) map[uint32][]byte {
	slots := referenceSlots(ix)
	return plainRanks(len(slots), len(ix.landmarks), func(s int) []int32 {
		r, _ := ix.Label(int32(slots[s]))
		return r
	})
}

// referenceSlots returns the vertices whose labels as Label reports them
// referenceKept keeps, in order: the slots' vertices.
func referenceSlots(ix *Index) (slots []int) {
	kept := referenceKept(ix.g, ix.landmarks, func(v int) []int32 {
		r, _ := ix.Label(int32(v))
		return r
	})
	for v, ok := range kept {
		if ok {
			slots = append(slots, v)
		}
	}
	return slots
}

// rankFormBytes returns the bytes of the rank sections of each form in
// sec: rank bytes and their offsets, and the bits and their directory.
func rankFormBytes(sec map[uint32][]byte) (rankBytes, maskBytes int) {
	return len(sec[sectLabelRank]) + len(sec[sectLabelBase]) + len(sec[sectLabelRel]), len(sec[sectLabelBits]) + len(sec[sectLabelDir])
}

// bitsKs are the landmark counts the packed ranks are tested at: one bit a
// vertex, fields that straddle words, one word exactly, strides of two,
// three and four words, and MaxLandmarks.
var bitsKs = []int{1, 3, 16, 20, 63, 64, 65, 100, 128, 255}

// bitsN is a vertex count whose n·k bits run into a third 2¹⁶-bit block.
func bitsN(k int) int { return 2<<16/k + 2 }

// TestPackedRankOffsets holds start and ranksOf over packed ranks to the plain
// prefix sums: for each k of bitsKs, random labels, dense and sparse, of
// bitsN(k) vertices, and packRanks with 1, 2 and 5 workers, give the
// bits and directory plainRanks gives and the count of all their ranks,
// and every vertex's start, size and ranks are the prefix sum of the
// labels before it and its own.
func TestPackedRankOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range bitsKs {
		n := bitsN(k)
		if n*k <= 2<<16 {
			t.Fatalf("test premise broken: n=%d, k=%d", n, k)
		}
		for _, density := range []int{2, 16} { // one rank in 2, one in 16
			labels := make([][]int32, n)
			for v := range labels {
				for r := range int32(k) {
					if rng.Intn(density) == 0 {
						labels[v] = append(labels[v], r)
					}
				}
			}
			want := plainRanks(n, k, func(v int) []int32 { return labels[v] })
			for _, workers := range []int{1, 2, 5} {
				b, entries := packRanks(n, k, workers, leafSet{}, func(_ int, v, _ int32, m *landmarkSet) {
					for _, r := range labels[v] {
						m[r>>6] |= 1 << (r & 63)
					}
				})
				if !bytes.Equal(b.bits, want[sectLabelBits]) || !bytes.Equal(b.dir, want[sectLabelDir]) || entries != int64(len(want[sectLabelRank])) {
					t.Fatalf("k=%d n=%d workers=%d: packRanks differs from the plain bits and directory, or counts %d ranks", k, n, workers, entries)
				}
				if got, err := b.directory(false); err != nil || got != entries {
					t.Fatalf("k=%d: directory(false) = %d, %v; want %d", k, got, err, entries)
				}
				var sum int64
				for v := range n {
					var m, ranks landmarkSet
					for _, r := range labels[v] {
						ranks[r>>6] |= 1 << (r & 63)
					}
					b.ranksOf(int32(v), &m)
					if lo := b.start(int32(v)); lo != sum || m != ranks || b.size(int32(v)) != int64(len(labels[v])) {
						t.Fatalf("k=%d n=%d: vertex %d starts at %d with %d ranks %x, want %d and %x", k, n, v, lo, b.size(int32(v)), m, sum, ranks)
					}
					sum += int64(len(labels[v]))
				}
			}
		}
	}
}

// TestPackedIndexes: at each k of bitsKs, an index of bitsN(k) vertices —
// a Barabási–Albert graph, its k highest-degree vertices as landmarks —
// gives every vertex the start and ranks of the plain prefix sums over
// Label and the rank sections plainRanks gives;
// Write → Read → Write gives the same bytes, and builds with 1, 2 and 5
// workers give the same file.
func TestPackedIndexes(t *testing.T) {
	for _, k := range bitsKs {
		if testing.Short() && k < 16 {
			continue // n > 40 000
		}
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			g := gen.BarabasiAlbert(bitsN(k), 3, int64(k))
			lm := g.DegreeOrder()[:k]
			var file []byte
			for _, workers := range []int{1, 2, 5} {
				ix, err := BuildOpts(context.Background(), g, lm, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got := v2Bytes(t, ix); file == nil {
					file = got
					checkPlainRanks(t, ix)
					roundTrips(t, g, ix)
				} else if !bytes.Equal(got, file) {
					t.Fatalf("workers=%d: the file differs from one worker's", workers)
				}
			}
		})
	}
}

// checkPlainRanks holds ix's rank section, the directory it keeps beside
// it and every label's start and ranks to plainRanks over Label.
func checkPlainRanks(t *testing.T, ix *Index) {
	t.Helper()
	want := plainRanksOf(ix)
	_, sections := ix.Sections()
	got := map[uint32][]byte{}
	for _, s := range sections {
		got[s.ID] = s.Payload
	}
	ids := rankIDs(ix.leaves.words != nil)
	if !bytes.Equal(got[ids[0]], want[sectLabelBits]) {
		t.Fatalf("section %d differs from the plain one", ids[0])
	}
	if _, ok := got[ids[1]]; ok || !bytes.Equal(ix.labelMask.dir, want[sectLabelDir]) {
		t.Fatalf("section %d written (%v), or the directory differs from the plain one", ids[1], ok)
	}
	var sum int64
	for v := range int32(ix.g.NumVertices()) {
		ranks, _ := ix.Label(v)
		var m landmarkSet
		if lo := ix.labelOf(v, &m); lo != sum || m.size() != int64(len(ranks)) || !slices.Equal(ranksIn(&m), ranks) {
			t.Fatalf("vertex %d starts at %d with ranks %v, want %d and %v", v, lo, ranksIn(&m), sum, ranks)
		}
		sum += int64(len(ranks))
	}
}

// ranksIn lists the ranks of m, ascending.
func ranksIn(m *landmarkSet) (ranks []int32) {
	for w, x := range m {
		for ; x != 0; x &= x - 1 {
			ranks = append(ranks, int32(w<<6|bits.TrailingZeros64(x)))
		}
	}
	return ranks
}
