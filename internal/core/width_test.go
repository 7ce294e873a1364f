package core

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"highway/internal/bfs"
	"highway/internal/container"
	"highway/internal/gen"
	"highway/internal/graph"
)

// widthCase is a graph and landmark set whose labelling codes its
// distances in w bits, with some entries escaping at that width.
type widthCase struct {
	name string
	g    *graph.Graph
	lm   []int32
	w    uint8
}

// widthCases are one labelling of each width: BA-20k as the benchmark
// builds it (w = 2, 3 entries 4 or more hops from their landmark), a
// spider whose landmark has ten legs of 15 hops and one of 20 (w = 4, 5
// entries 16 hops or more away), and the 300-vertex path with landmark 1
// (w = 8, 43 entries 256 hops or more away).
func widthCases() []widthCase {
	ba := gen.BarabasiAlbert(20_000, 5, 42)
	return []widthCase{
		{"ba20k", ba, ba.DegreeOrder()[:16], 2},
		{"spider", spider([]int{15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 20}), []int32{0}, 4},
		{"path300", gen.Path(300), []int32{1}, 8},
	}
}

// spider is vertex 0 with a path of each length hanging off it.
func spider(legs []int) *graph.Graph {
	var edges [][2]int32
	n := int32(1)
	for _, l := range legs {
		prev := int32(0)
		for range l {
			edges = append(edges, [2]int32{prev, n})
			prev, n = n, n+1
		}
	}
	return graph.MustFromEdges(int(n), edges)
}

// TestDistanceWidths: at each width the code width is the brute-force
// argmin over the distances Label reports, every escaped distance is at
// least 2^w, Write → Read → Write gives the same bytes, and the answers are
// BFS's: every pair's on the small graphs, and on BA-20k every pair from
// 8 sources, beside labels byte-identical to Algorithm 1's.
func TestDistanceWidths(t *testing.T) {
	for _, c := range widthCases() {
		t.Run(c.name, func(t *testing.T) {
			ix, err := Build(c.g, c.lm)
			if err != nil {
				t.Fatal(err)
			}
			n := int32(c.g.NumVertices())
			var dists []int32
			for v := range n {
				_, d := ix.Label(v)
				dists = append(dists, d...)
			}
			if w := ix.labelDist[0]; w != c.w || w != bruteWidth(dists) {
				t.Fatalf("width %d, want %d; brute force over Label gives %d", w, c.w, bruteWidth(dists))
			}
			if ix.numOverflow() == 0 {
				t.Fatal("test premise broken: no escaped entries")
			}
			for p, d := range ix.overflow {
				if d < 1<<c.w {
					t.Fatalf("the escaped entry at %d has distance %d, which a %d-bit code holds", p, d, c.w)
				}
			}
			file := v2Bytes(t, ix)
			ix2, err := Read(bytes.NewReader(file), c.g)
			if err != nil {
				t.Fatal(err)
			}
			if !indexesIdentical(ix, ix2) || !bytes.Equal(v2Bytes(t, ix2), file) {
				t.Fatal("Write → Read → Write changed the index")
			}
			if n < 1000 {
				checkAllPairs(t, c.g, ix2)
				return
			}
			if !bytes.Equal(file, v2Bytes(t, referenceIndex(c.g, c.lm))) {
				t.Fatal("labels differ from Algorithm 1's")
			}
			sr := ix2.Searcher()
			for s := int32(0); s < n; s += n / 8 {
				want := bfs.Distances(c.g, s)
				for u := range n {
					if got := sr.Distance(s, u); got != want[u] {
						t.Fatalf("d(%d,%d) = %d, want %d", s, u, got, want[u])
					}
				}
			}
		})
	}
}

// TestReadChecksDistanceCodes: a reader keeps section 12 as it is, so each
// way it can disagree with the header and section 6 is refused by name: a
// width outside {2, 4, 8}, a length other than 1 + ⌈entries·w/8⌉ (one past
// 1 + entries fails before the section is read), a padding bit set, an
// escaped entry without its record, and a record of a distance the code
// holds. The golden index has 13 entries of 2 bits and 6 bits of padding.
func TestReadChecksDistanceCodes(t *testing.T) {
	ix := goldenIndex(t)
	good := v2Bytes(t, ix)
	if h, _ := ix.Sections(); ix.labelDist[0] != 2 || h.Aux1 != 13 || h.Aux2 != 0 {
		t.Fatalf("test premise broken: width %d, header %+v", ix.labelDist[0], h)
	}
	v := int32(0)
	for ix.LabelSize(v) == 0 {
		v++
	}
	record := binary.LittleEndian.AppendUint32(nil, uint32(v))
	_, rank := ix.entryAt(0)
	record = append(record, rank)
	type sections = map[uint32][]byte
	escapeFirst := func(sec sections) { sec[sectLabelDist][1] |= 3 } // entry 0, vertex v's first
	for _, c := range []struct {
		name, want string
		edit       func(h *container.Header, sec sections)
	}{
		{"width 3", "distance width 3", func(_ *container.Header, sec sections) { sec[sectLabelDist][0] = 3 }},
		{"width 16", "distance width 16", func(_ *container.Header, sec sections) { sec[sectLabelDist][0] = 16 }},
		{"width 4, length of 2", "want 8 for 13 entries of 4 bits", func(_ *container.Header, sec sections) { sec[sectLabelDist][0] = 4 }},
		{"one byte long", "want 5 for 13 entries of 2 bits", func(_ *container.Header, sec sections) {
			sec[sectLabelDist] = append(sec[sectLabelDist], 0)
		}},
		{"one byte short", "want 5 for 13 entries of 2 bits", func(_ *container.Header, sec sections) {
			sec[sectLabelDist] = sec[sectLabelDist][:4]
		}},
		{"longer than 1 + entries", "exceeds 14", func(_ *container.Header, sec sections) {
			sec[sectLabelDist] = append(sec[sectLabelDist], make([]byte, 10)...)
		}},
		{"empty", "section 12 is empty", func(_ *container.Header, sec sections) { sec[sectLabelDist] = nil }},
		{"missing", "required section 12 missing", func(_ *container.Header, sec sections) { delete(sec, sectLabelDist) }},
		{"padding bit set", "padding bits set", func(_ *container.Header, sec sections) { sec[sectLabelDist][4] |= 0x80 }},
		{"escape without record", "missing overflow record", func(_ *container.Header, sec sections) { escapeFirst(sec) }},
		{"record of a distance the code holds", "which a 2-bit code holds", func(h *container.Header, sec sections) {
			escapeFirst(sec)
			sec[sectOverflow] = binary.LittleEndian.AppendUint32(record, 3)
			h.Aux2 = 1
		}},
		{"escape with its record", "", func(h *container.Header, sec sections) {
			escapeFirst(sec)
			sec[sectOverflow] = binary.LittleEndian.AppendUint32(record, 4)
			h.Aux2 = 1
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := Read(bytes.NewReader(reframe(t, good, c.edit)), gen.PaperFigure2())
			if c.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				if _, d := got.Label(v); d[0] != 4 {
					t.Fatalf("the escaped entry reads %d, its record says 4", d[0])
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Read: %v, want an error saying %q", err, c.want)
			}
		})
	}
}

// formCase is a graph and landmark set whose labelling keeps its ranks as
// a mask (mask) or as rank bytes.
type formCase struct {
	name string
	g    *graph.Graph
	lm   []int32
	mask bool
}

// formCases are labellings of both forms, with the bytes of their rank
// sections as rank bytes and offsets against bits and directory: BA-20k as
// the benchmark builds it (106 066 entries: 146 700 against 50 040); a
// 100×100 grid (9 980 entries: 30 302 against 31 282); the paper's
// example (13 entries: 51 against 18); a 4×5 grid with its 16
// highest-degree vertices as landmarks (8 entries: 58 either way, a tie
// that keeps rank bytes); and at k > 64, where a set is more than one
// word and a stride more than one word, BA-2000 with k = 100 (36 454
// entries: 40 520 against 28 158), an ER graph of 1 000 vertices with
// k = 255 (74 540 entries: 76 574 against 33 906) and BA-2000 with k = 255
// (48 467 entries: 52 533 against 67 802).
func formCases() []formCase {
	ba20k, grid, fig2, tie := gen.BarabasiAlbert(20_000, 5, 42), gen.Grid(100, 100), gen.PaperFigure2(), gen.Grid(4, 5)
	ba2k, er := gen.BarabasiAlbert(2000, 10, 42), gen.ErdosRenyi(1000, 20_000, 1)
	return []formCase{
		{"ba20k", ba20k, ba20k.DegreeOrder()[:16], true},
		{"grid", grid, grid.DegreeOrder()[:20], false},
		{"figure2", fig2, gen.PaperLandmarks(), true},
		{"grid4x5 tie", tie, tie.DegreeOrder()[:16], false},
		{"ba2000 k100", ba2k, ba2k.DegreeOrder()[:100], true},
		{"er1000 k255", er, er.DegreeOrder()[:255], true},
		{"ba2000 k255", ba2k, ba2k.DegreeOrder()[:255], false},
	}
}

// TestRankForms: each labelling keeps its ranks in the form the brute
// force over Label picks — of rank bytes beside offsets (sections 4, 7
// and 8) and k bits a vertex beside their directory (sections 14 and 15),
// both built by plainRanks from their definitions, the one of fewer bytes,
// rank bytes on a tie — with those sections' bytes; its file is no longer
// than the one the writer before sections 14 and 15 wrote, whose ranks
// took a byte an entry or ⌈k/8⌉ bytes a vertex beside the offsets, in
// three sections; the file is Algorithm 1's, Write → Read → Write gives the
// same bytes, and the answers are BFS's: every pair's on graphs under
// 1 000 vertices; on the others, from 8 sources, every target's through
// DistanceMany (whose label walks are batch.go's) and every 64th one's
// through Distance.
func TestRankForms(t *testing.T) {
	for _, c := range formCases() {
		t.Run(c.name, func(t *testing.T) {
			ix, err := Build(c.g, c.lm)
			if err != nil {
				t.Fatal(err)
			}
			n, k, entries := c.g.NumVertices(), len(c.lm), int(ix.NumEntries())
			rankBytes, maskBytes := rankFormBytes(plainRanksOf(ix))
			brute := maskBytes < rankBytes
			if mask := ix.labelMask.bits != nil; mask != c.mask || mask != brute || mask == (ix.labelRank != nil) {
				t.Fatalf("mask form %v (rank bytes %v), want %v; brute force over Label gives %v (%d bytes of rank bytes, %d of bits)", mask, ix.labelRank != nil, c.mask, brute, rankBytes, maskBytes)
			}
			checkPlainRanks(t, ix)
			file, ours := v2Bytes(t, ix), rankBytes+3*16
			if brute {
				ours = maskBytes + 2*16
			}
			if parent := len(file) - ours + rankBytes - entries + min(entries, n*((k+7)/8)) + 3*16; len(file) > parent {
				t.Fatalf("the file is %d bytes, the writer before sections 14 and 15 wrote %d", len(file), parent)
			}
			if !bytes.Equal(file, v2Bytes(t, referenceIndex(c.g, c.lm))) {
				t.Fatal("labels differ from Algorithm 1's")
			}
			ix2, err := Read(bytes.NewReader(file), c.g)
			if err != nil {
				t.Fatal(err)
			}
			if !indexesIdentical(ix, ix2) || !bytes.Equal(v2Bytes(t, ix2), file) {
				t.Fatal("Write → Read → Write changed the index")
			}
			if n < 1000 {
				checkAllPairs(t, c.g, ix2)
				return
			}
			sr, all := ix2.Searcher(), make([]int32, n)
			for u := range all {
				all[u] = int32(u)
			}
			for s := int32(0); s < int32(n); s += int32(n / 8) {
				want, many := bfs.Distances(c.g, s), sr.DistanceMany(s, all, nil)
				for u := range int32(n) {
					if many[u] != want[u] || u%64 == 0 && sr.Distance(s, u) != want[u] {
						t.Fatalf("d(%d,%d) = %d (DistanceMany), %d (Distance), want %d", s, u, many[u], sr.Distance(s, u), want[u])
					}
				}
			}
		})
	}
}
