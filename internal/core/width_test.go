package core

import (
	"bytes"
	"encoding/binary"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"highway/internal/bfs"
	"highway/internal/container"
	"highway/internal/gen"
	"highway/internal/graph"
)

// distForm is how a labelling keeps its distances in section 16: bases of
// w bits and excesses of wo.
type distForm struct{ w, wo uint8 }

// formOf returns the distForm of ix.
func formOf(ix *Index) distForm { return distForm{ix.labelDist[0], ix.labelDist[1]} }

// widthCase is a graph and landmark set whose labelling keeps its
// distances in form, with records overflow records.
type widthCase struct {
	name    string
	g       *graph.Graph
	lm      []int32
	form    distForm
	records int
}

// widthCases are a labelling of each base width, and of excesses of 0, 1
// and 2 bits: BA-20k as the benchmark builds it, each of whose labels spans
// at most one hop (bases of 2 bits, excesses of 1); a spider whose landmark
// has ten legs of 15 hops and one of 20 (w = 4, the 5 labels 16 hops or
// more away escaping); the 300-vertex path with landmark 1 (w = 8, the 43
// labels 256 hops or more away escaping); BA-2000 of degree 3 (w = 2,
// excesses of 2: its 23 entries 4 or more hops from their landmark sit in
// labels whose smallest distance is less); and R-MAT-16, whose 20 hubs are
// pairwise adjacent,
// so that every label is flat (bases of 2 bits, no excess). Its 140
// entries in labels whose smallest distance is 4 or more are all leaves',
// which the labelling elides, so it has no record.
func widthCases() []widthCase {
	ba2k, ba := gen.BarabasiAlbert(2000, 3, 42), gen.BarabasiAlbert(20_000, 5, 42)
	rmat, _ := graph.LargestComponent(gen.RMAT(16, 8, 0.57, 0.19, 0.19, 3))
	return []widthCase{
		{"ba20k", ba, ba.DegreeOrder()[:16], distForm{2, 1}, 0},
		{"spider", spider([]int{15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 20}), []int32{0}, distForm{4, 0}, 5},
		{"path300", gen.Path(300), []int32{1}, distForm{8, 0}, 43},
		{"ba2000", ba2k, ba2k.DegreeOrder()[:16], distForm{2, 2}, 0},
		{"rmat16", rmat, rmat.DegreeOrder()[:20], distForm{2, 0}, 0},
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

// TestDistanceWidths: in each form and at each width the section and the
// overflow records are the brute-force argmin over the distances Label
// reports (bruteDist), Write → Read → Write gives the same bytes, and the
// answers are BFS's: every pair's on the small graphs, and on the others
// every pair from 8 sources, beside labels byte-identical to Algorithm 1's.
func TestDistanceWidths(t *testing.T) {
	for _, c := range widthCases() {
		t.Run(c.name, func(t *testing.T) {
			ix, err := Build(c.g, c.lm)
			if err != nil {
				t.Fatal(err)
			}
			n, slots := int32(c.g.NumVertices()), referenceSlots(ix)
			labels := make([][]int32, len(slots))
			for s, v := range slots {
				_, labels[s] = ix.Label(int32(v))
			}
			if got := formOf(ix); got != c.form || int(ix.numOverflow()) != c.records {
				t.Fatalf("form %+v with %d records, want %+v with %d", got, ix.numOverflow(), c.form, c.records)
			}
			if sect, over := bruteDist(labels); !bytes.Equal(sect, ix.labelDist) || !maps.Equal(over, ix.overflow) {
				t.Fatalf("brute force over Label gives widths %v and %d records", sect[:2], len(over))
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

// TestReadChecksDistanceCodes: a reader keeps section 16 as it is, so each
// way it can disagree with the header and section 6 is refused by name: a
// base width outside {2, 4, 8}, a length other than 2 + ⌈s·w/8⌉ +
// ⌈entries·wo/8⌉ (one past 2 + s + ⌈entries/2⌉ fails before the section is
// read), a padding bit set, an escaped label without its records, and a
// record of an entry whose label's codes hold its distance. The golden
// index's section 16 is its widths (2, 1), 4 bytes of bases — 14 slots,
// vertex 1's at bits 2 and 3 — and 2 of excesses: 13 entries, entry 1,
// vertex 1's second, at distance 2, one more than its first, and 3 bits of
// padding.
func TestReadChecksDistanceCodes(t *testing.T) {
	ix := goldenIndex(t)
	good := v2Bytes(t, ix)
	if h, _ := ix.Sections(); !slices.Equal(ix.labelDist, []byte{2, 1, 0, 0, 0, 0, 0b100010, 0}) || h.Aux1 != 13 || h.Aux2 != 0 {
		t.Fatalf("test premise broken: section 16 %v, header %+v", ix.labelDist, h)
	}
	record := func(rank uint8, d uint32) []byte { // of vertex 1
		return binary.LittleEndian.AppendUint32(append(binary.LittleEndian.AppendUint32(nil, 1), rank), d)
	}
	type sections = map[uint32][]byte
	escapeFirst := func(sec sections) { // vertex 1's label: base all ones, excesses 0
		sec[sectLabelExcess][2] |= 3 << 2
		sec[sectLabelExcess][6] &^= 1 << 1
	}
	for _, c := range []struct {
		name, want string
		edit       func(h *container.Header, sec sections)
	}{
		{"width 3", "section 16 has widths [3 1]", func(_ *container.Header, sec sections) { sec[sectLabelExcess][0] = 3 }},
		{"width 16", "section 16 has widths [16 1]", func(_ *container.Header, sec sections) { sec[sectLabelExcess][0] = 16 }},
		{"width 4, length of 2", "want 11 for 14 bases of 4 bits and 13 excesses of 1", func(_ *container.Header, sec sections) { sec[sectLabelExcess][0] = 4 }},
		{"one byte long", "section 16 has length 9, want 8", func(_ *container.Header, sec sections) {
			sec[sectLabelExcess] = append(sec[sectLabelExcess], 0)
		}},
		{"one byte short", "section 16 has length 7, want 8", func(_ *container.Header, sec sections) {
			sec[sectLabelExcess] = sec[sectLabelExcess][:7]
		}},
		{"longer than 1 + entries", "exceeds 23", func(_ *container.Header, sec sections) {
			sec[sectLabelExcess] = append(sec[sectLabelExcess], make([]byte, 16)...)
		}},
		{"empty", "section 16 has widths []", func(_ *container.Header, sec sections) { sec[sectLabelExcess] = nil }},
		{"missing", "required section 16 missing", func(_ *container.Header, sec sections) { delete(sec, sectLabelExcess) }},
		{"padding bit set", "section 16 has padding bits set", func(_ *container.Header, sec sections) { sec[sectLabelExcess][7] |= 0x80 }},
		{"escape without record", "missing overflow record for vertex 1 rank 1", func(_ *container.Header, sec sections) { escapeFirst(sec) }},
		{"record of a distance the code holds", "overflow record (v=1 rank=1) for an entry that is not escaped", func(h *container.Header, sec sections) {
			sec[sectOverflow], h.Aux2 = record(1, 1), 1
		}},
		{"escape with its record", "", func(h *container.Header, sec sections) {
			escapeFirst(sec)
			sec[sectOverflow], h.Aux2 = append(record(1, 4), record(2, 5)...), 2
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := Read(bytes.NewReader(reframe(t, good, c.edit)), gen.PaperFigure2())
			if c.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				if _, d := got.Label(1); !slices.Equal(d, []int32{4, 5}) {
					t.Fatalf("the escaped label reads %v, its records say [4 5]", d)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "\n") {
				t.Fatalf("Read: %v, want one line saying %q", err, c.want)
			}
		})
	}
}

// excessCases are malformed distance sections of hubs_excess.hl2, the file
// of goldenExcessIndex, each with a valid checksum, and what the reader says
// of them. Section 16 is its widths (2, 1), 13 bytes of bases — vertex v's
// at bit 2v; the landmarks 0, 1 and 2 have empty labels, vertex 47's base
// is 2 and vertex 48's, escaped, 3; 6 padding bits — and 17 of excesses:
// entries 124 and 125, vertex 44's second and third, are 1, entry 129 is
// vertex 48's, whose distance 4 is the one record; 6 padding bits.
func excessCases() []offsetCase {
	type sections = map[uint32][]byte
	withRecord := func(v, d uint32) []byte { // of rank 0
		return binary.LittleEndian.AppendUint32(append(binary.LittleEndian.AppendUint32(nil, v), 0), d)
	}
	return []offsetCase{
		{"base width 3", "section 16 has widths [3 1]", func(_ *container.Header, sec sections) { sec[sectLabelExcess][0] = 3 }},
		{"excess width 3", "section 16 has widths [2 3]", func(_ *container.Header, sec sections) { sec[sectLabelExcess][1] = 3 }},
		{"excess width 8", "section 16 has widths [2 8]", func(_ *container.Header, sec sections) { sec[sectLabelExcess][1] = 8 }},
		{"one byte long", "section 16 has length 33, want 32", func(_ *container.Header, sec sections) {
			sec[sectLabelExcess] = append(sec[sectLabelExcess], 0)
		}},
		{"one byte short", "section 16 has length 31, want 32", func(_ *container.Header, sec sections) {
			sec[sectLabelExcess] = sec[sectLabelExcess][:31]
		}},
		{"longer than a byte a base and half one an excess", "exceeds 116", func(_ *container.Header, sec sections) {
			sec[sectLabelExcess] = append(sec[sectLabelExcess], make([]byte, 100)...)
		}},
		{"base padding bit set", "section 16 has padding bits set", func(_ *container.Header, sec sections) { sec[sectLabelExcess][14] |= 0x80 }},
		{"excess padding bit set", "section 16 has padding bits set", func(_ *container.Header, sec sections) { sec[sectLabelExcess][31] |= 0x80 }},
		{"code on an empty label", "a base code other than 0 for the empty label of vertex 0", func(_ *container.Header, sec sections) {
			sec[sectLabelExcess][2] |= 1
		}},
		{"excess in an escaped label", "excess code that is not 0 in the escaped label of vertex 48", func(_ *container.Header, sec sections) {
			sec[sectLabelExcess][31] |= 2
		}},
		{"escaped label without its record", "missing overflow record for vertex 48 rank 0", func(h *container.Header, sec sections) {
			sec[sectOverflow], h.Aux2 = nil, 0
		}},
		{"stray record", "overflow record (v=47 rank=0) for an entry that is not escaped", func(h *container.Header, sec sections) {
			sec[sectOverflow], h.Aux2 = append(withRecord(47, 3), sec[sectOverflow]...), 2
		}},
		{"section 12 beside it", migrateLine, func(_ *container.Header, sec sections) {
			sec[sectLabelDist] = []byte{2}
		}},
		{"neither section", "required section 16 missing", func(_ *container.Header, sec sections) {
			delete(sec, sectLabelExcess)
		}},
	}
}

// TestReadChecksExcessCodes: a reader keeps section 16 as it is, so each
// way it can disagree with the header, the ranks and section 6 is refused
// by name; the unedited file loads.
func TestReadChecksExcessCodes(t *testing.T) {
	ix := goldenExcessIndex(t)
	good := testdata(t, "hubs_excess.hl2")
	if h, _ := ix.Sections(); !bytes.Equal(good, v2Bytes(t, ix)) || h.Aux1 != 130 || h.Aux2 != 1 || len(ix.labelDist) != 32 {
		t.Fatalf("test premise broken: header %+v, section 16 of %d bytes", h, len(ix.labelDist))
	}
	if _, d := ix.Label(48); d[0] != 4 {
		t.Fatal("test premise broken: vertex 48 is not 4 hops from landmark 0")
	}
	for _, c := range excessCases() {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(reframe(t, good, c.edit)), ix.Graph())
			if err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "\n") {
				t.Fatalf("Read: %v, want one line saying %q", err, c.want)
			}
		})
	}
}

// TestExcessBoundedByHighway: Lemma 3.7 puts (r, d) in L(v) only when no
// other landmark lies on a shortest r–v path, so two entries of one label
// differ by less than their landmarks' highway distance: di ≤ δH(ri,rj) +
// dj by the triangle inequality, and equality would put rj on a shortest
// ri–v path. |di − dj| ≤ δH(ri,rj) − 1 is what bounds a label's excess,
// to none at all among pairwise adjacent landmarks. Checked on seeded BA,
// R-MAT, ER, Watts–Strogatz, grid and path graphs with the highest-degree
// and random landmarks.
func TestExcessBoundedByHighway(t *testing.T) {
	rmat, _ := graph.LargestComponent(gen.RMAT(12, 8, 0.57, 0.19, 0.19, 5))
	for name, g := range map[string]*graph.Graph{
		"ba":   gen.BarabasiAlbert(3000, 3, 5),
		"rmat": rmat,
		"er":   gen.ErdosRenyi(2000, 5000, 5),
		"ws":   gen.WattsStrogatz(2000, 4, 0.05, 5),
		"grid": gen.Grid(40, 40),
		"path": gen.Path(700),
	} {
		spans := 0
		for _, random := range []bool{false, true} {
			lm := g.DegreeOrder()[:24]
			if random {
				lm = nil
				for _, v := range rand.New(rand.NewSource(5)).Perm(g.NumVertices())[:24] {
					lm = append(lm, int32(v))
				}
			}
			ix, err := Build(g, lm)
			if err != nil {
				t.Fatal(err)
			}
			k := len(lm)
			for v := range int32(g.NumVertices()) {
				ranks, dists := ix.Label(v)
				for i := range ranks {
					for j := range i {
						if h := ix.highway[int(ranks[i])*k+int(ranks[j])]; max(dists[i]-dists[j], dists[j]-dists[i]) > h-1 {
							t.Fatalf("%s (random landmarks %v): vertex %d holds (%d, %d) and (%d, %d), δH = %d", name, random, v, ranks[i], dists[i], ranks[j], dists[j], h)
						}
					}
				}
				if len(dists) > 0 && slices.Max(dists) > slices.Min(dists) {
					spans++
				}
			}
		}
		if spans == 0 {
			t.Fatalf("%s: no label spans a hop; the bound is not tested", name)
		}
	}
}

// formCase is a graph and landmark set, with the bytes its labels' ranks
// would take a byte an entry beside offsets (sections 4, 7 and 8) and take
// as k bits a vertex beside their directory (sections 14 and 15).
type formCase struct {
	name                 string
	g                    *graph.Graph
	lm                   []int32
	rankBytes, maskBytes int
}

// formCases are labellings on both sides of the rank bytes' old break-even:
// BA-20k as the benchmark builds it (106 066 entries); a 100×100 grid
// (9 980 entries), where rank bytes would save 980 bytes; the paper's
// example (13 entries); a 4×5 grid with its 16 highest-degree vertices as
// landmarks (8 entries), a tie; and at k > 64, where a set is more than one
// word and a stride more than one word, BA-2000 with k = 100 (36 454
// entries), an ER graph of 1 000 vertices with k = 255 (74 540 entries)
// and BA-2000 with k = 255 (48 467 entries), where rank bytes would save
// 15 269 bytes.
func formCases() []formCase {
	ba20k, grid, fig2, tie := gen.BarabasiAlbert(20_000, 5, 42), gen.Grid(100, 100), gen.PaperFigure2(), gen.Grid(4, 5)
	ba2k, er := gen.BarabasiAlbert(2000, 10, 42), gen.ErdosRenyi(1000, 20_000, 1)
	return []formCase{
		{"ba20k", ba20k, ba20k.DegreeOrder()[:16], 146_700, 50_040},
		{"grid", grid, grid.DegreeOrder()[:20], 30_302, 31_282},
		{"figure2", fig2, gen.PaperLandmarks(), 51, 18},
		{"grid4x5 tie", tie, tie.DegreeOrder()[:16], 58, 58},
		{"ba2000 k100", ba2k, ba2k.DegreeOrder()[:100], 40_520, 28_158},
		{"er1000 k255", er, er.DegreeOrder()[:255], 76_574, 33_906},
		{"ba2000 k255", ba2k, ba2k.DegreeOrder()[:255], 52_533, 67_802},
	}
}

// TestRankForms: each labelling keeps its ranks as k bits a vertex beside
// their directory (sections 14 and 15), the sections plainRanks builds
// from their definitions, whatever the bytes of rank bytes beside offsets
// (sections 4, 7 and 8), also built by plainRanks, which are pinned here as
// EXPERIMENTS.md reports them; the file is Algorithm 1's, Write → Read →
// Write gives the same bytes, and the answers are BFS's: every pair's on
// graphs under 1 000 vertices; on the others, from 8 sources, every
// target's through a one-source DistanceBatch (whose label walks are
// batch.go's) and
// every 64th one's through Distance.
func TestRankForms(t *testing.T) {
	for _, c := range formCases() {
		t.Run(c.name, func(t *testing.T) {
			ix, err := Build(c.g, c.lm)
			if err != nil {
				t.Fatal(err)
			}
			n := c.g.NumVertices()
			if rankBytes, maskBytes := rankFormBytes(plainRanksOf(ix)); rankBytes != c.rankBytes || maskBytes != c.maskBytes {
				t.Fatalf("%d bytes of rank bytes and %d of bits, want %d and %d", rankBytes, maskBytes, c.rankBytes, c.maskBytes)
			}
			checkPlainRanks(t, ix)
			file := v2Bytes(t, ix)
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
			sr, all := ix2.Searcher(), make([][2]int32, n)
			for s := int32(0); s < int32(n); s += int32(n / 8) {
				for u := range all {
					all[u] = [2]int32{s, int32(u)}
				}
				want, many := bfs.Distances(c.g, s), sr.DistanceBatch(all, nil)
				for u := range int32(n) {
					if many[u] != want[u] || u%64 == 0 && sr.Distance(s, u) != want[u] {
						t.Fatalf("d(%d,%d) = %d (DistanceBatch), %d (Distance), want %d", s, u, many[u], sr.Distance(s, u), want[u])
					}
				}
			}
		})
	}
}
