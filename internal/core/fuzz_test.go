package core

import (
	"bytes"
	"math/bits"
	"os"
	"path/filepath"
	"testing"

	"highway/internal/container"
	"highway/internal/gen"
	"highway/internal/graph"
)

// FuzzLoadIndex: arbitrary bytes must never panic or OOM the loader.
// Successful loads must yield an index whose basic operations are safe to
// call.
func FuzzLoadIndex(f *testing.F) {
	// Seeds: an index of each distance code width — the golden index
	// (w = 2), the spider's (w = 4, 5 overflow records) and the path-600
	// index (w = 8, 686 records), whose ranks take the bits, as do those of
	// the paper's example with its three highest-degree vertices as
	// landmarks — and the grid whose ranks keep rank bytes —, every
	// malformed offsets section TestReadChecksOffsets names and every
	// malformed rank bits or directory TestReadChecksRankMask names; then a
	// file of each retired layout: the committed v1 files and the one with
	// its offsets in section 3, both indexes without section 11, the
	// committed index file and checkpoint with one distance byte an entry,
	// the committed graph file and checkpoint from before the graph became
	// sections, and the committed index file with masks in section 13. Each
	// of those is refused with the one line naming the command that
	// rewrites it (internal/legacy reads them); then the labelling whose
	// distances are kept per label, and every malformed section 16
	// TestReadChecksExcessCodes names; last, the labelling that keeps no
	// label for its leaves, as it is written and as writers before sections
	// 17 to 20 wrote it, and every malformed section TestReadChecksLeaves
	// names.
	fig2 := gen.PaperFigure2()
	path600G, path600Ix := path600(f)
	spiderCase := widthCases()[1]
	spiderIx, err := Build(spiderCase.g, spiderCase.lm)
	if err != nil {
		f.Fatal(err)
	}
	golden, path600File := v2Bytes(f, goldenIndex(f)), v2Bytes(f, path600Ix)
	seeds := [][]byte{golden, v2Bytes(f, spiderIx), path600File, v2Bytes(f, goldenMaskIndex(f)), v2Bytes(f, goldenRankIndex(f))}
	for _, old := range []struct {
		file []byte
		g    *graph.Graph
	}{
		{testdata(f, "tiny.hl1"), fig2}, {testdata(f, "path300.hl1"), gen.Path(300)}, {testdata(f, "tiny_off64.hl2"), fig2},
		{withoutSection11(f, golden), fig2}, {withoutSection11(f, path600File), path600G},
		{testdata(f, "tiny.hl2"), fig2}, {testdata(f, "tiny.snap2"), fig2},
		{testdata(f, "tiny.hwg1"), fig2}, {testdata(f, "tiny.snap1"), fig2}, {testdata(f, "tiny_mask.hl2"), fig2},
	} {
		if _, err := Read(bytes.NewReader(old.file), old.g); !namesMigrate(err) {
			f.Fatalf("seed %d: %v, want one line naming hlbuild migrate", len(seeds), err)
		}
		seeds = append(seeds, old.file)
	}
	for _, c := range offsetCases() {
		f.Add(reframe(f, rankBytesFile(f, path600Ix), c.edit))
	}
	for _, c := range rankMaskCases(path600Ix) {
		f.Add(reframe(f, path600File, c.edit))
	}
	for _, good := range seeds {
		f.Add(good)
		f.Add(good[:len(good)/2])
		// Seed header-mangled variants so the fuzzer starts near the
		// interesting validation branches.
		mangled := append([]byte{}, good...)
		for i := 8; i < 24 && i < len(mangled); i++ {
			mangled[i] ^= 0xFF
		}
		f.Add(mangled)
	}
	f.Add([]byte("HWLIDX01"))
	f.Add([]byte("HWLIDX02"))
	f.Add([]byte("garbage"))
	// A file a baseline wrote before their formats were retired: its first
	// section is the method tag, where the reader stops.
	var retired bytes.Buffer
	tag := container.Section{ID: container.SectTag, Payload: []byte("pll")}
	if err := container.WriteContainer(&retired, container.Header{N: 11, K: 2}, []container.Section{tag, {ID: container.SectTag + 1, Payload: []byte{0, 0, 0, 0}}}); err != nil {
		f.Fatal(err)
	}
	f.Add(retired.Bytes())
	hubs := goldenExcessIndex(f)
	f.Add(v2Bytes(f, hubs))
	for _, c := range excessCases() {
		f.Add(reframe(f, v2Bytes(f, hubs), c.edit))
	}
	leaves := goldenLeafIndex(f)
	f.Add(v2Bytes(f, leaves))
	f.Add(testdata(f, "leaves_kept.hl2"))
	for _, c := range leafCases(f, testdata(f, "leaves_kept.hl2")) {
		f.Add(reframe(f, v2Bytes(f, leaves), c.edit))
	}

	overflowG, gridG := gen.Path(300), gen.Grid(5, 6) // the graphs of the path300.hl1 and grid seeds
	f.Fuzz(func(t *testing.T, data []byte) {
		// Loading must be total: either an error or a usable index.
		ix, err := Read(bytes.NewReader(data), fig2)
		if err == nil {
			exerciseIndex(ix)
		}
		// More graph sizes exercise the n-mismatch path and the overflow
		// machinery bounds.
		for _, g := range []*graph.Graph{overflowG, spiderCase.g, path600G, gridG, hubs.Graph(), leaves.Graph()} {
			if ix, err := Read(bytes.NewReader(data), g); err == nil {
				exerciseIndex(ix)
			}
		}
	})
}

// testdata reads a committed file of internal/core/testdata.
func testdata(tb testing.TB, name string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// exerciseIndex touches the query and accounting paths of a loaded index:
// none of them may panic regardless of the (validated) contents.
func exerciseIndex(ix *Index) {
	_ = ix.Stats()
	n := int32(ix.Graph().NumVertices())
	sr := ix.NewSearcher()
	for s := int32(0); s < n && s < 4; s++ {
		for t := int32(0); t < n && t < 4; t++ {
			_ = sr.Distance(s, t)
			_ = sr.UpperBound(s, t)
		}
	}
	_ = ix.Distance(0, n-1)
	_ = ix.UpperBound(n-1, 0)
}

// FuzzIndexRoundTrip: for generated indexes across graph families and
// sizes, Save→Load must reproduce a deep-equal index.
func FuzzIndexRoundTrip(f *testing.F) {
	// One seed of each distance code width at least: w = 2 (ER, BA), w = 4
	// (ER of 84 vertices, 4 landmarks) and w = 8 (the paths). On graphs this
	// small every labelling's ranks take the bits: offsets alone cost more.
	f.Add(int64(1), uint8(30), uint8(3))
	f.Add(int64(1), uint8(80), uint8(3))
	f.Add(int64(2), uint8(80), uint8(7))
	f.Add(int64(3), uint8(5), uint8(1))
	f.Add(int64(5), uint8(89), uint8(1)) // the longest path, two landmarks
	f.Add(int64(4), uint8(5), uint8(1))
	// With kRaw's top bit set the graph is a small R-MAT with pendant trees
	// (leafy): three labellings that keep no label for their leaves (k = 8,
	// 7 and 6; 33, 30 and 35 leaves), and one of 13 vertices whose 3 leaves
	// are too few to elide.
	f.Add(int64(1), uint8(60), uint8(0x80|7))
	f.Add(int64(2), uint8(89), uint8(0x80|6))
	f.Add(int64(3), uint8(89), uint8(0x80|5))
	f.Add(int64(4), uint8(10), uint8(0x80|1))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kRaw uint8) {
		n := 4 + int(nRaw)%90
		var g *graph.Graph
		switch {
		case kRaw&0x80 != 0:
			g = leafy(n, seed)
		case seed%3 == 0:
			g = gen.BarabasiAlbert(n, 2, seed)
		case seed%3 == 1:
			g = gen.ErdosRenyi(n, int64(2*n), seed)
		default:
			// Long path: distances overflow the 8-bit disk encoding, so
			// the escape records round-trip too.
			g = gen.Path(280 + n)
		}
		k := 1 + int(kRaw)%8
		if k > g.NumVertices() {
			k = g.NumVertices()
		}
		ix, err := Build(g, g.DegreeOrder()[:k])
		if err != nil {
			t.Skip()
		}
		var buf bytes.Buffer
		if err := ix.Write(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		ix2, err := Read(bytes.NewReader(buf.Bytes()), g)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if !indexesIdentical(ix, ix2) {
			t.Fatal("round trip not deep-equal")
		}
		for i := range ix.landmarks {
			if ix.landmarks[i] != ix2.landmarks[i] {
				t.Fatal("landmarks differ after round trip")
			}
		}
	})
}

// leafy returns an R-MAT graph of about n vertices, the largest component
// of scale ⌈log₂ n⌉ - 1, seeded by seed, with pendant trees hung on it:
// every third vertex gets a leaf, every fifth a path of two, every seventh
// two leaves — leaves whose neighbour has other neighbours, which a
// labelling may elide, and ends of paths, whose neighbour is no leaf.
func leafy(n int, seed int64) *graph.Graph {
	scale := max(bits.Len(uint(n))-1, 2)
	core, _ := graph.LargestComponent(gen.RMAT(uint(scale), 4, 0.57, 0.19, 0.19, seed))
	edges, next := edgesOf(core), int32(core.NumVertices())
	hang := func(u int32, path int) {
		for range path {
			edges, u, next = append(edges, [2]int32{u, next}), next, next+1
		}
	}
	for u := range int32(core.NumVertices()) {
		switch {
		case u%7 == 0:
			hang(u, 1)
			hang(u, 1)
		case u%5 == 0:
			hang(u, 2)
		case u%3 == 0:
			hang(u, 1)
		}
	}
	return graph.MustFromEdges(int(next), edges)
}
