package core

import (
	"bytes"
	"context"
	"errors"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"highway/internal/container"
	"highway/internal/gen"
	"highway/internal/graph"
	"highway/internal/oracle"
)

// FuzzLoadIndex: arbitrary bytes must never panic or OOM the loader.
// Successful loads must yield an index whose basic operations are safe to
// call.
func FuzzLoadIndex(f *testing.F) {
	// Seeds: an index of each base width — the golden index (w = 2), the
	// spider's (5 overflow records) and the path-600 index (w = 8, 686
	// records), and the paper's example with its three highest-degree
	// vertices as landmarks, and the grid whose ranks would take a byte
	// fewer as rank bytes — then a file of each retired layout: the
	// committed v1 files and the one with its offsets in section 3, the
	// committed index file with one distance byte an entry, without its
	// section 11 and as committed, and its checkpoint, the committed graph
	// file and checkpoint from before the graph became sections, the committed index
	// file with masks in section 13, the committed files with a distance
	// code an entry in section 12 (tiny_codes.hl2, tiny_bits.hl2), beside
	// rank bytes in section 4 (grid_ranks.hl2, tiny_ranks.hl2), and
	// path-600's ranks as rank bytes beside section 16. Each of those is
	// refused with the one line naming the command that rewrites it, the
	// `hlbuild migrate` of container.OldRelease; then the golden and
	// path-600 files without section 11, damaged, each refused in one line
	// naming no migrate; then path-600's file with its rank directory
	// stored, as writers before the reader derived it framed it, and every
	// malformed rank bits or directory TestReadChecksRankMask names; then
	// the labelling whose labels span a hop, and every malformed section 16
	// TestReadChecksExcessCodes names; last, the labelling that keeps no
	// label for its leaves, as it is written, as writers before sections 17
	// to 20 wrote it and as writers before the derived directory wrote it,
	// and every malformed section TestReadChecksLeaves names.
	fig2 := gen.PaperFigure2()
	path600G, path600Ix := path600(f)
	spiderCase := widthCases()[1]
	spiderIx, err := Build(spiderCase.g, spiderCase.lm)
	if err != nil {
		f.Fatal(err)
	}
	golden, path600File := v2Bytes(f, goldenIndex(f)), v2Bytes(f, path600Ix)
	seeds := [][]byte{golden, v2Bytes(f, spiderIx), path600File, v2Bytes(f, goldenTop3Index(f)), v2Bytes(f, goldenGridIndex(f))}
	for _, old := range []struct {
		file []byte
		g    *graph.Graph
	}{
		{testdata(f, "tiny.hl1"), fig2}, {testdata(f, "path300.hl1"), gen.Path(300)}, {testdata(f, "tiny_off64.hl2"), fig2},
		{withoutSection11(f, testdata(f, "tiny.hl2")), fig2}, {testdata(f, "tiny.hl2"), fig2}, {testdata(f, "tiny.snap2"), fig2},
		{testdata(f, "tiny.hwg1"), fig2}, {testdata(f, "tiny.snap1"), fig2}, {testdata(f, "tiny_mask.hl2"), fig2},
		{testdata(f, "tiny_codes.hl2"), fig2}, {testdata(f, "tiny_bits.hl2"), fig2}, {testdata(f, "grid_ranks.hl2"), gen.Grid(5, 6)},
		{testdata(f, "tiny_ranks.hl2"), fig2}, {rankBytesFile(f, path600Ix), path600G},
	} {
		if _, err := Read(bytes.NewReader(old.file), old.g); !namesMigrate(err) {
			f.Fatalf("seed %d: %v, want one line naming hlbuild migrate", len(seeds), err)
		}
		seeds = append(seeds, old.file)
	}
	for _, damaged := range []struct {
		file []byte
		g    *graph.Graph
	}{{withoutSection11(f, golden), fig2}, {withoutSection11(f, path600File), path600G}} {
		if _, err := Read(bytes.NewReader(damaged.file), damaged.g); !namesDamage(err) {
			f.Fatalf("seed %d: %v, want one line saying the file is damaged", len(seeds), err)
		}
		seeds = append(seeds, damaged.file)
	}
	seeds = append(seeds, withDirectory(f, path600Ix))
	for _, c := range rankMaskCases(path600Ix) {
		f.Add(reframe(f, withDirectory(f, path600Ix), c.edit))
	}
	for _, c := range derivedRankCases() {
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
	f.Add(testdata(f, "leaves_dir.hl2"))
	for _, c := range leafCases(f, testdata(f, "leaves_kept.hl2")) {
		f.Add(reframe(f, testdata(f, "leaves_dir.hl2"), c.edit))
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

// FuzzBatchMatchesPairwise holds the batch executor to the pairwise
// answers under random input: a seeded small graph of oracle.RandomCase's
// families, k degree-ranked landmarks, and a shuffled pair multiset
// mixing up to three fan groups of 256 to 767 targets (on these graphs
// they take the shared source BFS) with up to 2 047 uniform pairs. With
// stop > 0 the batch first runs under a context that reports
// cancellation at its stop-th poll: it returns context.Canceled and no
// answers, or — finishing in fewer polls — the pairwise answers. Either
// way the searcher's next batch equals Searcher.Distance pair by pair.
func FuzzBatchMatchesPairwise(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint16(300), uint8(0))
	f.Add(int64(2), uint8(1), uint8(3), uint16(0), uint8(2))
	f.Add(int64(3), uint8(8), uint8(1), uint16(2000), uint8(3))
	f.Add(int64(4), uint8(0), uint8(0), uint16(900), uint8(1))
	f.Add(int64(7), uint8(5), uint8(2), uint16(40), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, k, fans uint8, uniform uint16, stop uint8) {
		g := oracle.RandomCase(seed).Graph
		n := g.NumVertices()
		ix, err := Build(g, g.DegreeOrder()[:1+int(k)%min(n, 12)])
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		var pairs [][2]int32
		for range fans % 4 {
			src := int32(rng.Intn(n))
			for range 256 + rng.Intn(512) {
				pairs = append(pairs, [2]int32{src, int32(rng.Intn(n))})
			}
		}
		for range uniform % 2048 {
			pairs = append(pairs, [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))})
		}
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		ref := ix.Searcher()
		want := make([]int32, len(pairs))
		for i, p := range pairs {
			want[i] = ref.Distance(p[0], p[1])
		}

		sr := ix.Searcher()
		if stop > 0 {
			ctx := &countingCtx{Context: context.Background(), k: int(stop % 8)}
			switch out, err := sr.batch(ctx, pairs, nil); {
			case err == nil && !slices.Equal(out, want):
				t.Fatalf("a batch finished in %d polls differs from the pairwise answers", ctx.polls)
			case err != nil && (!errors.Is(err, context.Canceled) || out != nil || ctx.polls != ctx.k):
				t.Fatalf("stopped at poll %d: %d answers, %v, after %d polls", ctx.k, len(out), err, ctx.polls)
			}
		}
		if got := sr.DistanceBatch(pairs, nil); !slices.Equal(got, want) {
			t.Fatal("the batch differs from the pairwise answers")
		}
	})
}
