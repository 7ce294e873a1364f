package core

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"highway/internal/gen"
	"highway/internal/graph"
)

func v2Bytes(t testing.TB, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.WriteFormat(&buf, FormatV2); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func edgesOf(g *graph.Graph) [][2]int32 {
	var edges [][2]int32
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				edges = append(edges, [2]int32{u, v})
			}
		}
	}
	return edges
}

// twoTowns returns two disjoint Barabási–Albert graphs of half vertices
// each, the second on the upper half of the id range, and k landmarks: the
// k/2 highest-degree vertices of each.
func twoTowns(half, k int, seed int64) (*graph.Graph, []int32) {
	a, b := gen.BarabasiAlbert(half, 2, seed), gen.BarabasiAlbert(half, 2, seed+100)
	lm := slices.Clone(a.DegreeOrder()[:k/2])
	for _, v := range b.DegreeOrder()[:k/2] {
		lm = append(lm, v+int32(half))
	}
	return union(a, b), lm
}

// mutate returns g changed among its first half vertices only: a few
// random edges deleted, a few inserted, and one non-landmark vertex cut
// off into a component of its own.
func mutate(g *graph.Graph, half int, isLandmark []bool, rng *rand.Rand) *graph.Graph {
	edges := edgesOf(g)
	for i := 0; i < 4; {
		j := rng.Intn(len(edges))
		if int(edges[j][0]) >= half {
			continue
		}
		edges[j] = edges[len(edges)-1]
		edges = edges[:len(edges)-1]
		i++
	}
	for i := 0; i < 4; i++ {
		edges = append(edges, [2]int32{int32(rng.Intn(half)), int32(rng.Intn(half))})
	}
	cut := int32(rng.Intn(half))
	for isLandmark[cut] {
		cut = int32(rng.Intn(half))
	}
	edges = slices.DeleteFunc(edges, func(e [2]int32) bool { return e[0] == cut || e[1] == cut || e[0] == e[1] })
	return graph.MustFromEdges(g.NumVertices(), edges)
}

// rowOf returns what rank r's BFS contributed to the labelling: per vertex
// the distance of its entry, or -1. Two labellings agree on rank r iff
// these and the highway rows are equal.
func rowOf(ix *Index, r int) []int32 {
	row := make([]int32, len(ix.rankOf))
	for v := range row {
		row[v] = -1
		ranks, dists := ix.Label(int32(v))
		if i, ok := slices.BinarySearch(ranks, int32(r)); ok {
			row[v] = dists[i]
		}
	}
	return row
}

// TestRowsRerunMatchesBuild is the differential for the entry point
// internal/dynhl maintains a labelling through: build on G, change G into
// G′, re-run on G′ a random set of ranks that contains every rank whose
// BFS outcome differs between the two, and require the assembled index to
// be byte for byte what BuildOpts makes of G′ — for one worker and for
// GOMAXPROCS, in every direction. The source index and every index
// assembled on the way must come out of it unchanged.
func TestRowsRerunMatchesBuild(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Nothing changes in the second town, so its landmarks stay clean
		// and the dirty ranks are a proper subset. With 80 landmarks the
		// first town's are ranks 0..39, so the re-run set straddles the
		// boundary between the first two groups of 32.
		g, lm := twoTowns(200, []int{10, 80}[seed%2], seed)
		isLandmark := make([]bool, g.NumVertices())
		for _, v := range lm {
			isLandmark[v] = true
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g2 := mutate(g, 200, isLandmark, rng)
			wantWidths(t, g, g2, lm, 2, 2)
			checkRerun(t, g, g2, lm, rng, false)
		})
	}
	// Distances past the 8-bit escape: on the path 0-1-…-699 landmark 350
	// hides everything beyond it from landmark 0, so a chord out there
	// dirties rank 1 alone, and both ranks label vertices from 256 hops and
	// more away. The re-run rank and the kept one both own overflow records.
	path := gen.Path(700)
	t.Run("path700", func(t *testing.T) {
		chord := withEdges(path, [2]int32{600, 699})
		wantWidths(t, path, chord, []int32{0, 350}, 8, 8)
		checkRerun(t, path, chord, []int32{0, 350}, rand.New(rand.NewSource(7)), true)
	})
	// At w = 4: two spiders, each a landmark with ten legs of 15 hops and
	// long ones of 20 — two on the first, one on the second. A chord from
	// the first landmark to the tip of a long leg (vertex 170) dirties its
	// rank alone, and both ranks keep entries 16 hops or more away.
	legs := []int{15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 20}
	first := spider(append(legs, 20))
	spiders := union(first, spider(legs))
	t.Run("spiders", func(t *testing.T) {
		lm := []int32{0, int32(first.NumVertices())}
		chord := withEdges(spiders, [2]int32{0, 170})
		wantWidths(t, spiders, chord, lm, 4, 4)
		checkRerun(t, spiders, chord, lm, rand.New(rand.NewSource(8)), true)
	})
	// The width changes under the merge: a path of 300 off landmark 0
	// (w = 8) beside a town with a landmark of its own, whose entries are
	// kept; chords from 0 to every tenth vertex bring the path within 5
	// hops (w = 4), and the way back re-runs every rank.
	town := gen.BarabasiAlbert(200, 2, 3)
	tail := union(gen.Path(301), town)
	t.Run("width 8 to 4", func(t *testing.T) {
		var chords [][2]int32
		for v := int32(10); v <= 300; v += 10 {
			chords = append(chords, [2]int32{0, v})
		}
		lm := []int32{0, 301 + town.DegreeOrder()[0]}
		wantWidths(t, tail, withEdges(tail, chords...), lm, 8, 4)
		checkRerun(t, tail, withEdges(tail, chords...), lm, rand.New(rand.NewSource(9)), false)
	})
	// The rank form changes under the merge: 24 stars of 10 leaves, their
	// centres the landmarks, label each leaf once (240 entries, 786 bytes of
	// rank bytes and offsets against 998 of bits and directory: rank
	// bytes); edges from the first two centres to every leaf of the first
	// twelve stars give those leaves more entries (460: the mask), dirtying
	// the first twelve ranks, and the other stars' entries are kept. The way
	// back re-runs every rank into rank bytes.
	const centres, leaves = 24, 10
	stars := gen.Star(leaves + 1)
	lm := []int32{0}
	for c := int32(1); c < centres; c++ {
		stars = union(stars, gen.Star(leaves+1))
		lm = append(lm, c*(leaves+1))
	}
	t.Run("rank bytes to mask", func(t *testing.T) {
		var spokes [][2]int32
		for _, hub := range lm[:2] {
			for _, c := range lm[:centres/2] {
				for leaf := c + 1; leaf <= c+leaves; leaf++ {
					spokes = append(spokes, [2]int32{hub, leaf})
				}
			}
		}
		dense := withEdges(stars, spokes...)
		checkRerun(t, stars, dense, lm, rand.New(rand.NewSource(10)), false)
	})
}

// union is the disjoint union of a and b, b's vertices numbered after a's.
func union(a, b *graph.Graph) *graph.Graph {
	edges, n := edgesOf(a), int32(a.NumVertices())
	for _, e := range edgesOf(b) {
		edges = append(edges, [2]int32{e[0] + n, e[1] + n})
	}
	return graph.MustFromEdges(int(n)+b.NumVertices(), edges)
}

// withEdges is g with the given edges added.
func withEdges(g *graph.Graph, edges ...[2]int32) *graph.Graph {
	return graph.MustFromEdges(g.NumVertices(), append(edgesOf(g), edges...))
}

// wantWidths fails t unless the labellings of lm on g and on g2 code their
// distances in w and w2 bits.
func wantWidths(t *testing.T, g, g2 *graph.Graph, lm []int32, w, w2 uint8) {
	t.Helper()
	for i, c := range []struct {
		g *graph.Graph
		w uint8
	}{{g, w}, {g2, w2}} {
		ix, err := Build(c.g, lm)
		if err != nil {
			t.Fatal(err)
		}
		if got := ix.labelDist[0]; got != c.w {
			t.Fatalf("test premise broken: labelling %d has width %d, want %d", i+1, got, c.w)
		}
	}
}

// checkRerun is one input of TestRowsRerunMatchesBuild: g changed into g2.
// With escapes, some clean and some dirty rank must own overflow records in
// the labelling of g2.
func checkRerun(t *testing.T, g, g2 *graph.Graph, lm []int32, rng *rand.Rand, escapes bool) {
	t.Helper()
	base, err := Build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	baseBytes := v2Bytes(t, base)
	ref, err := Build(g2, lm)
	if err != nil {
		t.Fatal(err)
	}
	want := v2Bytes(t, ref)

	k := len(lm)
	var ranks []int
	dirty := 0
	var cleanEscaped, dirtyEscaped bool
	for r := 0; r < k; r++ {
		changed := !slices.Equal(rowOf(base, r), rowOf(ref, r)) ||
			!slices.Equal(base.highway[r*k:(r+1)*k], ref.highway[r*k:(r+1)*k])
		if changed {
			dirty++
		}
		if slices.ContainsFunc(slices.Collect(maps.Keys(ref.overflow)), func(p int64) bool { _, rank := ref.entryAt(p); return int(rank) == r }) {
			cleanEscaped, dirtyEscaped = cleanEscaped || !changed, dirtyEscaped || changed
		}
		if changed || !escapes && rng.Intn(3) == 0 {
			ranks = append(ranks, r)
		}
	}
	if dirty == 0 || dirty == k {
		t.Fatalf("%d of %d ranks dirty; the input does not test a proper subset", dirty, k)
	}
	if escapes && !(cleanEscaped && dirtyEscaped) {
		t.Fatalf("overflow records among the clean ranks: %v, among the dirty: %v; want both", cleanEscaped, dirtyEscaped)
	}
	if k > groupBits && (slices.Min(ranks) >= groupBits || slices.Max(ranks) < groupBits) {
		t.Fatalf("re-run set %v stays inside one group", ranks)
	}
	rng.Shuffle(len(ranks), func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })

	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		for _, dir := range []direction{dirAuto, dirPush, dirPull} {
			rw := RowsOf(base)
			if _, err := rw.Run(context.Background(), g2, ranks, Options{Workers: workers, dir: dir}); err != nil {
				t.Fatal(err)
			}
			got := rw.Assemble(g2)
			if !bytes.Equal(v2Bytes(t, got), want) {
				t.Fatalf("workers=%d direction=%d: re-running %v (%d dirty) differs from a build on the changed graph",
					workers, dir, ranks, dirty)
			}
			// And back: the same Rows, every rank, on the first graph.
			all := make([]int, k)
			for r := range all {
				all[r] = r
			}
			if _, err := rw.Run(context.Background(), g, all, Options{Workers: workers, dir: dir}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v2Bytes(t, rw.Assemble(g)), baseBytes) {
				t.Fatalf("workers=%d direction=%d: running every rank differs from Build", workers, dir)
			}
			if !bytes.Equal(v2Bytes(t, got), want) || !bytes.Equal(v2Bytes(t, base), baseBytes) {
				t.Fatal("a later Run wrote into an index assembled or read earlier")
			}
		}
	}
}

// TestRowsNothingDirty: a change that alters no landmark's BFS — an edge
// between two leaves of a star centred on the only landmark — re-runs
// nothing, and Assemble attaches the same label arrays to the new graph.
func TestRowsNothingDirty(t *testing.T) {
	g := gen.Star(10)
	base, err := Build(g, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	g2 := graph.MustFromEdges(10, append(edgesOf(g), [2]int32{3, 7}))
	rw := RowsOf(base)
	if _, err := rw.Run(context.Background(), g2, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	got := rw.Assemble(g2)
	if got.Graph() != g2 || base.Graph() != g {
		t.Fatal("Assemble did not attach the new graph, or moved the old index onto it")
	}
	if &got.labelDist[0] != &base.labelDist[0] || &got.labelMask.bits[0] != &base.labelMask.bits[0] || &got.highway[0] != &base.highway[0] {
		t.Fatal("label arrays were copied though no rank ran")
	}
	ref, err := Build(g2, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v2Bytes(t, got), v2Bytes(t, ref)) {
		t.Fatal("reattached labelling differs from a build on the new graph")
	}
	if d := got.Distance(3, 7); d != 1 {
		t.Fatalf("d(3,7) = %d on the new graph, want 1", d)
	}
}
