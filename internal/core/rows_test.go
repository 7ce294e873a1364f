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

// TestRowsRerunMatchesBuild is the differential for the step ApplyOps
// maintains a labelling through: build on G, change G into
// G′, re-run on G′ a random set of ranks that contains every rank whose
// BFS outcome differs between the two, and require the assembled index to
// be byte for byte what BuildOpts makes of G′ — for one worker and for
// GOMAXPROCS, in every direction. The source index and every index
// assembled on the way must come out of it unchanged.
func TestRowsRerunMatchesBuild(t *testing.T) {
	// The distance widths of each seed's labelling before and after.
	forms := [][2]distForm{
		{distForm{2, 2}, distForm{2, 2}}, {distForm{2, 2}, distForm{2, 2}}, {distForm{2, 2}, distForm{2, 2}},
		{distForm{2, 1}, distForm{2, 1}}, {distForm{2, 2}, distForm{2, 2}}, {distForm{2, 1}, distForm{2, 1}},
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Nothing changes in the second town, so its landmarks stay clean
		// and the dirty ranks are a proper subset. With 80 landmarks the
		// first town's are ranks 0..39, so the re-run set straddles the
		// boundary between the first two groups of 32.
		g, lm := twoTowns(200, []int{10, 80}[seed%2], seed)
		isLandmark := landmarkMask(g, lm)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g2 := mutate(g, 200, isLandmark, rng)
			wantForms(t, g, g2, lm, forms[seed-1][0], forms[seed-1][1])
			checkRerun(t, g, g2, lm, rng, false)
		})
	}
	// Distances past the 8-bit base: on the path 0-1-…-699 landmark 350
	// hides everything beyond it from landmark 0, so a chord out there
	// dirties rank 1 alone, and both ranks label vertices from 256 hops and
	// more away. The re-run rank and the kept one both own overflow records.
	path := gen.Path(700)
	t.Run("path700", func(t *testing.T) {
		chord := withEdges(path, [2]int32{600, 699})
		wantForms(t, path, chord, []int32{0, 350}, distForm{8, 0}, distForm{8, 0})
		checkRerun(t, path, chord, []int32{0, 350}, rand.New(rand.NewSource(7)), true)
	})
	// At a base of 4 bits: two spiders, each a landmark with ten legs of 15 hops and
	// long ones of 20 — two on the first, one on the second. A chord from
	// the first landmark to the tip of a long leg (vertex 170) dirties its
	// rank alone, and both ranks keep entries 16 hops or more away.
	legs := []int{15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 20}
	first := spider(append(legs, 20))
	spiders := union(first, spider(legs))
	t.Run("spiders", func(t *testing.T) {
		lm := []int32{0, int32(first.NumVertices())}
		chord := withEdges(spiders, [2]int32{0, 170})
		wantForms(t, spiders, chord, lm, distForm{4, 0}, distForm{4, 0})
		checkRerun(t, spiders, chord, lm, rand.New(rand.NewSource(8)), true)
	})
	// The base width changes under the merge: a path of 300 off landmark 0
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
		wantForms(t, tail, withEdges(tail, chords...), lm, distForm{8, 0}, distForm{4, 0})
		checkRerun(t, tail, withEdges(tail, chords...), lm, rand.New(rand.NewSource(9)), false)
	})
	// The labels go from sparse to dense under the merge (named for the
	// flip from rank bytes to the mask this made when ranks took either
	// form): 24 stars of 10 leaves, their centres the landmarks, label each
	// leaf once (240 entries); edges from the first two centres to every
	// leaf of the first twelve stars give those leaves more entries (460),
	// dirtying the first twelve ranks, and the other stars' entries are
	// kept. The way back re-runs every rank.
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
	// Per label on both sides of the merge: R-MAT-16, whose labels are all
	// flat and stay so when a few edges change (no excess code; 2 of the 20
	// ranks dirty), and two BA towns whose labels span at most one hop
	// (excesses of 1 bit). Each of R-MAT's leaves gets a leaf of its own, so
	// that the old leaves 4 hops from every hub keep their labels, which
	// escape at a base of 2 bits, and the new ones are elided.
	rmat, _ := graph.LargestComponent(gen.RMAT(16, 8, 0.57, 0.19, 0.19, 3))
	rmat = pendants(rmat)
	rmatLm := rmat.DegreeOrder()[:20]
	t.Run("rmat flat", func(t *testing.T) {
		if ix, err := Build(rmat, rmatLm); err != nil || ix.leaves.words == nil {
			t.Fatalf("test premise broken: %v, or no leaf elided", err)
		}
		g2 := mutate(rmat, rmat.NumVertices(), landmarkMask(rmat, rmatLm), rand.New(rand.NewSource(2)))
		wantForms(t, rmat, g2, rmatLm, distForm{2, 0}, distForm{2, 0})
		checkRerun(t, rmat, g2, rmatLm, rand.New(rand.NewSource(11)), true)
	})
	towns, townLm := twoTowns(200, 16, 4)
	t.Run("towns one bit", func(t *testing.T) {
		g2 := mutate(towns, 200, landmarkMask(towns, townLm), rand.New(rand.NewSource(3)))
		wantForms(t, towns, g2, townLm, distForm{2, 1}, distForm{2, 1})
		checkRerun(t, towns, g2, townLm, rand.New(rand.NewSource(12)), false)
	})
	// Two more towns (named for the flip from per-entry codes to per-label
	// ones this made when distances took either form): bases of 2 bits and
	// excesses of 2 on both sides, and back again when every rank re-runs.
	towns, townLm = twoTowns(200, 16, 11)
	t.Run("per entry to per label", func(t *testing.T) {
		g2 := mutate(towns, 200, landmarkMask(towns, townLm), rand.New(rand.NewSource(11)))
		wantForms(t, towns, g2, townLm, distForm{2, 2}, distForm{2, 2})
		checkRerun(t, towns, g2, townLm, rand.New(rand.NewSource(13)), false)
	})
}

// pendants is g with a new vertex joined to each vertex of degree one.
func pendants(g *graph.Graph) *graph.Graph {
	edges, n := edgesOf(g), int32(g.NumVertices())
	for v := range int32(g.NumVertices()) {
		if g.Degree(v) == 1 {
			edges, n = append(edges, [2]int32{v, n}), n+1
		}
	}
	return graph.MustFromEdges(int(n), edges)
}

// landmarkMask is the isLandmark array of lm on g.
func landmarkMask(g *graph.Graph, lm []int32) []bool {
	isLandmark := make([]bool, g.NumVertices())
	for _, v := range lm {
		isLandmark[v] = true
	}
	return isLandmark
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

// wantForms fails t unless the labellings of lm on g and on g2 keep their
// distances in forms f and f2.
func wantForms(t *testing.T, g, g2 *graph.Graph, lm []int32, f, f2 distForm) {
	t.Helper()
	for i, c := range []struct {
		g *graph.Graph
		f distForm
	}{{g, f}, {g2, f2}} {
		ix, err := Build(c.g, lm)
		if err != nil {
			t.Fatal(err)
		}
		if got := formOf(ix); got != c.f {
			t.Fatalf("test premise broken: labelling %d keeps its distances as %+v, want %+v", i+1, got, c.f)
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
			if _, err := rw.run(context.Background(), g2, ranks, Options{Workers: workers, dir: dir}); err != nil {
				t.Fatal(err)
			}
			got := rw.assemble(g2)
			if !bytes.Equal(v2Bytes(t, got), want) {
				t.Fatalf("workers=%d direction=%d: re-running %v (%d dirty) differs from a build on the changed graph",
					workers, dir, ranks, dirty)
			}
			// And back: the same Rows, every rank, on the first graph.
			all := make([]int, k)
			for r := range all {
				all[r] = r
			}
			if _, err := rw.run(context.Background(), g, all, Options{Workers: workers, dir: dir}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v2Bytes(t, rw.assemble(g)), baseBytes) {
				t.Fatalf("workers=%d direction=%d: running every rank differs from Build", workers, dir)
			}
			if !bytes.Equal(v2Bytes(t, got), want) || !bytes.Equal(v2Bytes(t, base), baseBytes) {
				t.Fatal("a later run wrote into an index assembled or read earlier")
			}
		}
	}
}

// TestRowsNothingDirty: a change that alters no landmark's BFS — an edge
// between two leaves of a star centred on the only landmark — re-runs
// nothing, and assemble attaches the same label arrays to the new graph.
func TestRowsNothingDirty(t *testing.T) {
	g := gen.Star(10)
	base, err := Build(g, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	g2 := graph.MustFromEdges(10, append(edgesOf(g), [2]int32{3, 7}))
	rw := RowsOf(base)
	if _, err := rw.run(context.Background(), g2, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	got := rw.assemble(g2)
	if got.Graph() != g2 || base.Graph() != g {
		t.Fatal("assemble did not attach the new graph, or moved the old index onto it")
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

// TestRowsLeafFlip: an edge joining two leaves of one vertex moves no
// landmark's distances, so nothing re-runs, but the two stop being leaves
// and the labelling keeps their labels again; deleting the edge makes them
// leaves again. After each step assemble must give what a build gives: on
// R-MAT-16, whose leaves are elided, and on BA-300 with two leaves hung on
// one vertex, too few to elide.
func TestRowsLeafFlip(t *testing.T) {
	rmat, _ := graph.LargestComponent(gen.RMAT(16, 8, 0.57, 0.19, 0.19, 3))
	ba := gen.BarabasiAlbert(300, 2, 5)
	ba = graph.MustFromEdges(302, append(edgesOf(ba), [2]int32{150, 300}, [2]int32{150, 301}))
	for _, c := range []struct {
		name   string
		g      *graph.Graph
		lm     []int32
		elided bool
	}{{"rmat16", rmat, rmat.DegreeOrder()[:20], true}, {"ba300", ba, ba.DegreeOrder()[:8], false}} {
		t.Run(c.name, func(t *testing.T) {
			base, err := Build(c.g, c.lm)
			if err != nil {
				t.Fatal(err)
			}
			a, b := twoLeaves(c.g, landmarkMask(c.g, c.lm))
			if (base.leaves.words != nil) != c.elided || a < 0 {
				t.Fatalf("test premise broken: leaves elided %v, two leaves of one vertex: %d and %d", base.leaves.words != nil, a, b)
			}
			for r := range int32(len(c.lm)) {
				if base.LandmarkDistance(r, a) != base.LandmarkDistance(r, b) {
					t.Fatalf("test premise broken: leaves %d and %d differ in their distance to rank %d", a, b, r)
				}
			}
			rw := RowsOf(base)
			for step, g := range []*graph.Graph{withEdges(c.g, [2]int32{a, b}), c.g} {
				if _, err := rw.run(context.Background(), g, nil, Options{}); err != nil {
					t.Fatal(err)
				}
				got := rw.assemble(g)
				ref, err := Build(g, c.lm)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(v2Bytes(t, got), v2Bytes(t, ref)) || !indexesIdentical(got, ref) {
					t.Fatalf("step %d: the labelling reattached to the graph differs from a build on it", step)
				}
				if d := got.Distance(a, b); d != int32(step)+1 {
					t.Fatalf("step %d: d(%d,%d) = %d", step, a, b, d)
				}
			}
		})
	}
}

// twoLeaves returns two vertices of degree one and no landmark hung on one
// vertex that is no landmark, or -1, -1.
func twoLeaves(g *graph.Graph, isLandmark []bool) (a, b int32) {
	for u := range int32(g.NumVertices()) {
		if isLandmark[u] {
			continue
		}
		var found []int32
		for _, v := range g.Neighbors(u) {
			if g.Degree(v) == 1 && !isLandmark[v] {
				found = append(found, v)
			}
		}
		if len(found) >= 2 {
			return found[0], found[1]
		}
	}
	return -1, -1
}
