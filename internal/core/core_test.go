package core

import (
	"bytes"
	"context"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"highway/internal/bfs"
	"highway/internal/gen"
	"highway/internal/graph"
	"highway/internal/oracle"
)

// TestPaperFigure2Labels verifies Algorithm 1 reproduces the exact label
// table of the paper's Figure 2(c) on the running-example graph, with
// landmarks {1,5,9} (ids 0,4,8).
func TestPaperFigure2Labels(t *testing.T) {
	g := gen.PaperFigure2()
	ix, err := Build(g, gen.PaperLandmarks())
	if err != nil {
		t.Fatal(err)
	}
	// want[v] lists (landmark vertex 1-based, distance) per Figure 2(c).
	want := map[int32][][2]int32{
		1:  {{5, 1}, {9, 2}}, // vertex 2
		2:  {{5, 1}},         // vertex 3
		3:  {{1, 1}},         // vertex 4
		5:  {{9, 1}},         // vertex 6
		6:  {{5, 2}, {9, 1}}, // vertex 7
		7:  {{5, 1}},         // vertex 8
		9:  {{9, 1}},         // vertex 10
		10: {{1, 1}},         // vertex 11
		11: {{5, 1}},         // vertex 12
		12: {{1, 1}},         // vertex 13
		13: {{1, 1}},         // vertex 14
	}
	lmVertex := gen.PaperLandmarks() // rank -> vertex id
	for v := int32(0); v < 14; v++ {
		ranks, dists := ix.Label(v)
		entries := want[v]
		if len(ranks) != len(entries) {
			t.Fatalf("L(%d): got %d entries, want %d", v+1, len(ranks), len(entries))
		}
		for i := range ranks {
			gotLm := lmVertex[ranks[i]] + 1 // back to 1-based
			if gotLm != entries[i][0] || dists[i] != entries[i][1] {
				t.Errorf("L(%d)[%d] = (%d,%d), want (%d,%d)",
					v+1, i, gotLm, dists[i], entries[i][0], entries[i][1])
			}
		}
	}
	// Figure 3: total labelling size LS = 13.
	if ix.NumEntries() != 13 {
		t.Fatalf("LS = %d, want 13 (Figure 3)", ix.NumEntries())
	}
	// Highway distances used in Example 4.2: δH(5,1)=1, δH(9,1)=1; plus
	// d(5,9)=2 via landmark 1.
	if d := ix.Highway(4, 0); d != 1 {
		t.Errorf("δH(5,1) = %d, want 1", d)
	}
	if d := ix.Highway(8, 0); d != 1 {
		t.Errorf("δH(9,1) = %d, want 1", d)
	}
	if d := ix.Highway(4, 8); d != 2 {
		t.Errorf("δH(5,9) = %d, want 2", d)
	}
}

// TestPaperExample42UpperBound checks Example 4.2: the upper bound between
// vertices 2 and 11 (ids 1 and 10) is 3.
func TestPaperExample42UpperBound(t *testing.T) {
	g := gen.PaperFigure2()
	ix, err := Build(g, gen.PaperLandmarks())
	if err != nil {
		t.Fatal(err)
	}
	if ub := ix.UpperBound(1, 10); ub != 3 {
		t.Fatalf("d⊤(2,11) = %d, want 3", ub)
	}
	// And the exact distance is also 3 (Example 4.3).
	if d := ix.Distance(1, 10); d != 3 {
		t.Fatalf("d(2,11) = %d, want 3", d)
	}
}

// TestPaperFigure2AllPairs exhaustively checks HL against BFS on the
// running example.
func TestPaperFigure2AllPairs(t *testing.T) {
	g := gen.PaperFigure2()
	ix, err := Build(g, gen.PaperLandmarks())
	if err != nil {
		t.Fatal(err)
	}
	checkAllPairs(t, g, ix)
}

// checkAllPairs verifies the index against BFS ground truth through the
// shared differential harness.
func checkAllPairs(t *testing.T, g *graph.Graph, ix *Index) {
	t.Helper()
	oracle.CheckAllPairs(t, g, ix.NewSearcher())
}

// TestExhaustiveSmallGraphs checks HL == BFS on every pair of the shared
// corner-case suite, across landmark counts, and HL-P's build at k = 2
// (subtest BuildParallel).
func TestExhaustiveSmallGraphs(t *testing.T) {
	check := func(t *testing.T, k int, build func(*graph.Graph, []int32) (*Index, error)) {
		oracle.CheckCases(t, func(t *testing.T, g *graph.Graph) oracle.Oracle {
			ix, err := build(g, g.DegreeOrder()[:k])
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			return ix.NewSearcher()
		})
	}
	for _, k := range []int{1, 2, 3} {
		check(t, k, Build)
	}
	t.Run("BuildParallel", func(t *testing.T) { check(t, 2, BuildParallel) })
}

// TestRandomGraphsProperty is the main correctness property: on random
// graphs of every family, HL distances equal BFS distances.
func TestRandomGraphsProperty(t *testing.T) {
	oracle.CheckRandom(t, 40, 60, func(seed int64, g *graph.Graph) (oracle.Oracle, error) {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(8)
		if k > g.NumVertices() {
			k = g.NumVertices()
		}
		ix, err := Build(g, g.DegreeOrder()[:k])
		if err != nil {
			return nil, err
		}
		return ix.NewSearcher(), nil
	})
}

// TestOrderIndependence verifies Lemma 3.11: permuting the landmark order
// yields the same labelling (same entries per vertex, same total size).
func TestOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := gen.BarabasiAlbert(400, 3, 9)
	lm := g.DegreeOrder()[:10]
	ref, err := Build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		perm := make([]int32, len(lm))
		copy(perm, lm)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		ix, err := Build(g, perm)
		if err != nil {
			t.Fatal(err)
		}
		if ix.NumEntries() != ref.NumEntries() {
			t.Fatalf("permuted landmark order changed labelling size: %d vs %d",
				ix.NumEntries(), ref.NumEntries())
		}
		// Entry sets per vertex must be identical up to rank renaming.
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			if !sameEntrySet(ref, ix, v) {
				t.Fatalf("vertex %d: label differs across landmark orders", v)
			}
		}
	}
}

// sameEntrySet compares labels of v in two indexes by landmark *vertex id*
// (ranks differ when the landmark order is permuted).
func sameEntrySet(a, b *Index, v int32) bool {
	ra, da := a.Label(v)
	rb, db := b.Label(v)
	if len(ra) != len(rb) {
		return false
	}
	ma := map[int32]int32{}
	for i := range ra {
		ma[a.landmarks[ra[i]]] = da[i]
	}
	for i := range rb {
		if d, ok := ma[b.landmarks[rb[i]]]; !ok || d != db[i] {
			return false
		}
	}
	return true
}

// TestParallelMatchesSequential verifies HL-P determinism (Lemma 3.11):
// any worker count AND any traversal direction produces an identical
// index. The direction sweep pins the direction-optimizing engine to the
// top-down reference: bottom-up levels must claim exactly the same label
// and prune sets. It runs at each base width and with excesses of 1, 2 and
// 4 bits, on graphs large enough (but BA-600) for workers to share a
// build's levels and packing; a ring lattice with 1% of its edges rewired
// is far enough across for w = 8, and its labels span enough hops that
// 23 050 entries escape.
func TestParallelMatchesSequential(t *testing.T) {
	ba, ws, ring := gen.BarabasiAlbert(600, 4, 17), gen.WattsStrogatz(10_000, 6, 0.1, 1), gen.WattsStrogatz(10_000, 4, 0.01, 1)
	ba2k := gen.BarabasiAlbert(2000, 10, 42)
	for _, c := range []widthCase{
		{"ba600", ba, ba.DegreeOrder()[:20], distForm{2, 1}, 22},
		widthCases()[0],
		{"smallworld", ws, ws.DegreeOrder()[:20], distForm{4, 4}, 0},
		{"ring", ring, ring.DegreeOrder()[:20], distForm{8, 4}, 23_050},
		// Four groups of landmarks whose ranks take a mask of two words.
		{"ba2000 k100", ba2k, ba2k.DegreeOrder()[:100], distForm{2, 1}, 30},
	} {
		t.Run(c.name, func(t *testing.T) {
			seq, err := Build(c.g, c.lm)
			if err != nil {
				t.Fatal(err)
			}
			if got := formOf(seq); got != c.form {
				t.Fatalf("test premise broken: form %+v, want %+v", got, c.form)
			}
			for _, workers := range []int{0, 2, 3, 8} {
				for _, dir := range []direction{dirAuto, dirPush, dirPull} {
					par, err := BuildOpts(context.Background(), c.g, c.lm, Options{Workers: workers, dir: dir})
					if err != nil {
						t.Fatal(err)
					}
					if !indexesIdentical(seq, par) {
						t.Fatalf("workers=%d direction=%d produced a different index", workers, dir)
					}
				}
			}
		})
	}
}

// TestForcedPushPullByteIdentical pins the acceptance contract at the
// serialization layer: sequential and parallel builds, with the levels
// left to the measured frontier, all pushed or all pulled, produce
// byte-identical v2 index files.
func TestForcedPushPullByteIdentical(t *testing.T) {
	g := gen.BarabasiAlbert(900, 5, 23)
	lm := g.DegreeOrder()[:20]
	var want []byte
	for _, cfg := range []Options{
		{Workers: 1, dir: dirPush}, // pre-engine reference
		{Workers: 1, dir: dirAuto},
		{Workers: 1, dir: dirPull},
		{Workers: 4, dir: dirAuto},
		{Workers: 0, dir: dirPull},
	} {
		ix, err := BuildOpts(context.Background(), g, lm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ix.WriteFormat(&buf, FormatV2); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("workers=%d direction=%d: v2 bytes differ from reference build", cfg.Workers, cfg.dir)
		}
	}
}

// TestBuildStats pins what BuildStats.Traversal counts: pushed levels and
// the arcs they walked are the top-down counters, pulled levels and the
// arcs they examined the bottom-up ones; a level is counted once per group
// of landmarks whichever way it ran; and no counter depends on the worker
// count (the graph is past parallelVertices, so the workers really share
// the pulled levels).
func TestBuildStats(t *testing.T) {
	g := gen.BarabasiAlbert(3*parallelVertices/2, 4, 3)
	lm := g.DegreeOrder()[:40] // two groups
	stats := func(opt Options) BuildStats {
		ix, err := BuildOpts(context.Background(), g, lm, opt)
		if err != nil {
			t.Fatal(err)
		}
		return ix.BuildStats()
	}
	td := stats(Options{Workers: 1, dir: dirPush}).Traversal
	bu := stats(Options{Workers: 1, dir: dirPull}).Traversal
	auto := stats(Options{Workers: 1})
	if td.BottomUpLevels != 0 || td.EdgesBottomUp != 0 || td.TopDownLevels == 0 {
		t.Fatalf("all-push build stats: %+v", td)
	}
	if bu.TopDownLevels != 0 || bu.EdgesTopDown != 0 || bu.BottomUpLevels == 0 {
		t.Fatalf("all-pull build stats: %+v", bu)
	}
	if td.Levels() != bu.Levels() || td.Levels() != auto.Traversal.Levels() {
		t.Fatalf("level totals differ: push %d, pull %d, auto %d", td.Levels(), bu.Levels(), auto.Traversal.Levels())
	}
	if auto.Traversal.TopDownLevels == 0 || auto.Traversal.BottomUpLevels == 0 {
		t.Fatalf("auto build did not both push and pull: %+v", auto.Traversal)
	}
	if auto.Workers != 1 {
		t.Fatalf("workers = %d, want 1", auto.Workers)
	}
	for _, workers := range []int{2, 5} {
		for _, dir := range []direction{dirAuto, dirPull} {
			got := stats(Options{Workers: workers, dir: dir})
			want := auto.Traversal
			if dir == dirPull {
				want = bu
			}
			if got.Traversal != want || got.Workers != workers {
				t.Fatalf("workers=%d direction=%d: stats %+v, want traversal %+v", workers, dir, got, want)
			}
		}
	}
}

// TestBuildPushesAndPulls pins which way an ordinary build (no forced
// direction) sends its levels, so both arms of the sweep provably run with
// no knob to select them: a path never fills enough of the graph to be
// pulled, a star is pulled from its first level, and a skewed-degree graph
// is pushed once and pulled from there on.
func TestBuildPushesAndPulls(t *testing.T) {
	ba := gen.BarabasiAlbert(2000, 4, 1)
	for _, c := range []struct {
		name           string
		g              *graph.Graph
		landmarks      []int32
		pushed, pulled int64
	}{
		{"path300", gen.Path(300), []int32{149, 150}, 150, 0},
		{"star200", gen.Star(200), []int32{0}, 0, 2},
		{"ba2000", ba, ba.DegreeOrder()[:8], 1, 3},
	} {
		ix, err := Build(c.g, c.landmarks)
		if err != nil {
			t.Fatal(err)
		}
		if tr := ix.BuildStats().Traversal; tr.TopDownLevels != c.pushed || tr.BottomUpLevels != c.pulled {
			t.Errorf("%s: %d levels pushed and %d pulled, want %d and %d (%+v)", c.name,
				tr.TopDownLevels, tr.BottomUpLevels, c.pushed, c.pulled, tr)
		}
	}
}

// TestBuildProgress verifies the Progress callback fires once per landmark,
// as its BFS finishes, with done = 1…total in order, for landmark sets of
// one group and of several, and for a re-run of a subset of the ranks.
func TestBuildProgress(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 9)
	for _, k := range []int{12, 70} {
		lm := g.DegreeOrder()[:k]
		for _, workers := range []int{1, 4} {
			calls := 0
			ix, err := BuildOpts(context.Background(), g, lm, Options{
				Workers: workers,
				Progress: func(done, total int) {
					calls++
					if total != k || done != calls {
						t.Fatalf("call %d: done = %d, total = %d, want total %d", calls, done, total, k)
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if calls != k {
				t.Fatalf("k=%d workers=%d: %d progress calls", k, workers, calls)
			}
			calls = 0
			subset := []int{k - 1, 0, 5}
			_, err = RowsOf(ix).run(context.Background(), g, subset, Options{Workers: workers, Progress: func(done, total int) {
				calls++
				if total != len(subset) || done != calls {
					t.Fatalf("re-run call %d: done = %d, total = %d", calls, done, total)
				}
			}})
			if err != nil || calls != len(subset) {
				t.Fatalf("re-run of %v: %d progress calls, err %v", subset, calls, err)
			}
		}
	}
}

func indexesIdentical(a, b *Index) bool {
	if a.NumEntries() != b.NumEntries() || len(a.highway) != len(b.highway) || !slices.Equal(a.leaves.words, b.leaves.words) {
		return false
	}
	for v := range int32(a.g.NumVertices()) {
		as, aleaf := a.slotOf(v)
		if bs, bleaf := b.slotOf(v); as != bs || aleaf != bleaf {
			return false
		}
	}
	for i := range a.highway {
		if a.highway[i] != b.highway[i] {
			return false
		}
	}
	for v := range int32(a.slots()) {
		alo, ahi := a.span(v)
		if blo, bhi := b.span(v); alo != blo || ahi != bhi {
			return false
		}
	}
	return bytes.Equal(a.labelMask.bits, b.labelMask.bits) && bytes.Equal(a.labelMask.dir, b.labelMask.dir) &&
		bytes.Equal(a.labelDist, b.labelDist) &&
		maps.Equal(a.overflow, b.overflow)
}

// TestMinimality verifies Lemma 3.7 in both directions on random graphs:
// (r,v) is labelled iff no other landmark lies on ANY shortest r-v path.
func TestMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		g := gen.ErdosRenyi(70, 180, int64(trial))
		k := 2 + rng.Intn(5)
		lm := g.DegreeOrder()[:k]
		ix, err := Build(g, lm)
		if err != nil {
			t.Fatal(err)
		}
		// Full distance arrays from every landmark.
		distFrom := make([][]int32, k)
		for r, l := range lm {
			distFrom[r] = bfs.Distances(g, l)
		}
		isLm := map[int32]bool{}
		for _, l := range lm {
			isLm[l] = true
		}
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			if isLm[v] {
				if ix.LabelSize(v) != 0 {
					t.Fatalf("landmark %d has a label", v)
				}
				continue
			}
			ranks, dists := ix.Label(v)
			labelled := map[int32]int32{}
			for i := range ranks {
				labelled[ranks[i]] = dists[i]
			}
			for r := 0; r < k; r++ {
				d := distFrom[r][v]
				// Another landmark r2 lies on a shortest path from lm[r]
				// to v iff d(r,r2) + d(r2,v) == d(r,v).
				blocked := false
				for r2 := 0; r2 < k; r2++ {
					if r2 == r {
						continue
					}
					if distFrom[r][lm[r2]] >= 0 && distFrom[r2][v] >= 0 &&
						distFrom[r][lm[r2]]+distFrom[r2][v] == d {
						blocked = true
						break
					}
				}
				got, has := labelled[int32(r)]
				if d == bfs.Unreachable {
					if has {
						t.Fatalf("vertex %d labelled by unreachable landmark rank %d", v, r)
					}
					continue
				}
				if blocked && has {
					t.Fatalf("vertex %d: entry for rank %d violates minimality", v, r)
				}
				if !blocked && !has {
					t.Fatalf("vertex %d: missing entry for rank %d (breaks highway cover)", v, r)
				}
				if has && got != d {
					t.Fatalf("vertex %d rank %d: stored %d, want %d", v, r, got, d)
				}
			}
		}
	}
}

// TestUpperBoundProperties: d⊤ ≥ d always; d⊤ == d iff a shortest path
// intersects R (Lemma 4.4 / pair coverage definition).
func TestUpperBoundProperties(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 23)
	lm := g.DegreeOrder()[:10]
	ix, err := Build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	distFrom := make([][]int32, len(lm))
	for r, l := range lm {
		distFrom[r] = bfs.Distances(g, l)
	}
	for trial := 0; trial < 300; trial++ {
		s := int32(rng.Intn(g.NumVertices()))
		u := int32(rng.Intn(g.NumVertices()))
		d := bfs.Dist(g, s, u)
		ub := ix.UpperBound(s, u)
		if d == bfs.Unreachable {
			continue
		}
		if ub < d {
			t.Fatalf("d⊤(%d,%d) = %d < d = %d", s, u, ub, d)
		}
		covered := false
		for r := range lm {
			if distFrom[r][s]+distFrom[r][u] == d {
				covered = true
				break
			}
		}
		if covered && ub != d {
			t.Fatalf("covered pair (%d,%d): d⊤ = %d, want exact %d", s, u, ub, d)
		}
		if !covered && ub == d {
			t.Fatalf("uncovered pair (%d,%d) has exact bound; coverage logic suspect", s, u)
		}
	}
}

// TestLandmarkEndpoints: queries where one or both endpoints are landmarks
// are answered exactly by labels + highway.
func TestLandmarkEndpoints(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 31)
	lm := g.DegreeOrder()[:8]
	ix, err := Build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	sr := ix.NewSearcher()
	for _, l := range lm {
		want := bfs.Distances(g, l)
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			w := want[v]
			if w == bfs.Unreachable {
				w = Infinity
			}
			if got := sr.Distance(l, v); got != w {
				t.Fatalf("Distance(lm %d, %d) = %d, want %d", l, v, got, w)
			}
			if got := sr.Distance(v, l); got != w {
				t.Fatalf("Distance(%d, lm %d) = %d, want %d", v, l, got, w)
			}
		}
	}
}

// TestDisconnected covers components with and without landmarks.
func TestDisconnected(t *testing.T) {
	// Component A: star 0..4 (center 0); component B: path 5-6-7.
	g := graph.MustFromEdges(8, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {5, 6}, {6, 7}})
	ix, err := Build(g, []int32{0}) // landmark only in component A
	if err != nil {
		t.Fatal(err)
	}
	sr := ix.NewSearcher()
	if d := sr.Distance(1, 2); d != 2 {
		t.Fatalf("within A: %d, want 2", d)
	}
	if d := sr.Distance(5, 7); d != 2 {
		t.Fatalf("within B (no landmark): %d, want 2", d)
	}
	if d := sr.Distance(1, 5); d != Infinity {
		t.Fatalf("across components: %d, want Infinity", d)
	}
	if d := sr.Distance(0, 7); d != Infinity {
		t.Fatalf("landmark to other component: %d, want Infinity", d)
	}
}

// TestMultiLandmarkComponents places landmarks in two components so the
// highway matrix itself contains Infinity entries.
func TestMultiLandmarkComponents(t *testing.T) {
	g := graph.MustFromEdges(8, [][2]int32{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 6}, {6, 7}})
	ix, err := Build(g, []int32{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if h := ix.Highway(1, 5); h != Infinity {
		t.Fatalf("cross-component highway = %d, want Infinity", h)
	}
	checkAllPairs(t, g, ix)
}

// TestDistanceOverflow exercises distances beyond the 8-bit disk encoding
// on a path of length 600: escaped in the label arrays, exact in the table.
func TestDistanceOverflow(t *testing.T) {
	g := gen.Path(600)
	ix, err := Build(g, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	if ix.numOverflow() == 0 {
		t.Fatal("expected overflow entries on a 600-path")
	}
	sr := ix.NewSearcher()
	if d := sr.Distance(0, 599); d != 599 {
		t.Fatalf("d(0,599) = %d, want 599", d)
	}
	if d := sr.Distance(1, 599); d != 598 {
		t.Fatalf("d(1,599) = %d, want 598", d)
	}
	// The far endpoint's label stores the full distance, undamped by the
	// byte encoding.
	_, dists := ix.Label(599)
	if len(dists) != 1 || dists[0] != 599 {
		t.Fatalf("L(599) = %v, want [599]", dists)
	}
}

func TestBuildErrors(t *testing.T) {
	g := gen.Path(5)
	if _, err := Build(g, nil); err == nil {
		t.Error("empty landmark set accepted")
	}
	if _, err := Build(g, []int32{0, 0}); err == nil {
		t.Error("duplicate landmark accepted")
	}
	if _, err := Build(g, []int32{99}); err == nil {
		t.Error("out-of-range landmark accepted")
	}
	big := gen.Path(300)
	lm := make([]int32, 256)
	for i := range lm {
		lm[i] = int32(i)
	}
	if _, err := Build(big, lm); err == nil {
		t.Error("256 landmarks accepted (MaxLandmarks=255)")
	}
}

// TestBuildCopiesLandmarks: an index keeps its own k landmark ids, not
// the caller's slice, so no n-vertex order stays behind them and a caller
// writing into its slice after the build changes neither the landmarks
// nor an answer.
func TestBuildCopiesLandmarks(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 5)
	const k = 6
	order := g.DegreeOrder()
	lm := slices.Clone(order[:k])
	ix, err := BuildOpts(context.Background(), g, order[:k], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := cap(ix.Landmarks()); got != k {
		t.Fatalf("cap(Landmarks()) = %d, want %d", got, k)
	}
	slices.Reverse(order)
	if !slices.Equal(ix.Landmarks(), lm) {
		t.Fatalf("after the caller overwrote its slice the landmarks read %v, want %v", ix.Landmarks(), lm)
	}
	for s := int32(0); s < 300; s += 7 {
		dist := bfs.Distances(g, s)
		for u := int32(0); u < 300; u++ {
			if got := ix.Distance(s, u); got != dist[u] {
				t.Fatalf("after the caller overwrote its landmarks: Distance(%d,%d) = %d, BFS says %d", s, u, got, dist[u])
			}
		}
	}
}

// TestBuildCancellation: the context is checked before every level and
// every group of landmarks, so a build stops whether it was cancelled
// before it started, while the first group was running, or between groups.
func TestBuildCancellation(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 3, 1)
	lm := g.DegreeOrder()[:40]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := BuildOpts(ctx, g, lm, Options{Workers: workers}); err != context.Canceled {
			t.Errorf("workers=%d: build under a cancelled context returned %v", workers, err)
		}
	}
	// Progress runs between levels: cancelling from its n-th call stops the
	// build at the next level, and the ranks still running never report.
	for _, after := range []int{1, 32} { // inside the first group; as it ends
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		_, err := BuildOpts(ctx, g, lm, Options{Progress: func(done, total int) {
			if calls++; done == after {
				cancel()
			}
		}})
		if err != context.Canceled || calls >= len(lm) {
			t.Errorf("cancelled after %d landmarks: err %v, %d of %d reported", after, err, calls, len(lm))
		}
		cancel()
	}
}

// TestTriangleInequality samples triples and checks Eq. 1 and Eq. 2 hold
// for oracle distances.
func TestTriangleInequality(t *testing.T) {
	g := gen.RMAT(9, 6, 0.57, 0.19, 0.19, 4)
	lcc, _ := graphLargestComponent(g)
	ix, err := Build(lcc, lcc.DegreeOrder()[:10])
	if err != nil {
		t.Fatal(err)
	}
	sr := ix.NewSearcher()
	rng := rand.New(rand.NewSource(8))
	n := lcc.NumVertices()
	for trial := 0; trial < 200; trial++ {
		s := int32(rng.Intn(n))
		u := int32(rng.Intn(n))
		w := int32(rng.Intn(n))
		dsu := sr.Distance(s, u)
		dsw := sr.Distance(s, w)
		dwu := sr.Distance(w, u)
		if dsu > dsw+dwu {
			t.Fatalf("triangle violated: d(%d,%d)=%d > %d+%d", s, u, dsu, dsw, dwu)
		}
		diff := dsw - dwu
		if diff < 0 {
			diff = -diff
		}
		if dsu < diff {
			t.Fatalf("reverse triangle violated: d(%d,%d)=%d < |%d-%d|", s, u, dsu, dsw, dwu)
		}
	}
}

func graphLargestComponent(g *graph.Graph) (*graph.Graph, []int32) {
	return graph.LargestComponent(g)
}

// TestStatsAndSizes sanity-checks the accounting helpers.
func TestStatsAndSizes(t *testing.T) {
	g := gen.PaperFigure2()
	ix, err := Build(g, gen.PaperLandmarks())
	if err != nil {
		t.Fatal(err)
	}
	st := ix.Stats()
	if st.NumEntries != 13 || st.NumLandmarks != 3 || st.NumVertices != 14 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes32 != 13*5+9*4 {
		t.Fatalf("Bytes32 = %d", st.Bytes32)
	}
	if st.Bytes8 != 13*2+9*4 {
		t.Fatalf("Bytes8 = %d", st.Bytes8)
	}
	if ix.AvgLabelSize() != 13.0/11.0 {
		t.Fatalf("ALS = %v", ix.AvgLabelSize())
	}
	if st.String() == "" {
		t.Fatal("empty stats string")
	}
	if ix.ActualBytes() <= 0 {
		t.Fatal("ActualBytes not positive")
	}
	if ix.Graph() != g {
		t.Fatal("Graph() accessor broken")
	}
	if !ix.IsLandmark(0) || ix.IsLandmark(1) {
		t.Fatal("IsLandmark wrong")
	}
}

// TestConcurrentQueries runs Index.Distance from many goroutines under the
// race detector.
func TestConcurrentQueries(t *testing.T) {
	g := gen.BarabasiAlbert(500, 3, 77)
	ix, err := BuildParallel(g, g.DegreeOrder()[:10])
	if err != nil {
		t.Fatal(err)
	}
	truth := bfs.Distances(g, 42)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				v := int32(rng.Intn(500))
				if got := ix.Distance(42, v); got != truth[v] {
					done <- errMismatch
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent query mismatch" }
