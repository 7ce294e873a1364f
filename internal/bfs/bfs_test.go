package bfs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"highway/internal/gen"
	"highway/internal/graph"
)

func TestDistancesPath(t *testing.T) {
	g := gen.Path(6)
	dist := Distances(g, 0)
	for v := int32(0); v < 6; v++ {
		if dist[v] != v {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], v)
		}
	}
}

func TestDistancesDisconnected(t *testing.T) {
	g := graph.MustFromEdges(5, [][2]int32{{0, 1}, {2, 3}})
	dist := Distances(g, 0)
	if dist[1] != 1 || dist[2] != Unreachable || dist[4] != Unreachable {
		t.Fatalf("dist = %v", dist)
	}
	if got := Dist(g, 0, 3); got != Unreachable {
		t.Fatalf("Dist(0,3) = %d, want Unreachable", got)
	}
	sc := NewScratch(5)
	if got := BiBFS(g, 0, 3, sc); got != Unreachable {
		t.Fatalf("BiBFS(0,3) = %d, want Unreachable", got)
	}
}

func TestDistAgainstDistances(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 5)
	dist := Distances(g, 7)
	for _, v := range []int32{0, 1, 50, 123, 299} {
		if got := Dist(g, 7, v); got != dist[v] {
			t.Fatalf("Dist(7,%d) = %d, want %d", v, got, dist[v])
		}
	}
}

func TestBiBFSMatchesBFSProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(60, int64(rng.Intn(150)), seed)
		sc := NewScratch(g.NumVertices())
		for trial := 0; trial < 30; trial++ {
			s := int32(rng.Intn(60))
			u := int32(rng.Intn(60))
			if BiBFS(g, s, u, sc) != Dist(g, s, u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBiBFSSameVertex(t *testing.T) {
	g := gen.Cycle(5)
	sc := NewScratch(5)
	if got := BiBFS(g, 3, 3, sc); got != 0 {
		t.Fatalf("BiBFS(v,v) = %d, want 0", got)
	}
}

func TestBoundedBiBFSRespectsSkip(t *testing.T) {
	// Path 0-1-2-3-4 plus shortcut 0-5-4. Skipping 5 forces the long way.
	g := graph.MustFromEdges(6, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 5}, {5, 4}})
	sc := NewScratch(6)
	skip := make([]bool, 6)
	if got := BoundedBiBFS(g, 0, 4, NoBound, nil, sc); got != 2 {
		t.Fatalf("unskipped = %d, want 2", got)
	}
	skip[5] = true
	if got := BoundedBiBFS(g, 0, 4, NoBound, skip, sc); got != 4 {
		t.Fatalf("skipped = %d, want 4", got)
	}
}

func TestBoundedBiBFSBoundHit(t *testing.T) {
	g := gen.Path(20) // d(0,19) = 19
	sc := NewScratch(20)
	// Bound smaller than the true distance: the search must stop early and
	// report the bound.
	if got := BoundedBiBFS(g, 0, 19, 5, nil, sc); got != 5 {
		t.Fatalf("bound hit = %d, want 5", got)
	}
	// Bound equal to the true distance: either way the answer is 19.
	if got := BoundedBiBFS(g, 0, 19, 19, nil, sc); got != 19 {
		t.Fatalf("exact bound = %d, want 19", got)
	}
	// Bound way larger: exact distance wins.
	if got := BoundedBiBFS(g, 0, 19, 1000, nil, sc); got != 19 {
		t.Fatalf("loose bound = %d, want 19", got)
	}
	// Bound 0 with s != t is returned as-is.
	if got := BoundedBiBFS(g, 0, 19, 0, nil, sc); got != 0 {
		t.Fatalf("zero bound = %d, want 0", got)
	}
}

func TestBoundedBiBFSDisconnectedUnderBound(t *testing.T) {
	// Two components; with a finite bound the bound is returned (the
	// caller's label bound is then the exact answer).
	g := graph.MustFromEdges(4, [][2]int32{{0, 1}, {2, 3}})
	sc := NewScratch(4)
	if got := BoundedBiBFS(g, 0, 2, 7, nil, sc); got != 7 {
		t.Fatalf("got %d, want bound 7", got)
	}
}

// TestBoundedBiBFSEquivalence cross-checks Algorithm 2 against the
// definition: result == min(bound, d_{G[V\R]}(s,t)) for random graphs,
// random skips and random bounds.
func TestBoundedBiBFSEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(40)
		g := gen.ErdosRenyi(n, int64(2*n), seed+1)
		skip := make([]bool, n)
		for i := range skip {
			skip[i] = rng.Intn(5) == 0
		}
		// Reference: sparsified graph materialized.
		keep := make([]int32, 0, n)
		newID := make([]int32, n)
		for v := 0; v < n; v++ {
			if !skip[v] {
				newID[v] = int32(len(keep))
				keep = append(keep, int32(v))
			}
		}
		sub, _, err := g.InducedSubgraph(keep)
		if err != nil {
			return false
		}
		sc := NewScratch(n)
		for trial := 0; trial < 25; trial++ {
			s := int32(rng.Intn(n))
			u := int32(rng.Intn(n))
			if skip[s] || skip[u] {
				continue
			}
			bound := int32(rng.Intn(10))
			want := Dist(sub, newID[s], newID[u])
			if want == Unreachable || want > bound {
				want = bound
			}
			if got := BoundedBiBFS(g, s, u, bound, skip, sc); got != want {
				t.Logf("seed=%d s=%d t=%d bound=%d got=%d want=%d", seed, s, u, bound, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestScratchReuse runs many searches through one scratch, including epoch
// wrap adjacency, to catch cross-query contamination.
func TestScratchReuse(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 11)
	sc := NewScratch(g.NumVertices())
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		s := int32(rng.Intn(200))
		u := int32(rng.Intn(200))
		if got, want := BiBFS(g, s, u, sc), Dist(g, s, u); got != want {
			t.Fatalf("iteration %d: BiBFS(%d,%d) = %d, want %d", i, s, u, got, want)
		}
	}
}

// TestScratchGrow verifies a scratch sized for a small graph adapts to a
// bigger one.
func TestScratchGrow(t *testing.T) {
	sc := NewScratch(4)
	g := gen.Cycle(50)
	if got := BiBFS(g, 0, 25, sc); got != 25 {
		t.Fatalf("got %d, want 25", got)
	}
}

func BenchmarkBiBFS(b *testing.B) {
	g := gen.BarabasiAlbert(20000, 5, 3)
	sc := NewScratch(g.NumVertices())
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := int32(rng.Intn(20000))
		u := int32(rng.Intn(20000))
		BiBFS(g, s, u, sc)
	}
}

// TestBoundedBiBFSStopsAtTheBound: once ds+dt+1 reaches the bound, no
// unmet level can beat it, so that level is not expanded. On the path
// 0-1-22-23 with leaves 2..21 hanging off 1, the bound 3 is exact: the
// search claims 0 and 1 from s, 23 and 22 from t, and stops, where
// expanding s's second level would claim the twenty leaves too.
func TestBoundedBiBFSStopsAtTheBound(t *testing.T) {
	edges := [][2]int32{{0, 1}, {1, 22}, {22, 23}}
	for leaf := int32(2); leaf <= 21; leaf++ {
		edges = append(edges, [2]int32{1, leaf})
	}
	g := graph.MustFromEdges(24, edges)
	sc := NewScratch(g.NumVertices())
	if d := BoundedBiBFS(g, 0, 23, 3, nil, sc); d != 3 {
		t.Fatalf("BoundedBiBFS(0,23, bound 3) = %d, want 3", d)
	}
	marked := 0
	for _, st := range sc.stamp {
		if st >= 2*sc.epoch {
			marked++
		}
	}
	if marked != 4 {
		t.Fatalf("the search claimed %d vertices, want 4: it expanded a level the bound made useless", marked)
	}
}
