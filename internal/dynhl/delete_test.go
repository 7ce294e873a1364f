package dynhl

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"highway/internal/bfs"
	"highway/internal/core"
	"highway/internal/gen"
	"highway/internal/graph"
)

// requireMatchesRebuild compares the dynamic index label-for-label and
// highway-cell-for-highway-cell against a from-scratch static build on
// the same edge set — the decremental core invariant.
func requireMatchesRebuild(t *testing.T, tag string, dyn *Index, m *mirror, lm []int32) {
	t.Helper()
	ref, err := core.Build(m.graph(), lm)
	if err != nil {
		t.Fatal(err)
	}
	requireSameLabelling(t, tag, dyn.cur, ref)
}

// requireSameLabelling compares two static indexes over the same landmark
// set: every highway cell and every vertex's label.
func requireSameLabelling(t *testing.T, tag string, got, ref *core.Index) {
	t.Helper()
	if got.NumEntries() != ref.NumEntries() {
		t.Fatalf("%s: entries dyn=%d ref=%d", tag, got.NumEntries(), ref.NumEntries())
	}
	for _, vi := range ref.Landmarks() {
		for _, vj := range ref.Landmarks() {
			if g, want := got.Highway(vi, vj), ref.Highway(vi, vj); g != want {
				t.Fatalf("%s: highway[%d,%d] dyn=%d ref=%d", tag, vi, vj, g, want)
			}
		}
	}
	for v := int32(0); int(v) < ref.Graph().NumVertices(); v++ {
		ranks, dists := ref.Label(v)
		gr, gd := got.Label(v)
		if !slices.Equal(gr, ranks) || !slices.Equal(gd, dists) {
			t.Fatalf("%s vertex %d: dyn=(%v,%v) ref=(%v,%v)", tag, v, gr, gd, ranks, dists)
		}
	}
}

// TestDeleteMatchesRebuild is the decremental twin of
// TestInsertMatchesRebuild: after any deletion sequence the dynamic
// index must be identical (labels and highway) to a from-scratch build
// on the surviving edge set — including once deletions disconnect it.
func TestDeleteMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := gen.BarabasiAlbert(150, 2, 3)
	lm := g.DegreeOrder()[:6]
	dyn, err := build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	m := newMirror(g)
	for round := 0; round < 25; round++ {
		e := m.edges[rng.Intn(len(m.edges))]
		if err := dyn.DeleteEdges([][2]int32{e}); err != nil {
			t.Fatal(err)
		}
		m.delete(e[0], e[1])
		requireMatchesRebuild(t, "round", dyn, m, lm)
	}
}

// TestMixedOpsMatchRebuild interleaves insertions and deletions in one
// ApplyOps batch: the shared dirty set must stay exact when an edge
// inserted earlier in the batch is deleted later in it and vice versa.
func TestMixedOpsMatchRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := gen.ErdosRenyi(120, 220, 4)
	lm := g.DegreeOrder()[:5]
	dyn, err := build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	m := newMirror(g)
	for round := 0; round < 12; round++ {
		var ops []Op
		for i := 0; i < 6; i++ {
			if rng.Intn(2) == 0 && len(m.edges) > 0 {
				e := m.edges[rng.Intn(len(m.edges))]
				ops = append(ops, Op{A: e[0], B: e[1], Del: true})
				m.delete(e[0], e[1])
			} else {
				a, b := int32(rng.Intn(120)), int32(rng.Intn(120))
				ops = append(ops, Op{A: a, B: b})
				if a != b && !m.graph().HasEdge(a, b) {
					m.insert(a, b)
				}
			}
		}
		if _, err := dyn.ApplyOps(ops); err != nil {
			t.Fatal(err)
		}
		requireMatchesRebuild(t, "round", dyn, m, lm)
	}
}

// TestDeleteDetectionSkipsCleanLandmarks pins the d(r,a)=d(r,b) skip on
// the decremental side: removing an edge between two vertices
// equidistant from the landmark lies on none of its shortest paths, so
// no repair work may happen at all.
func TestDeleteDetectionSkipsCleanLandmarks(t *testing.T) {
	g := gen.Star(10)
	dyn, err := build(g, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := dyn.InsertEdges([][2]int32{{3, 7}}); err != nil {
		t.Fatal(err)
	}
	before := dyn.Maint()
	res, err := dyn.ApplyOps([]Op{{A: 3, B: 7, Del: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 1 || res.Dirty != 0 {
		t.Fatalf("clean delete did repair work: %+v", res)
	}
	if dyn.Maint() != before {
		t.Fatalf("maintenance ran for a clean delete: %+v", dyn.Maint())
	}
	if d := dyn.Distance(3, 7); d != 2 {
		t.Fatalf("d(3,7) = %d after delete, want 2 (via center)", d)
	}
}

// TestDeleteDisconnects exercises the newly-unreachable path: removing a
// bridge must flip distances to Infinity, in labels and highway alike.
func TestDeleteDisconnects(t *testing.T) {
	g := graph.MustFromEdges(7, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}})
	dyn, err := build(g, []int32{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := dyn.Distance(0, 6); d != 6 {
		t.Fatalf("pre-delete d(0,6) = %d", d)
	}
	if err := dyn.DeleteEdges([][2]int32{{2, 3}}); err != nil {
		t.Fatal(err)
	}
	if d := dyn.Distance(0, 6); d != Infinity {
		t.Fatalf("post-delete d(0,6) = %d, want Infinity", d)
	}
	if h := dyn.cur.Highway(1, 4); h != Infinity {
		t.Fatalf("post-delete δH(1,4) = %d, want Infinity", h)
	}
	if d := dyn.Distance(0, 2); d != 2 {
		t.Fatalf("post-delete d(0,2) = %d, want 2", d)
	}
	// Reconnecting through a different vertex must repair again.
	if err := dyn.InsertEdges([][2]int32{{0, 6}}); err != nil {
		t.Fatal(err)
	}
	if d := dyn.Distance(2, 3); d != 6 {
		t.Fatalf("after reconnect d(2,3) = %d, want 6 (2-1-0-6-5-4-3)", d)
	}
}

// TestDeleteNoOps: absent edges and self-loops are acked no-ops (the
// idempotence WAL replay depends on), and range validation still fires.
func TestDeleteNoOps(t *testing.T) {
	g := gen.Cycle(8)
	dyn, err := build(g, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	before := dyn.NumEntries()
	if err := dyn.DeleteEdges([][2]int32{{3, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := dyn.DeleteEdges([][2]int32{{2, 6}}); err != nil { // never an edge
		t.Fatal(err)
	}
	res, err := dyn.ApplyOps(DeleteOps([][2]int32{{0, 1}, {0, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 1 {
		t.Fatalf("double delete of one edge counted %d", res.Deleted)
	}
	if err := dyn.DeleteEdges([][2]int32{{0, 99}}); err == nil {
		t.Fatal("out-of-range delete accepted")
	}
	if err := dyn.DeleteEdges(nil); err != nil {
		t.Fatal(err)
	}
	if dyn.NumEntries() != before {
		t.Fatalf("entries %d after cycle-edge delete, want %d (every vertex stays labelled)",
			dyn.NumEntries(), before)
	}
	// The surviving path 0-7-6-...-1 must be what queries see.
	if d := dyn.Distance(0, 1); d != 7 {
		t.Fatalf("d(0,1) = %d after deleting the direct edge, want 7", d)
	}
}

// TestRandomizedChurnAgainstRebuildProperty runs randomized mixed
// insert/delete sequences over multiple graph families and checks
// sampled distances against BFS ground truth on the evolved edge set.
func TestRandomizedChurnAgainstRebuildProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		if seed%2 == 0 {
			g = gen.ErdosRenyi(60, 110, seed)
		} else {
			g = gen.WattsStrogatz(60, 2, 0.2, seed)
		}
		k := 1 + rng.Intn(5)
		lm := g.DegreeOrder()[:k]
		dyn, err := build(g, lm)
		if err != nil {
			return false
		}
		m := newMirror(g)
		for round := 0; round < 10; round++ {
			if rng.Intn(2) == 0 && len(m.edges) > 0 {
				e := m.edges[rng.Intn(len(m.edges))]
				if dyn.DeleteEdges([][2]int32{e}) != nil {
					return false
				}
				m.delete(e[0], e[1])
			} else {
				a, b := int32(rng.Intn(60)), int32(rng.Intn(60))
				if dyn.InsertEdges([][2]int32{{a, b}}) != nil {
					return false
				}
				// The mirror's edge list must stay duplicate-free or a
				// later delete would leave a phantom copy behind.
				if a != b && !m.graph().HasEdge(a, b) {
					m.insert(a, b)
				}
			}
		}
		truth := m.graph()
		for trial := 0; trial < 40; trial++ {
			s, u := int32(rng.Intn(60)), int32(rng.Intn(60))
			want := bfs.Dist(truth, s, u)
			if want == bfs.Unreachable {
				want = Infinity
			}
			if dyn.Distance(s, u) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
