package dynhl

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"highway/internal/core"
	"highway/internal/gen"
	"highway/internal/graph"
	"highway/internal/oracle"
)

// mirror maintains the evolving edge list for ground truth.
type mirror struct {
	n     int
	edges [][2]int32
}

func newMirror(g *graph.Graph) *mirror {
	m := &mirror{n: g.NumVertices()}
	for u := int32(0); u < int32(g.NumVertices()); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				m.edges = append(m.edges, [2]int32{u, v})
			}
		}
	}
	return m
}

func (m *mirror) insert(a, b int32) {
	if a != b {
		m.edges = append(m.edges, [2]int32{a, b})
	}
}

func (m *mirror) delete(a, b int32) {
	for i, e := range m.edges {
		if (e[0] == a && e[1] == b) || (e[0] == b && e[1] == a) {
			m.edges = append(m.edges[:i], m.edges[i+1:]...)
			return
		}
	}
}

func (m *mirror) graph() *graph.Graph { return graph.MustFromEdges(m.n, m.edges) }

// insert applies a batch of insertions to ix.
func insert(ix *Index, edges [][2]int32) error {
	_, err := ix.ApplyOps(InsertOps(edges))
	return err
}

// build is how an Index comes to be: a static build over g, made to take
// updates.
func build(g *graph.Graph, landmarks []int32) (*Index, error) {
	src, err := core.BuildParallel(g, landmarks)
	if err != nil {
		return nil, err
	}
	return FromCore(src)
}

// TestInsertMatchesRebuild is the core invariant: after any insertion
// sequence, the dynamic index is identical (labels and highway) to a
// from-scratch build on the final graph.
func TestInsertMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := gen.BarabasiAlbert(150, 2, 3)
	lm := g.DegreeOrder()[:6]
	dyn, err := build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	m := newMirror(g)
	for round := 0; round < 25; round++ {
		a, b := int32(rng.Intn(150)), int32(rng.Intn(150))
		if err := insert(dyn, [][2]int32{{a, b}}); err != nil {
			t.Fatal(err)
		}
		m.insert(a, b)
		ref, err := core.Build(m.graph(), lm)
		if err != nil {
			t.Fatal(err)
		}
		requireSameLabelling(t, "round", dyn.cur, ref)
	}
}

// TestInsertQueriesExact checks distances against BFS on the evolving
// graph after every batch, through the shared differential harness.
func TestInsertQueriesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := gen.ErdosRenyi(120, 200, 2)
	lm := g.DegreeOrder()[:5]
	dyn, err := build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	m := newMirror(g)
	for round := 0; round < 10; round++ {
		batch := make([][2]int32, 5)
		for i := range batch {
			batch[i] = [2]int32{int32(rng.Intn(120)), int32(rng.Intn(120))}
			m.insert(batch[i][0], batch[i][1])
		}
		if err := insert(dyn, batch); err != nil {
			t.Fatal(err)
		}
		oracle.CheckSampled(t, m.graph(), dyn.cur, 60, int64(round))
	}
}

// TestCornerCaseGraphs runs the dynamic index over the shared corner-case
// suite (no insertions: the static labelling must already be exact).
func TestCornerCaseGraphs(t *testing.T) {
	oracle.CheckCases(t, func(t *testing.T, g *graph.Graph) oracle.Oracle {
		k := 2
		if k > g.NumVertices() {
			k = g.NumVertices()
		}
		dyn, err := build(g, g.DegreeOrder()[:k])
		if err != nil {
			t.Fatal(err)
		}
		return dyn.cur
	})
}

// TestFromCoreMatchesBuild: converting a static index must yield exactly
// the state a direct dynamic build produces, and insertions afterwards
// must keep matching from-scratch rebuilds.
func TestFromCoreMatchesBuild(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 19)
	lm := g.DegreeOrder()[:8]
	static, err := core.Build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := FromCore(static)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	requireSameLabelling(t, "converted vs direct", conv.cur, direct.cur)
	// The conversion shares the source: inserting through the dynamic
	// index must not disturb it, and must match a rebuild.
	m := newMirror(g)
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 6; round++ {
		a, b := int32(rng.Intn(200)), int32(rng.Intn(200))
		if err := insert(conv, [][2]int32{{a, b}}); err != nil {
			t.Fatal(err)
		}
		m.insert(a, b)
	}
	oracle.CheckSampled(t, m.graph(), conv.cur, 80, 3)
	if err := static.Verify(100, 4); err != nil {
		t.Fatalf("source index corrupted by dynamic insertions: %v", err)
	}
}

// TestFromCoreSharesGraph: FromCore copies nothing. Before any write,
// Freeze hands out the source index and its own graph, and on BA-20k the
// conversion allocates under 1 KiB. A write patches a new graph and leaves
// the source's as it was.
func TestFromCoreSharesGraph(t *testing.T) {
	g := gen.BarabasiAlbert(20_000, 5, 42)
	src, err := core.Build(g, g.DegreeOrder()[:16])
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dyn, _ := FromCore(src)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<10 {
		t.Fatalf("FromCore allocated %d bytes on BA-20k, want under 1 KiB", got)
	}
	if fg, fix, _ := dyn.Freeze(); fg != src.Graph() || fix != src {
		t.Fatal("before any write, Freeze does not return the source index and its graph")
	}
	e := [2]int32{0, 1}
	for g.HasEdge(e[0], e[1]) {
		e[1]++
	}
	if err := insert(dyn, [][2]int32{e}); err != nil {
		t.Fatal(err)
	}
	if fg, _, _ := dyn.Freeze(); fg == g || !fg.HasEdge(e[0], e[1]) || g.HasEdge(e[0], e[1]) {
		t.Fatalf("after inserting %v: the frozen graph is the source's, lacks the edge, or the source gained it", e)
	}
}

// TestFromCoreSharesLabels: the label state is the source index itself, so
// FromCore and a batch that changes an edge but no landmark's BFS — an edge
// between two leaves of a star centred on the landmark — leave the dynamic
// index on the source's own label arrays: the two together allocate the
// patched graph and less than one copy of the labels.
func TestFromCoreSharesLabels(t *testing.T) {
	const n = 20_000
	src, err := core.Build(gen.Star(n), []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dyn, _ := FromCore(src)
	res, err := dyn.ApplyOps([]Op{{A: 3, B: 7}})
	runtime.ReadMemStats(&after)
	if err != nil || res.Inserted != 1 || res.Dirty != 0 {
		t.Fatalf("leaf-to-leaf insert: %+v, %v", res, err)
	}
	// The patched CSR is 16 B a vertex here; the offsets, ranks and
	// distances of the labelling would be 4 B more, which the bound leaves
	// no room for. (That the arrays are the very same ones is core's
	// TestRowsNothingDirty.)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(n*19); got > limit {
		t.Fatalf("FromCore and a no-dirty batch allocated %d bytes, more than the patched graph's %d", got, limit)
	}
	if d := dyn.cur.Distance(3, 7); d != 1 {
		t.Fatalf("d(3,7) = %d after the insert, want 1", d)
	}
}

// TestFreezeSnapshot: freezing after insertions yields an immutable
// core.Index identical to a from-scratch static build on the evolved
// graph, and later insertions leave the snapshot untouched.
func TestFreezeSnapshot(t *testing.T) {
	g := gen.ErdosRenyi(100, 160, 8)
	lm := g.DegreeOrder()[:6]
	dyn, err := build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	m := newMirror(g)
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 10; round++ {
		a, b := int32(rng.Intn(100)), int32(rng.Intn(100))
		if err := insert(dyn, [][2]int32{{a, b}}); err != nil {
			t.Fatal(err)
		}
		m.insert(a, b)
	}
	fg, frozen, err := dyn.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	truth := m.graph()
	if fg.NumEdges() != truth.NumEdges() || fg.NumVertices() != truth.NumVertices() {
		t.Fatalf("frozen graph n=%d m=%d, want n=%d m=%d",
			fg.NumVertices(), fg.NumEdges(), truth.NumVertices(), truth.NumEdges())
	}
	ref, err := core.Build(truth, lm)
	if err != nil {
		t.Fatal(err)
	}
	if frozen.NumEntries() != ref.NumEntries() {
		t.Fatalf("frozen entries %d, rebuild says %d", frozen.NumEntries(), ref.NumEntries())
	}
	oracle.CheckSampled(t, truth, frozen.NewSearcher(), 150, 6)
	// Mutating on must not leak into the snapshot.
	if err := insert(dyn, [][2]int32{{0, 99}}); err != nil {
		t.Fatal(err)
	}
	if err := frozen.Verify(100, 7); err != nil {
		t.Fatalf("snapshot changed by post-freeze insertion: %v", err)
	}
}

// TestInsertConnectsComponents exercises the newly-reachable path.
func TestInsertConnectsComponents(t *testing.T) {
	g := graph.MustFromEdges(7, [][2]int32{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 6}})
	dyn, err := build(g, []int32{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := dyn.cur.Distance(0, 6); d != core.Infinity {
		t.Fatalf("pre-insert d(0,6) = %d", d)
	}
	if h := dyn.cur.Highway(1, 4); h != core.Infinity {
		t.Fatalf("cross-component highway = %d", h)
	}
	if err := insert(dyn, [][2]int32{{2, 3}}); err != nil {
		t.Fatal(err)
	}
	if d := dyn.cur.Distance(0, 6); d != 6 {
		t.Fatalf("post-insert d(0,6) = %d, want 6", d)
	}
	if h := dyn.cur.Highway(1, 4); h != 3 {
		t.Fatalf("post-insert δH = %d, want 3 (1-2-3-4)", h)
	}
}

func TestInsertNoOps(t *testing.T) {
	g := gen.Cycle(8)
	dyn, err := build(g, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	before := dyn.cur.NumEntries()
	if err := insert(dyn, [][2]int32{{3, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := insert(dyn, [][2]int32{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if dyn.cur.NumEntries() != before {
		t.Fatal("no-op insertions changed the labelling")
	}
	if err := insert(dyn, [][2]int32{{0, 99}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := insert(dyn, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDirtyDetectionSkipsCleanLandmarks verifies the |da-db| = 0 skip: an
// edge between two vertices equidistant from the landmark must not change
// its label row.
func TestDirtyDetectionSkipsCleanLandmarks(t *testing.T) {
	// Star with center 0: all leaves at distance 1 from landmark 0.
	g := gen.Star(10)
	dyn, err := build(g, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	before := dyn.Maint()
	// Leaf-leaf edge: both endpoints at distance 1 → landmark clean.
	res, err := dyn.ApplyOps([]Op{{A: 3, B: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 1 || res.Dirty != 0 || dyn.Maint() != before {
		t.Fatalf("clean landmark was rebuilt: %+v, %+v", res, dyn.Maint())
	}
	// Distances still exact.
	if d := dyn.cur.Distance(3, 7); d != 1 {
		t.Fatalf("d(3,7) = %d, want 1", d)
	}
	if d := dyn.cur.Distance(3, 8); d != 2 {
		t.Fatalf("d(3,8) = %d, want 2", d)
	}
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
