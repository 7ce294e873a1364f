package dynhl

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"highway/internal/bfs"
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

// build is how a dynamic index comes to be: a static build over g, made
// mutable.
func build(g *graph.Graph, landmarks []int32) (*Index, error) {
	src, err := core.BuildParallel(g, landmarks)
	if err != nil {
		return nil, err
	}
	return FromCore(src)
}

func TestStaticMatchesCore(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, 5)
	lm := g.DegreeOrder()[:10]
	dyn, err := build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	if dyn.NumEntries() != ref.NumEntries() {
		t.Fatalf("entries: dyn %d vs core %d", dyn.NumEntries(), ref.NumEntries())
	}
	rng := rand.New(rand.NewSource(1))
	sr := ref.NewSearcher()
	for i := 0; i < 500; i++ {
		s, u := int32(rng.Intn(400)), int32(rng.Intn(400))
		if got, want := dyn.Distance(s, u), sr.Distance(s, u); got != want {
			t.Fatalf("Distance(%d,%d) = %d, core says %d", s, u, got, want)
		}
	}
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
		if err := dyn.InsertEdges([][2]int32{{a, b}}); err != nil {
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
		if err := dyn.InsertEdges(batch); err != nil {
			t.Fatal(err)
		}
		oracle.CheckSampled(t, m.graph(), dyn, 60, int64(round))
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
		return dyn
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
		if err := conv.InsertEdges([][2]int32{{a, b}}); err != nil {
			t.Fatal(err)
		}
		m.insert(a, b)
	}
	oracle.CheckSampled(t, m.graph(), conv, 80, 3)
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
	if err := dyn.InsertEdges([][2]int32{e}); err != nil {
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
	if d := dyn.Distance(3, 7); d != 1 {
		t.Fatalf("d(3,7) = %d after the insert, want 1", d)
	}
}

// TestLeafFlipMatchesBuild: on R-MAT-16, whose labelling keeps no label
// for its leaves, an edge joining two leaves of one vertex dirties no
// landmark but makes the two keep their labels again, and deleting it makes
// them leaves again. After each batch the index's file is byte for byte a
// from-scratch build's.
func TestLeafFlipMatchesBuild(t *testing.T) {
	g, _ := graph.LargestComponent(gen.RMAT(16, 8, 0.57, 0.19, 0.19, 3))
	lm := g.DegreeOrder()[:20]
	dyn, err := build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	a, b := int32(-1), int32(-1)
	for u := range int32(g.NumVertices()) {
		var leaves []int32
		for _, v := range g.Neighbors(u) {
			if g.Degree(v) == 1 {
				leaves = append(leaves, v)
			}
		}
		if len(leaves) >= 2 && !slices.Contains(lm, u) {
			a, b = leaves[0], leaves[1]
			break
		}
	}
	if a < 0 {
		t.Fatal("test premise broken: no vertex with two leaves")
	}
	for step, op := range []Op{{A: a, B: b}, {A: a, B: b, Del: true}} {
		res, err := dyn.ApplyOps([]Op{op})
		if err != nil || res.Dirty != 0 || res.Inserted+res.Deleted != 1 {
			t.Fatalf("step %d: %+v, %v; want one edge changed and no landmark dirty", step, res, err)
		}
		ref, err := core.Build(dyn.cur.Graph(), lm)
		if err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		if err := dyn.cur.Write(&got); err != nil {
			t.Fatal(err)
		}
		if err := ref.Write(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("step %d: the index differs from a build on the changed graph", step)
		}
		if d := dyn.Distance(a, b); d != int32(step)+1 {
			t.Fatalf("step %d: d(%d,%d) = %d", step, a, b, d)
		}
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
		if err := dyn.InsertEdges([][2]int32{{a, b}}); err != nil {
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
	if err := dyn.InsertEdges([][2]int32{{0, 99}}); err != nil {
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
	if d := dyn.Distance(0, 6); d != Infinity {
		t.Fatalf("pre-insert d(0,6) = %d", d)
	}
	if h := dyn.cur.Highway(1, 4); h != Infinity {
		t.Fatalf("cross-component highway = %d", h)
	}
	if err := dyn.InsertEdges([][2]int32{{2, 3}}); err != nil {
		t.Fatal(err)
	}
	if d := dyn.Distance(0, 6); d != 6 {
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
	before := dyn.NumEntries()
	if err := dyn.InsertEdges([][2]int32{{3, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := dyn.InsertEdges([][2]int32{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if dyn.NumEntries() != before {
		t.Fatal("no-op insertions changed the labelling")
	}
	if err := dyn.InsertEdges([][2]int32{{0, 99}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := dyn.InsertEdges(nil); err != nil {
		t.Fatal(err)
	}
}

func TestBuildErrors(t *testing.T) {
	g := gen.Path(5)
	if _, err := build(g, nil); err == nil {
		t.Error("no landmarks accepted")
	}
	if _, err := build(g, []int32{0, 0}); err == nil {
		t.Error("duplicate landmark accepted")
	}
	if _, err := build(g, []int32{9}); err == nil {
		t.Error("out-of-range landmark accepted")
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
	if d := dyn.Distance(3, 7); d != 1 {
		t.Fatalf("d(3,7) = %d, want 1", d)
	}
	if d := dyn.Distance(3, 8); d != 2 {
		t.Fatalf("d(3,8) = %d, want 2", d)
	}
}

// TestRandomizedAgainstRebuildProperty runs randomized insertion
// sequences over multiple graph families.
func TestRandomizedAgainstRebuildProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		if seed%2 == 0 {
			g = gen.ErdosRenyi(60, 90, seed)
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
		for round := 0; round < 8; round++ {
			a, b := int32(rng.Intn(60)), int32(rng.Intn(60))
			if dyn.InsertEdges([][2]int32{{a, b}}) != nil {
				return false
			}
			m.insert(a, b)
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
