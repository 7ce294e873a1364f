package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"highway/internal/bfs"
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

// updated is a labelling taking updates: the Rows and the index its
// ApplyOps last returned.
type updated struct {
	*Index
	rows *Rows
}

// updatable builds g's labelling and wraps it for updates.
func updatable(g *graph.Graph, landmarks []int32) (*updated, error) {
	ix, err := BuildParallel(g, landmarks)
	if err != nil {
		return nil, err
	}
	return &updated{Index: ix, rows: RowsOf(ix)}, nil
}

func (u *updated) ApplyOps(ops []Op) (OpResult, error) {
	next, res, err := u.rows.ApplyOps(ops)
	if err == nil {
		u.Index = next
	}
	return res, err
}

func (u *updated) InsertEdges(edges [][2]int32) error {
	_, err := u.ApplyOps(InsertOps(edges))
	return err
}

func (u *updated) DeleteEdges(edges [][2]int32) error {
	_, err := u.ApplyOps(DeleteOps(edges))
	return err
}

// requireMatchesRebuild compares the updated index label-for-label and
// highway-cell-for-highway-cell against a from-scratch static build on
// the same edge set — the decremental core invariant.
func requireMatchesRebuild(t *testing.T, tag string, dyn *updated, m *mirror, lm []int32) {
	t.Helper()
	ref, err := Build(m.graph(), lm)
	if err != nil {
		t.Fatal(err)
	}
	requireSameLabelling(t, tag, dyn.Index, ref)
}

// requireSameLabelling compares two static indexes over the same landmark
// set: every highway cell and every vertex's label.
func requireSameLabelling(t *testing.T, tag string, got, ref *Index) {
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

// TestDeleteMatchesRebuild is the decremental twin of internal/dynhl's
// TestInsertMatchesRebuild: after any deletion sequence the updated
// index must be identical (labels and highway) to a from-scratch build
// on the surviving edge set — including once deletions disconnect it.
func TestDeleteMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := gen.BarabasiAlbert(150, 2, 3)
	lm := g.DegreeOrder()[:6]
	dyn, err := updatable(g, lm)
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
	dyn, err := updatable(g, lm)
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
	dyn, err := updatable(g, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := dyn.InsertEdges([][2]int32{{3, 7}}); err != nil {
		t.Fatal(err)
	}
	res, err := dyn.ApplyOps([]Op{{A: 3, B: 7, Del: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 1 || res.Dirty != 0 {
		t.Fatalf("clean delete did repair work: %+v", res)
	}
	if d := dyn.Distance(3, 7); d != 2 {
		t.Fatalf("d(3,7) = %d after delete, want 2 (via center)", d)
	}
}

// TestDeleteDisconnects exercises the newly-unreachable path: removing a
// bridge must flip distances to Infinity, in labels and highway alike.
func TestDeleteDisconnects(t *testing.T) {
	g := graph.MustFromEdges(7, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}})
	dyn, err := updatable(g, []int32{1, 4})
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
	if h := dyn.Highway(1, 4); h != Infinity {
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
	dyn, err := updatable(g, []int32{0})
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
		dyn, err := updatable(g, lm)
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

// TestLeafFlipMatchesBuild: on R-MAT-16, whose labelling keeps no label
// for its leaves, an edge joining two leaves of one vertex dirties no
// landmark but makes the two keep their labels again, and deleting it makes
// them leaves again. After each batch the index's file is byte for byte a
// from-scratch build's.
func TestLeafFlipMatchesBuild(t *testing.T) {
	g, _ := graph.LargestComponent(gen.RMAT(16, 8, 0.57, 0.19, 0.19, 3))
	lm := g.DegreeOrder()[:20]
	dyn, err := updatable(g, lm)
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
		ref, err := Build(dyn.Graph(), lm)
		if err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		if err := dyn.Write(&got); err != nil {
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
		dyn, err := updatable(g, lm)
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

// toOps converts the oracle harness's neutral op type to this
// package's. The two structs are deliberately identical; the oracle
// package cannot import core without inverting the dependency order.
func toOps(ops []oracle.EdgeOp) []Op {
	out := make([]Op, len(ops))
	for i, op := range ops {
		out[i] = Op{A: op.A, B: op.B, Del: op.Del}
	}
	return out
}

// churnHooks adapts an updated index to the oracle churn harness.
func churnHooks(dyn *updated) (func(ops []oracle.EdgeOp) error, func() oracle.Oracle) {
	apply := func(ops []oracle.EdgeOp) error {
		_, err := dyn.ApplyOps(toOps(ops))
		return err
	}
	return apply, func() oracle.Oracle { return dyn.Index }
}

// TestChurnOracleDifferential is the acceptance gate for decremental
// maintenance: seeded mixed insert/delete streams against a
// plain-adjacency mirror, with every sampled distance checked against BFS
// ground truth after every batch. The first is 10,000 ops in 1,250 small
// batches, most of which dirty a few landmarks and some all of them; the
// second is fewer, larger, delete-heavier batches on a small-world graph.
// The third is a ring so long that label distances pass 255, the escape of
// the 8-bit label encoding, churned in batches of two ops so that it stays
// in long arcs: at least half of its batches must leave escaped entries.
func TestChurnOracleDifferential(t *testing.T) {
	for _, in := range []struct {
		name string
		g    *graph.Graph
		k    int
		cfg  oracle.ChurnConfig
		// escaped is how many batches must leave a label distance past 255.
		escaped int
	}{
		{"ba300", gen.BarabasiAlbert(300, 2, 7), 12,
			oracle.ChurnConfig{Batches: 1250, BatchSize: 8, DeleteRatio: 0.3, Trials: 24, Seed: 7}, 0},
		{"ws120", gen.WattsStrogatz(120, 3, 0.2, 11), 8,
			oracle.ChurnConfig{Batches: 80, BatchSize: 12, DeleteRatio: 0.4, Trials: 60, Seed: 11}, 0},
		{"ring3000", gen.Cycle(3000), 3,
			oracle.ChurnConfig{Batches: 40, BatchSize: 2, DeleteRatio: 0.3, Trials: 40, Seed: 5}, 20},
	} {
		t.Run(in.name, func(t *testing.T) {
			dyn, err := updatable(in.g, in.g.DegreeOrder()[:in.k])
			if err != nil {
				t.Fatal(err)
			}
			apply, o := churnHooks(dyn)
			escaped := 0
			oracle.CheckChurn(t, in.g, in.cfg, func(ops []oracle.EdgeOp) error {
				err := apply(ops)
				if in.escaped > 0 && hasEscapedEntry(dyn.Index) {
					escaped++
				}
				return err
			}, o)
			if escaped < in.escaped {
				t.Fatalf("only %d of %d batches left a label distance past 255: the case does not test the escape", escaped, in.cfg.Batches)
			}
		})
	}
}

// hasEscapedEntry reports whether some label entry of ix holds a distance
// the 8-bit encoding escapes.
func hasEscapedEntry(ix *Index) bool {
	for v := int32(0); int(v) < ix.Graph().NumVertices(); v++ {
		if _, dists := ix.Label(v); len(dists) > 0 && slices.Max(dists) >= 255 {
			return true
		}
	}
	return false
}
