package dynhl

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"highway/internal/bfs"
	"highway/internal/core"
	"highway/internal/gen"
	"highway/internal/graph"
	"highway/internal/oracle"
	"highway/internal/workload"
)

// toOps converts the oracle harness's neutral op type to this
// package's. The two structs are deliberately identical; the oracle
// package cannot import dynhl without inverting the dependency order.
func toOps(ops []oracle.EdgeOp) []Op {
	out := make([]Op, len(ops))
	for i, op := range ops {
		out[i] = Op{A: op.A, B: op.B, Del: op.Del}
	}
	return out
}

// churnHooks adapts a dynamic index to the oracle churn harness.
func churnHooks(dyn *Index) (func(ops []oracle.EdgeOp) error, func() oracle.Oracle) {
	apply := func(ops []oracle.EdgeOp) error {
		_, err := dyn.ApplyOps(toOps(ops))
		return err
	}
	return apply, func() oracle.Oracle { return dyn.cur }
}

// TestChurnCornerCases churns every corner-case family. Degenerate
// starting shapes (path, star, disconnected) hit the states random
// graphs rarely visit: deleting a bridge edge, re-inserting it, and
// landmarks whose component empties out entirely.
func TestChurnCornerCases(t *testing.T) {
	oracle.CheckChurnCases(t, oracle.ChurnConfig{Seed: 3},
		func(t *testing.T, g *graph.Graph) (func(ops []oracle.EdgeOp) error, func() oracle.Oracle) {
			k := g.NumVertices()
			if k > 4 {
				k = 4
			}
			dyn, err := build(g, g.DegreeOrder()[:k])
			if err != nil {
				t.Fatal(err)
			}
			return churnHooks(dyn)
		})
}

// applyNext applies the next 8 ops of the product's own op stream to dyn
// as one batch.
func applyNext(t testing.TB, dyn *Index, st *workload.OpStream) {
	t.Helper()
	batch := make([]Op, 8)
	for i := range batch {
		op := st.Next()
		batch[i] = Op{A: op.A, B: op.B, Del: op.Del}
	}
	if _, err := dyn.ApplyOps(batch); err != nil {
		t.Fatal(err)
	}
}

// TestFreezeGraphMatchesFromEdges: after 1,000 churn ops of the product's
// own seeded op stream (30 % deletions, batches of 8) the frozen graph is
// byte for byte the graph a Builder makes from the edge set a mirror of
// the same ops leaves — a chain of 125 patches and the edge-list
// construction agree.
func TestFreezeGraphMatchesFromEdges(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 3, 11)
	dyn, err := build(g, g.DegreeOrder()[:8])
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[[2]int32]bool)
	for u := int32(0); int(u) < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(u) {
			live[[2]int32{u, v}] = true
		}
	}
	st := workload.NewOpStream(g.NumVertices(), 0.3, 0, 11)
	for done := 0; done < 1000; done += 8 {
		batch := make([]Op, 8)
		for i := range batch {
			op := st.Next()
			batch[i] = Op{A: op.A, B: op.B, Del: op.Del}
			if op.A != op.B {
				live[[2]int32{op.A, op.B}], live[[2]int32{op.B, op.A}] = !op.Del, !op.Del
			}
		}
		if _, err := dyn.ApplyOps(batch); err != nil {
			t.Fatal(err)
		}
	}
	var edges [][2]int32
	for e, present := range live {
		if present && e[0] < e[1] {
			edges = append(edges, e)
		}
	}
	frozen, _, err := dyn.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := frozen.WriteBinary(&got); err != nil {
		t.Fatal(err)
	}
	if err := graph.MustFromEdges(g.NumVertices(), edges).WriteBinary(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("frozen %v differs from the edge-list build of the mirror's %d edges", frozen, len(edges))
	}
}

// indexBytes is the v2 serialization of a snapshot.
func indexBytes(t testing.TB, ix *core.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.WriteFormat(&buf, core.FormatV2); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConcurrentReadersBetweenBatches: queries run on the immutable
// current index, so between two batches any number of goroutines may
// query the dynamic index at once — through the pooled Index.Distance, a
// searcher of their own, or a snapshot taken earlier — and a snapshot taken
// earlier may be queried while the next batch is applied: core merges its
// entries of the clean ranks into the next index and writes none of its
// arrays. Odd rounds apply a single op, which dirties a strict subset of
// the landmarks. Run under -race.
func TestConcurrentReadersBetweenBatches(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, 5)
	dyn, err := build(g, g.DegreeOrder()[:8])
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	st := workload.NewOpStream(n, 0.3, 0, 5)
	for round := 0; round < 20; round++ {
		_, old, _ := dyn.Freeze()
		oldGraph, oldBytes := old.Graph(), indexBytes(t, old)
		var during sync.WaitGroup
		during.Add(1)
		go func() {
			defer during.Done()
			rng := rand.New(rand.NewSource(int64(round)))
			for i := 0; i < 50; i++ {
				s, u := int32(rng.Intn(n)), int32(rng.Intn(n))
				if got, want := old.Distance(s, u), bfs.Dist(oldGraph, s, u); got != want {
					t.Errorf("round %d, during the batch: snapshot d(%d,%d) = %d, BFS on its graph says %d", round, s, u, got, want)
				}
			}
		}()
		if round%2 == 1 {
			op := st.Next()
			if _, err := dyn.ApplyOps([]Op{{A: op.A, B: op.B, Del: op.Del}}); err != nil {
				t.Fatal(err)
			}
		} else {
			applyNext(t, dyn, st)
		}
		during.Wait()
		if !bytes.Equal(indexBytes(t, old), oldBytes) {
			t.Fatalf("round %d: the batch wrote into a snapshot handed out before it", round)
		}
		truth, _, _ := dyn.Freeze()
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*4 + w)))
				sr := dyn.cur.NewSearcher()
				for i := 0; i < 50; i++ {
					s, u := int32(rng.Intn(n)), int32(rng.Intn(n))
					want := bfs.Dist(truth, s, u)
					if got := sr.Distance(s, u); got != want {
						t.Errorf("round %d: searcher d(%d,%d) = %d, BFS says %d", round, s, u, got, want)
					}
					if got := dyn.cur.Distance(s, u); got != want {
						t.Errorf("round %d: pooled d(%d,%d) = %d, BFS says %d", round, s, u, got, want)
					}
					if got, want := old.Distance(s, u), bfs.Dist(oldGraph, s, u); got != want {
						t.Errorf("round %d: previous snapshot d(%d,%d) = %d, BFS on its graph says %d", round, s, u, got, want)
					}
				}
			}()
		}
		wg.Wait()
	}
	if dyn.Maint().SelectiveRepairs == 0 {
		t.Fatal("no batch dirtied a strict subset of the landmarks: the merge with the previous index never ran")
	}
}
