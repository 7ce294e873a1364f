package dynhl

import (
	"bytes"
	"slices"
	"testing"

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
	return apply, func() oracle.Oracle { return dyn }
}

// TestChurnOracleDifferential is the acceptance gate for decremental
// maintenance: 10,000 seeded mixed insert/delete ops in 1,250 batches
// against a plain-adjacency mirror, with every sampled distance checked
// against BFS ground truth after every batch. Batches are small enough
// that most are absorbed by selective repair while the occasional
// wide-blast-radius batch crosses the RepairFraction threshold, so both
// maintenance paths run under one differential.
func TestChurnOracleDifferential(t *testing.T) {
	g := gen.BarabasiAlbert(300, 2, 7)
	dyn, err := Build(g, g.DegreeOrder()[:12])
	if err != nil {
		t.Fatal(err)
	}
	apply, o := churnHooks(dyn)
	oracle.CheckChurn(t, g, oracle.ChurnConfig{
		Batches:     1250,
		BatchSize:   8,
		DeleteRatio: 0.3,
		Trials:      24,
		Seed:        7,
	}, apply, o)
	if m := dyn.Maint(); m.SelectiveRepairs == 0 || m.FullRebuilds == 0 {
		t.Fatalf("churn exercised only one maintenance path: %+v", m)
	}
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
			dyn, err := Build(g, g.DegreeOrder()[:k])
			if err != nil {
				t.Fatal(err)
			}
			return churnHooks(dyn)
		})
}

// TestChurnRepairOnlyDifferential re-runs a smaller churn with the
// full-rebuild fallback disabled, so every batch must be absorbed by
// selective landmark repair alone — isolating the repair path from the
// rebuild safety net that could otherwise mask its bugs.
func TestChurnRepairOnlyDifferential(t *testing.T) {
	g := gen.WattsStrogatz(120, 3, 0.2, 11)
	dyn, err := Build(g, g.DegreeOrder()[:8])
	if err != nil {
		t.Fatal(err)
	}
	dyn.SetRepairFraction(-1) // never fall back to a full rebuild
	apply, o := churnHooks(dyn)
	oracle.CheckChurn(t, g, oracle.ChurnConfig{
		Batches:     80,
		BatchSize:   12,
		DeleteRatio: 0.4,
		Trials:      60,
		Seed:        11,
	}, apply, o)
	if m := dyn.Maint(); m.FullRebuilds != 0 {
		t.Fatalf("disabled fallback still rebuilt: %+v", m)
	}
}

// churn applies ops steps of the product's own seeded op stream (30 %
// deletions) to dyn in batches of 8 and returns the edge set it leaves.
func churn(t testing.TB, dyn *Index, ops int, seed int64) [][2]int32 {
	t.Helper()
	st := workload.NewOpStream(dyn.n, 0.3, 0, seed)
	for done := 0; done < ops; done += 8 {
		batch := make([]Op, 8)
		for i := range batch {
			op := st.Next()
			batch[i] = Op{A: op.A, B: op.B, Del: op.Del}
		}
		if _, err := dyn.ApplyOps(batch); err != nil {
			t.Fatal(err)
		}
	}
	var edges [][2]int32
	for u := int32(0); int(u) < dyn.n; u++ {
		for _, v := range dyn.Neighbors(u) {
			if u < v {
				edges = append(edges, [2]int32{u, v})
			}
		}
	}
	return edges
}

// TestFreezeGraphMatchesFromEdges: after 1,000 churn ops the frozen graph
// is byte for byte the graph a Builder makes from the surviving edge set —
// Freeze's row-copying construction and the edge-list one agree on rows
// that insertions and deletions have left in arrival order.
func TestFreezeGraphMatchesFromEdges(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 3, 11)
	dyn, err := Build(g, g.DegreeOrder()[:8])
	if err != nil {
		t.Fatal(err)
	}
	edges := churn(t, dyn, 1000, 11)
	frozen, _, err := dyn.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := frozen.WriteBinary(&got); err != nil {
		t.Fatal(err)
	}
	if err := graph.MustFromEdges(dyn.n, edges).WriteBinary(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("frozen %v differs from the edge-list build of its own %d edges", frozen, len(edges))
	}
	unsorted := 0
	for v := int32(0); int(v) < dyn.n; v++ {
		if !slices.IsSorted(dyn.Neighbors(v)) {
			unsorted++
		}
	}
	if unsorted == 0 {
		t.Fatal("the churn stream left every mutable row sorted: the row-local sort never ran")
	}
}
