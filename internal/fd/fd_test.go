package fd

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"highway/internal/bfs"
	"highway/internal/gen"
	"highway/internal/graph"
	"highway/internal/oracle"
)

func buildOrFail(t *testing.T, g *graph.Graph, k int) *Index {
	t.Helper()
	lm := g.DegreeOrder()
	if k > len(lm) {
		k = len(lm)
	}
	ix, err := Build(context.Background(), g, lm[:k])
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestExactOnSmallGraphs runs FD over the shared corner-case suite across
// landmark counts.
func TestExactOnSmallGraphs(t *testing.T) {
	for _, k := range []int{1, 3} {
		oracle.CheckCases(t, func(t *testing.T, g *graph.Graph) oracle.Oracle {
			return buildOrFail(t, g, k).NewSearcher()
		})
	}
}

// TestRandomGraphsProperty: FD equals BFS on random graphs of every
// generator family.
func TestRandomGraphsProperty(t *testing.T) {
	oracle.CheckRandom(t, 30, 50, func(seed int64, g *graph.Graph) (oracle.Oracle, error) {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(10)
		if k > g.NumVertices() {
			k = g.NumVertices()
		}
		ix, err := Build(context.Background(), g, g.DegreeOrder()[:k])
		if err != nil {
			return nil, err
		}
		return ix.NewSearcher(), nil
	})
}

func TestUpperBoundIsBound(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 7)
	ix := buildOrFail(t, g, 10)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		s := int32(rng.Intn(300))
		u := int32(rng.Intn(300))
		d := bfs.Dist(g, s, u)
		if ub := ix.UpperBound(s, u); ub < d {
			t.Fatalf("ub(%d,%d) = %d < %d", s, u, ub, d)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	g := gen.Path(5)
	ctx := context.Background()
	if _, err := Build(ctx, g, nil); err == nil {
		t.Error("no landmarks accepted")
	}
	if _, err := Build(ctx, g, []int32{1, 1}); err == nil {
		t.Error("duplicate landmark accepted")
	}
	if _, err := Build(ctx, g, []int32{77}); err == nil {
		t.Error("out-of-range landmark accepted")
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := Build(cctx, gen.BarabasiAlbert(500, 3, 1), []int32{0, 1, 2}); err == nil {
		t.Error("cancelled context ignored")
	}
}

// TestInsertEdge verifies dynamic updates keep the oracle exact: insert
// random edges one by one and cross-check against BFS on a mirrored
// builder graph after every insertion.
func TestInsertEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 120
	g := gen.BarabasiAlbert(n, 2, 4)
	ix := buildOrFail(t, g, 6)

	// Mirror of the evolving graph for ground truth.
	edges := [][2]int32{}
	for u := int32(0); u < int32(n); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				edges = append(edges, [2]int32{u, v})
			}
		}
	}
	for round := 0; round < 15; round++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if err := ix.InsertEdge(u, v); err != nil {
			t.Fatal(err)
		}
		if u != v {
			edges = append(edges, [2]int32{u, v})
		}
		oracle.CheckSampled(t, graph.MustFromEdges(n, edges), ix.NewSearcher(), 40, int64(round))
	}

	// Every pair on the refrozen graph, and again on the file's overlay
	// section read back over the base graph.
	final := graph.MustFromEdges(n, edges)
	if err := oracle.Diff(final, ix.NewSearcher(), oracle.AllPairs(n)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fd.idx")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.Diff(final, back.NewSearcher(), oracle.AllPairs(n)); err != nil {
		t.Fatalf("after Save and Load: %v", err)
	}
	if a, b := written(t, ix), written(t, back); !bytes.Equal(a, b) {
		t.Fatalf("reloaded index writes %d bytes that differ from the %d saved", len(b), len(a))
	}
}

func written(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestInsertEdgeConnectsComponents covers the unreachable→reachable
// transition in the repair logic.
func TestInsertEdgeConnectsComponents(t *testing.T) {
	g := graph.MustFromEdges(6, [][2]int32{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	ix, err := Build(context.Background(), g, []int32{1})
	if err != nil {
		t.Fatal(err)
	}
	sr := ix.NewSearcher()
	if d := sr.Distance(0, 5); d != Infinity {
		t.Fatalf("pre-insert d(0,5) = %d, want Infinity", d)
	}
	if err := ix.InsertEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if d := sr.Distance(0, 5); d != 5 {
		t.Fatalf("post-insert d(0,5) = %d, want 5", d)
	}
	// Landmark row must now reach the far component.
	if d := sr.Distance(1, 5); d != 4 {
		t.Fatalf("post-insert d(1,5) = %d, want 4", d)
	}
}

func TestInsertEdgeNoOps(t *testing.T) {
	g := gen.Cycle(6)
	ix, err := Build(context.Background(), g, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertEdge(2, 2); err != nil {
		t.Fatal("self-loop should be a silent no-op")
	}
	if err := ix.InsertEdge(0, 1); err != nil {
		t.Fatal("existing edge should be a no-op")
	}
	if err := ix.InsertEdge(0, 99); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	// Re-inserting after materialization must also dedupe.
	if err := ix.InsertEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	if got := len(ix.adj[0]); got != 3 {
		t.Fatalf("adj[0] has %d entries, want 3 (2 original + 1 new)", got)
	}

	// A no-op leaves a static index static: its bit-parallel trees stay
	// and the file gains no overlay section.
	bp, err := BuildBP(context.Background(), gen.Path(6), []int32{2})
	if err != nil {
		t.Fatal(err)
	}
	before := written(t, bp)
	for _, e := range [][2]int32{{0, 1}, {1, 0}, {4, 4}} {
		if err := bp.InsertEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if bp.NumBPTrees() != 1 || !bytes.Equal(written(t, bp), before) {
		t.Fatalf("no-op inserts left %d trees and %d bytes, want 1 and %d", bp.NumBPTrees(), len(written(t, bp)), len(before))
	}
}

func TestAccounting(t *testing.T) {
	g := gen.PaperFigure2()
	ix := buildOrFail(t, g, 3)
	if ix.NumLandmarks() != 3 || len(ix.Landmarks()) != 3 {
		t.Fatal("landmark accessors wrong")
	}
	if ix.NumEntries() != 3*11 {
		t.Fatalf("NumEntries = %d, want 33", ix.NumEntries())
	}
	if ix.AvgLabelSize() != 3 {
		t.Fatalf("ALS = %v, want 3", ix.AvgLabelSize())
	}
	if ix.SizeBytes() != 33*5 {
		t.Fatalf("SizeBytes = %d", ix.SizeBytes())
	}
}

// TestBuildBPExactAndCoverage: BP-augmented FD stays exact and its upper
// bound covers at least as many pairs as plain FD.
func TestBuildBPExactAndCoverage(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 15)
	lm := g.DegreeOrder()[:8]
	plain, err := Build(context.Background(), g, lm)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := BuildBP(context.Background(), g, lm)
	if err != nil {
		t.Fatal(err)
	}
	if bp.NumBPTrees() != 8 || plain.NumBPTrees() != 0 {
		t.Fatalf("trees: bp=%d plain=%d", bp.NumBPTrees(), plain.NumBPTrees())
	}
	sr := bp.NewSearcher()
	rng := rand.New(rand.NewSource(4))
	coveredPlain, coveredBP := 0, 0
	for trial := 0; trial < 500; trial++ {
		s := int32(rng.Intn(300))
		u := int32(rng.Intn(300))
		d := bfs.Dist(g, s, u)
		want := d
		if want == bfs.Unreachable {
			want = Infinity
		}
		if got := sr.Distance(s, u); got != want {
			t.Fatalf("BP FD Distance(%d,%d) = %d, want %d", s, u, got, want)
		}
		ubBP := bp.UpperBound(s, u)
		ubPlain := plain.UpperBound(s, u)
		if d >= 0 && ubBP >= 0 && ubBP < d {
			t.Fatalf("BP bound %d below true %d", ubBP, d)
		}
		if ubBP > ubPlain && ubPlain >= 0 {
			t.Fatalf("BP bound %d worse than plain %d", ubBP, ubPlain)
		}
		if d >= 0 {
			if ubPlain == d {
				coveredPlain++
			}
			if ubBP == d {
				coveredBP++
			}
		}
	}
	if coveredBP < coveredPlain {
		t.Fatalf("BP coverage %d below plain %d", coveredBP, coveredPlain)
	}
	if coveredBP == coveredPlain {
		t.Logf("warning: BP added no coverage on this graph (plain=%d)", coveredPlain)
	}
}

// TestBPDroppedOnInsert: dynamic updates invalidate BP bounds, so they
// must be discarded and queries stay exact.
func TestBPDroppedOnInsert(t *testing.T) {
	g := gen.Cycle(12)
	ix, err := BuildBP(context.Background(), g, []int32{0, 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertEdge(2, 9); err != nil {
		t.Fatal(err)
	}
	if ix.NumBPTrees() != 0 {
		t.Fatal("BP trees survived mutation")
	}
	if d := ix.NewSearcher().Distance(2, 9); d != 1 {
		t.Fatalf("d(2,9) = %d, want 1", d)
	}
	if d := ix.NewSearcher().Distance(1, 10); d != 3 {
		t.Fatalf("d(1,10) = %d, want 3 (1-2-9-10)", d)
	}
}
