package fd

import (
	"context"
	"math/rand"
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
