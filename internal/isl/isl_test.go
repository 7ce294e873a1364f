package isl

import (
	"context"
	"math/rand"
	"testing"

	"highway/internal/bfs"
	"highway/internal/gen"
	"highway/internal/graph"
	"highway/internal/oracle"
)

func build(t *testing.T, g *graph.Graph, opt Options) *Index {
	t.Helper()
	ix, err := Build(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestExactOnSmallGraphs runs IS-L over the shared corner-case suite
// across level counts.
func TestExactOnSmallGraphs(t *testing.T) {
	for _, levels := range []int{1, 2, 6} {
		oracle.CheckCases(t, func(t *testing.T, g *graph.Graph) oracle.Oracle {
			return build(t, g, Options{Levels: levels, FillCap: 32}).NewSearcher()
		})
	}
}

// TestRandomGraphsProperty is the main IS-L correctness property across
// generator families, level counts and fill caps.
func TestRandomGraphsProperty(t *testing.T) {
	oracle.CheckRandom(t, 30, 40, func(seed int64, g *graph.Graph) (oracle.Oracle, error) {
		rng := rand.New(rand.NewSource(seed))
		opt := Options{Levels: 1 + rng.Intn(7), FillCap: 4 + rng.Intn(40)}
		ix, err := Build(context.Background(), g, opt)
		if err != nil {
			return nil, err
		}
		return ix.NewSearcher(), nil
	})
}

func TestHierarchyShrinksGraph(t *testing.T) {
	g := gen.BarabasiAlbert(500, 3, 3)
	ix := build(t, g, DefaultOptions())
	if ix.NumCore() >= g.NumVertices() {
		t.Fatalf("core = %d, no shrinkage on %d vertices", ix.NumCore(), g.NumVertices())
	}
	// Core vertices carry only their self entry; removed vertices carry
	// the self entry plus at least one ancestor (when not isolated).
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		lo, hi := ix.labelOff[v], ix.labelOff[v+1]
		if ix.Level(v) == ix.levels {
			if hi-lo != 1 || ix.labelTo[lo] != v || ix.labelDist[lo] != 0 {
				t.Fatalf("core vertex %d label malformed", v)
			}
		} else {
			selfSeen := false
			for p := lo; p < hi; p++ {
				if p > lo && ix.labelTo[p-1] >= ix.labelTo[p] {
					t.Fatalf("vertex %d label not sorted by target", v)
				}
				to := ix.labelTo[p]
				if to == v {
					selfSeen = true
					if ix.labelDist[p] != 0 {
						t.Fatalf("vertex %d self distance %d", v, ix.labelDist[p])
					}
				} else if ix.Level(to) <= ix.Level(v) {
					t.Fatalf("vertex %d (level %d) labels non-ancestor %d (level %d)",
						v, ix.Level(v), to, ix.Level(to))
				}
			}
			if !selfSeen {
				t.Fatalf("vertex %d lacks self entry", v)
			}
		}
	}
}

// TestLabelDistancesAreUpperBounds: every label entry is ≥ the true
// distance (entries are real path lengths).
func TestLabelDistancesAreUpperBounds(t *testing.T) {
	g := gen.ErdosRenyi(80, 200, 5)
	ix := build(t, g, Options{Levels: 4, FillCap: 16})
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		truth := bfs.Distances(g, v)
		for p := ix.labelOff[v]; p < ix.labelOff[v+1]; p++ {
			to, d := ix.labelTo[p], ix.labelDist[p]
			if truth[to] == bfs.Unreachable || d < truth[to] {
				t.Fatalf("label entry (%d→%d)=%d below true distance %d", v, to, d, truth[to])
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	g := gen.Path(5)
	if _, err := Build(context.Background(), g, Options{Levels: 0}); err == nil {
		t.Error("Levels=0 accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, gen.BarabasiAlbert(300, 3, 1), DefaultOptions()); err == nil {
		t.Error("cancelled context ignored")
	}
}

func TestAccounting(t *testing.T) {
	g := gen.PaperFigure2()
	ix := build(t, g, DefaultOptions())
	if ix.NumEntries() <= 0 {
		t.Fatal("no entries")
	}
	if ix.AvgLabelSize() <= 0 {
		t.Fatal("ALS not positive")
	}
	if ix.SizeBytes() < ix.NumEntries()*5 {
		t.Fatal("SizeBytes below entry accounting")
	}
}

// TestSearcherReuse runs many queries through one searcher checking for
// epoch contamination.
func TestSearcherReuse(t *testing.T) {
	g := gen.BarabasiAlbert(150, 3, 9)
	ix := build(t, g, DefaultOptions())
	sr := ix.NewSearcher()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		s := int32(rng.Intn(150))
		u := int32(rng.Intn(150))
		want := bfs.Dist(g, s, u)
		if got := sr.Distance(s, u); got != want {
			t.Fatalf("query %d: Distance(%d,%d) = %d, want %d", i, s, u, got, want)
		}
	}
}
