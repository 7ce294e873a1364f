// Package oracle is a shared differential-testing harness for exact
// distance oracles: it checks any Distance(s,t) int32 implementation
// against plain BFS ground truth on deterministic seeded generator
// graphs. Every index method in this repo (core, pll, fd, isl)
// wires its correctness tests through this package instead of hand-rolled
// BFS comparison loops, so all methods are held to one oracle-backed
// standard and new methods get the full corner-case suite for free.
//
// Conventions: distances are hop counts; disconnected pairs are -1
// (bfs.Unreachable == core.Infinity, so implementations that return
// either constant compare correctly).
package oracle

import (
	"fmt"
	"math/rand"
	"testing"

	"highway/internal/bfs"
	"highway/internal/gen"
	"highway/internal/graph"
	"highway/internal/method"
)

// Oracle is the implementation under test: an exact distance oracle over
// a fixed graph.
type Oracle interface {
	Distance(s, t int32) int32
}

// Func adapts a plain function to Oracle.
type Func func(s, t int32) int32

// Distance implements Oracle.
func (f Func) Distance(s, t int32) int32 { return f(s, t) }

// Case is one named deterministic test graph.
type Case struct {
	Name  string
	Graph *graph.Graph
}

// CornerCases returns the deterministic corner-case suite: degenerate
// shapes (path, cycle, star), structured shapes (grid, complete), the
// paper's running example, and disconnected graphs — the inputs that
// historically break landmark-based oracles (empty labels, Infinity
// highway cells, diameter > 255 escapes elsewhere).
func CornerCases() []Case {
	return []Case{
		{"path10", gen.Path(10)},
		{"cycle9", gen.Cycle(9)},
		{"star12", gen.Star(12)},
		{"grid4x5", gen.Grid(4, 5)},
		{"complete6", gen.Complete(6)},
		{"figure2", gen.PaperFigure2()},
		{"disconnected", graph.MustFromEdges(8, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {5, 6}, {6, 7}})},
		{"isolated", graph.MustFromEdges(5, [][2]int32{{0, 1}, {1, 2}})},
	}
}

// RandomCase returns a seeded random graph drawn from the generator
// families the paper evaluates (Barabási–Albert, Erdős–Rényi, R-MAT,
// Watts–Strogatz). Deterministic per seed.
func RandomCase(seed int64) Case {
	rng := rand.New(rand.NewSource(seed))
	switch rng.Intn(4) {
	case 0:
		return Case{fmt.Sprintf("ba/%d", seed), gen.BarabasiAlbert(60+rng.Intn(80), 1+rng.Intn(3), seed)}
	case 1:
		return Case{fmt.Sprintf("er/%d", seed), gen.ErdosRenyi(50+rng.Intn(60), int64(80+rng.Intn(200)), seed)}
	case 2:
		return Case{fmt.Sprintf("rmat/%d", seed), gen.RMAT(6, 4, 0.57, 0.19, 0.19, seed)}
	default:
		return Case{fmt.Sprintf("ws/%d", seed), gen.WattsStrogatz(50+rng.Intn(60), 2, 0.3, seed)}
	}
}

// AllPairs returns every ordered pair over n vertices.
func AllPairs(n int) [][2]int32 {
	pairs := make([][2]int32, 0, n*n)
	for s := int32(0); int(s) < n; s++ {
		for t := int32(0); int(t) < n; t++ {
			pairs = append(pairs, [2]int32{s, t})
		}
	}
	return pairs
}

// SampledPairs returns `trials` seeded uniform pairs over n vertices.
func SampledPairs(n, trials int, seed int64) [][2]int32 {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]int32, trials)
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	return pairs
}

// Diff compares the oracle against BFS ground truth on the given pairs
// and returns an error describing the first mismatch, or nil. Ground
// truth is computed once per distinct source with a full BFS into one
// reused buffer (the BFS itself draws scratch from the engine pool), so
// checking all pairs of a small graph costs n BFS runs and one distance
// array, not n² runs and n arrays.
func Diff(g *graph.Graph, o Oracle, pairs [][2]int32) error {
	var truth []int32
	truthSrc := int32(-1)
	for _, p := range pairs {
		s, t := p[0], p[1]
		want := int32(0)
		if s != t {
			if truthSrc != s {
				truth = bfs.DistancesReuse(g, s, truth)
				truthSrc = s
			}
			want = truth[t]
		}
		if got := o.Distance(s, t); got != want {
			return fmt.Errorf("oracle: Distance(%d,%d) = %d, BFS says %d", s, t, got, want)
		}
	}
	return nil
}

// CheckAllPairs fails the test unless the oracle matches BFS on every
// ordered pair of g. Intended for small graphs (n² pairs, n BFS runs).
func CheckAllPairs(t testing.TB, g *graph.Graph, o Oracle) {
	t.Helper()
	if err := Diff(g, o, AllPairs(g.NumVertices())); err != nil {
		t.Fatal(err)
	}
}

// CheckSampled fails the test unless the oracle matches BFS on `trials`
// seeded random pairs of g.
func CheckSampled(t testing.TB, g *graph.Graph, o Oracle, trials int, seed int64) {
	t.Helper()
	if g.NumVertices() == 0 {
		return
	}
	if err := Diff(g, o, SampledPairs(g.NumVertices(), trials, seed)); err != nil {
		t.Fatal(err)
	}
}

// CheckCases runs the corner-case suite: build is called once per case
// and the returned oracle is verified on all pairs. Returning a nil
// oracle skips the case (e.g. a method that cannot be configured for that
// graph).
func CheckCases(t *testing.T, build func(t *testing.T, g *graph.Graph) Oracle) {
	t.Helper()
	for _, c := range CornerCases() {
		t.Run(c.Name, func(t *testing.T) {
			o := build(t, c.Graph)
			if o == nil {
				t.Skip("builder declined this case")
			}
			CheckAllPairs(t, c.Graph, o)
		})
	}
}

// DiffIndex checks a DistanceIndex against BFS ground truth on the
// given pairs, through every query surface of the interface contract:
//
//   - Index.Distance and a NewSearcher searcher must both match BFS;
//   - UpperBound (index and searcher forms) must be admissible: never
//     below the true distance, Infinity only when the pair is
//     disconnected (a disconnected pair has no finite bound to report);
//   - Stats must agree with the graph on the vertex count.
//
// This is the method-agnostic differential check every registered
// method is held to (the root package's method tests run it over the
// corner-case suite), so a new method gets the full suite by
// implementing the interface.
func DiffIndex(g *graph.Graph, ix method.DistanceIndex, pairs [][2]int32) error {
	if st := ix.Stats(); st.NumVertices != g.NumVertices() {
		return fmt.Errorf("oracle: Stats().NumVertices = %d, graph has %d", st.NumVertices, g.NumVertices())
	}
	sr := ix.NewSearcher()
	var truth []int32
	truthSrc := int32(-1)
	for _, p := range pairs {
		s, t := p[0], p[1]
		want := int32(0)
		if s != t {
			if truthSrc != s {
				truth = bfs.DistancesReuse(g, s, truth)
				truthSrc = s
			}
			want = truth[t]
		}
		if got := ix.Distance(s, t); got != want {
			return fmt.Errorf("oracle: Distance(%d,%d) = %d, BFS says %d", s, t, got, want)
		}
		if got := sr.Distance(s, t); got != want {
			return fmt.Errorf("oracle: Searcher.Distance(%d,%d) = %d, BFS says %d", s, t, got, want)
		}
		for name, ub := range map[string]int32{
			"UpperBound":          ix.UpperBound(s, t),
			"Searcher.UpperBound": sr.UpperBound(s, t),
		} {
			if want < 0 {
				if ub >= 0 {
					return fmt.Errorf("oracle: %s(%d,%d) = %d for a disconnected pair", name, s, t, ub)
				}
			} else if ub >= 0 && ub < want {
				return fmt.Errorf("oracle: %s(%d,%d) = %d below the true distance %d", name, s, t, ub, want)
			}
		}
	}
	return nil
}

// CheckIndexCases runs the corner-case suite against a DistanceIndex
// builder: build is called once per case and the returned index is
// verified on all pairs with DiffIndex. Returning nil skips the case.
func CheckIndexCases(t *testing.T, build func(t *testing.T, g *graph.Graph) method.DistanceIndex) {
	t.Helper()
	for _, c := range CornerCases() {
		t.Run(c.Name, func(t *testing.T) {
			ix := build(t, c.Graph)
			if ix == nil {
				t.Skip("builder declined this case")
			}
			if err := DiffIndex(c.Graph, ix, AllPairs(c.Graph.NumVertices())); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// CheckRandom property-checks the oracle across `rounds` seeded random
// generator graphs, sampling `trials` pairs per graph. The build callback
// may return an error to fail the round.
func CheckRandom(t *testing.T, rounds, trials int, build func(seed int64, g *graph.Graph) (Oracle, error)) {
	t.Helper()
	for seed := int64(0); seed < int64(rounds); seed++ {
		c := RandomCase(seed)
		o, err := build(seed, c.Graph)
		if err != nil {
			t.Fatalf("%s: build: %v", c.Name, err)
		}
		if o == nil {
			continue
		}
		if err := Diff(c.Graph, o, SampledPairs(c.Graph.NumVertices(), trials, seed)); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
	}
}
