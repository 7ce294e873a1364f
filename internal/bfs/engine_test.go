// Differential tests of the direction-optimizing engine: every traversal
// direction must agree with the naive top-down reference on the oracle
// harness's corner-case and seeded-random graph families. The tests live
// in package bfs_test so they can use internal/oracle (which itself
// imports bfs for ground truth).
package bfs_test

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"highway/internal/bfs"
	"highway/internal/gen"
	"highway/internal/graph"
	"highway/internal/oracle"
)

// checkDistancesAgree runs a full BFS from every vertex in all three
// directions and fails on the first disagreement with the top-down
// reference.
func checkDistancesAgree(t testing.TB, name string, g *graph.Graph) {
	t.Helper()
	n := g.NumVertices()
	want := make([]int32, n)
	got := make([]int32, n)
	for s := int32(0); int(s) < n; s++ {
		fill(want)
		wantReached := bfs.DistancesIntoDir(g, s, want, bfs.DirectionTopDown, nil)
		for _, dc := range []struct {
			dn  string
			dir bfs.Direction
		}{{"auto", bfs.DirectionAuto}, {"bottomup", bfs.DirectionBottomUp}} {
			fill(got)
			reached := bfs.DistancesIntoDir(g, s, got, dc.dir, nil)
			if reached != wantReached {
				t.Fatalf("%s: src %d: %s reached %d vertices, top-down %d", name, s, dc.dn, reached, wantReached)
			}
			for v := 0; v < n; v++ {
				if got[v] != want[v] {
					t.Fatalf("%s: src %d: %s dist[%d] = %d, top-down says %d", name, s, dc.dn, v, got[v], want[v])
				}
			}
		}
	}
}

func fill(dist []int32) {
	for i := range dist {
		dist[i] = bfs.Unreachable
	}
}

// TestDirectionsAgreeCornerCases cross-checks the engine on the oracle
// harness's corner-case suite (paths, cycles, stars, grids, complete,
// the paper's running example, disconnected graphs).
func TestDirectionsAgreeCornerCases(t *testing.T) {
	for _, c := range oracle.CornerCases() {
		t.Run(c.Name, func(t *testing.T) {
			checkDistancesAgree(t, c.Name, c.Graph)
		})
	}
}

// TestDirectionsAgreeRandom cross-checks the engine on the seeded random
// generator families of the oracle harness.
func TestDirectionsAgreeRandom(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		c := oracle.RandomCase(seed)
		t.Run(c.Name, func(t *testing.T) {
			checkDistancesAgree(t, c.Name, c.Graph)
		})
	}
}

// TestAutoTriggersBottomUp pins which way the α/β heuristics send the
// levels of an ordinary (unforced) search, so both arms provably run
// without any knob: a path is pushed until its last few levels, a star
// from its centre is pulled from the start, and a skewed-degree graph from
// its hub is pushed, pulled through the heavy middle and pushed again.
// (Agreement with top-down is covered above; here we check the stats.)
func TestAutoTriggersBottomUp(t *testing.T) {
	ba := gen.BarabasiAlbert(2000, 4, 1)
	_, hub := ba.MaxDegree()
	for _, c := range []struct {
		name           string
		g              *graph.Graph
		src            int32
		pushed, pulled int64
	}{
		{"path300", gen.Path(300), 0, 297, 3},
		{"star200", gen.Star(200), 0, 0, 2},
		{"ba2000", ba, hub, 3, 2},
	} {
		var stats bfs.TraversalStats
		dist := make([]int32, c.g.NumVertices())
		fill(dist)
		bfs.DistancesIntoDir(c.g, c.src, dist, bfs.DirectionAuto, &stats)
		if stats.TopDownLevels != c.pushed || stats.BottomUpLevels != c.pulled {
			t.Errorf("%s: %d levels pushed and %d pulled, want %d and %d (%+v)", c.name,
				stats.TopDownLevels, stats.BottomUpLevels, c.pushed, c.pulled, stats)
		}
		if stats.EdgesScanned() == 0 || stats.Levels() == 0 {
			t.Errorf("%s: stats not collected: %+v", c.name, stats)
		}
	}
}

// TestDistancesReuse verifies the no-prefill entry point grows and
// reuses its buffer and matches Distances.
func TestDistancesReuse(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 1)
	var buf []int32
	for _, s := range []int32{0, 5, 199} {
		buf = bfs.DistancesReuse(g, s, buf)
		want := bfs.Distances(g, s)
		for v := range want {
			if buf[v] != want[v] {
				t.Fatalf("src %d: reuse dist[%d] = %d, want %d", s, v, buf[v], want[v])
			}
		}
	}
}

// TestDistancesReuseSmallerGraph verifies a buffer from a larger graph
// is truncated, not misread.
func TestDistancesReuseSmallerGraph(t *testing.T) {
	big := gen.Path(50)
	small := gen.Path(5)
	buf := bfs.DistancesReuse(big, 0, nil)
	buf = bfs.DistancesReuse(small, 0, buf)
	if len(buf) != 5 {
		t.Fatalf("len = %d, want 5", len(buf))
	}
	for v := int32(0); v < 5; v++ {
		if buf[v] != v {
			t.Fatalf("dist[%d] = %d, want %d", v, buf[v], v)
		}
	}
}

// graphFromFuzzBytes decodes fuzz input into a small graph: the first
// byte picks n in [2, 65], every following pair of bytes is an edge
// {a%n, b%n}. Self-loops and duplicates are dropped by the builder.
func graphFromFuzzBytes(data []byte) *graph.Graph {
	if len(data) < 1 {
		return nil
	}
	n := int(data[0])%64 + 2
	b := graph.NewBuilder(n)
	rest := data[1:]
	for i := 0; i+1 < len(rest); i += 2 {
		a := int32(int(rest[i]) % n)
		c := int32(int(rest[i+1]) % n)
		if a != c {
			b.AddEdge(a, c)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil
	}
	return g
}

// FuzzDirectionOptimizedBFS asserts that every traversal direction
// produces identical distance arrays, and that BiBFS agrees with them,
// on arbitrary fuzzer-built graphs; and that Depths, on the same scratch
// as BiBFS, gives the distances on G[V\skip] within its limit for a skip
// mask and limit drawn from the input.
func FuzzDirectionOptimizedBFS(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3})
	f.Add([]byte{63, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 1})
	f.Add([]byte{2})
	for seed := int64(0); seed < 4; seed++ {
		c := oracle.RandomCase(seed)
		var data []byte
		n := c.Graph.NumVertices()
		if n >= 2 && n <= 65 {
			data = append(data, byte(n-2))
		} else {
			data = append(data, 30)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graphFromFuzzBytes(data)
		if g == nil || g.NumVertices() == 0 {
			return
		}
		n := g.NumVertices()
		want := make([]int32, n)
		got := make([]int32, n)
		srcs := []int32{0, int32(n / 2), int32(n - 1)}
		sc := bfs.NewScratch(n)
		rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(data))))
		skip := make([]bool, n)
		for v := range skip {
			skip[v] = rng.Intn(4) == 0
		}
		sub, id := sparsified(t, g, skip)
		for _, s := range srcs {
			if !skip[s] {
				checkDepths(t, g, skip, sub, id, s, int32(rng.Intn(n+1)), sc)
			}
			fill(want)
			bfs.DistancesIntoDir(g, s, want, bfs.DirectionTopDown, nil)
			for _, u := range srcs {
				if got := bfs.BiBFS(g, s, u, sc); got != want[u] {
					t.Fatalf("BiBFS(%d,%d) = %d, BFS says %d\ngraph: %v", s, u, got, want[u], fmt.Sprint(g))
				}
			}
			for _, dir := range []bfs.Direction{bfs.DirectionAuto, bfs.DirectionBottomUp} {
				fill(got)
				bfs.DistancesIntoDir(g, s, got, dir, nil)
				for v := 0; v < n; v++ {
					if got[v] != want[v] {
						t.Fatalf("dir %d src %d: dist[%d] = %d, want %d\ngraph: %v", dir, s, v, got[v], want[v], fmt.Sprint(g))
					}
				}
			}
		}
	})
}
