package highway_test

import (
	"math/rand"
	"testing"

	"highway"
	"highway/internal/oracle"
)

// batchTestGraph is a BA graph with a disconnected tail grafted on: a
// small path component and an isolated vertex, so batches include
// Infinity answers alongside regular ones.
func batchTestGraph(t *testing.T) *highway.Graph {
	t.Helper()
	base := highway.BarabasiAlbert(160, 3, 7)
	var edges [][2]int32
	for u := int32(0); u < 160; u++ {
		for _, v := range base.Neighbors(u) {
			if u < v {
				edges = append(edges, [2]int32{u, v})
			}
		}
	}
	edges = append(edges, [2]int32{160, 161}, [2]int32{161, 162}) // path component
	g, err := highway.FromEdges(164, edges)                       // vertex 163 isolated
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// batchTestPairs draws the adversarial batch shape the executor must
// get right: repeated sources, duplicate pairs, s==t, pairs touching
// the disconnected tail, and a uniform remainder.
func batchTestPairs(n int, seed int64) [][2]int32 {
	rng := rand.New(rand.NewSource(seed))
	var pairs [][2]int32
	sources := []int32{3, 3, 7, int32(rng.Intn(n))} // repeated sources
	for i := 0; i < 600; i++ {
		pairs = append(pairs, [2]int32{sources[i%len(sources)], int32(rng.Intn(n))})
	}
	for i := 0; i < 30; i++ {
		v := int32(rng.Intn(n))
		pairs = append(pairs, [2]int32{v, v})                          // s == t
		pairs = append(pairs, pairs[rng.Intn(len(pairs))])             // duplicates
		pairs = append(pairs, [2]int32{int32(n - 1 - rng.Intn(4)), v}) // tail sources
		pairs = append(pairs, [2]int32{v, int32(n - 1 - rng.Intn(4))}) // tail targets
		pairs = append(pairs, [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))})
	}
	return pairs
}

// TestMethodBatchDifferential holds the batch executor of the highway
// cover labelling (hl) to the batch contract: Searcher.DistanceBatch,
// over the whole batch and over each source's pairs alone (the
// one-to-many case), returns exactly the pair-at-a-time answers, and
// exactly the BFS ground truth. Every baseline is diffed against BFS pair
// by pair on the same pairs. Pairs include duplicates, repeated sources,
// s==t, landmark endpoints (low-id vertices are the degree-ranked
// landmarks) and disconnected pairs.
func TestMethodBatchDifferential(t *testing.T) {
	g := batchTestGraph(t)
	n := g.NumVertices()
	pairs := batchTestPairs(n, 5)
	for _, m := range testMethods {
		t.Run(m.name, func(t *testing.T) {
			ix := buildTest(t, m, g)
			pairwise := ix.NewSearcher()
			if err := oracle.Diff(g, pairwise, pairs); err != nil {
				t.Fatal(err)
			}
			if m.name != "hl" {
				return // a baseline answers one pair at a time
			}
			sr := ix.NewSearcher().(*highway.Searcher)
			batched := sr.DistanceBatch(pairs, nil)
			for i, p := range pairs {
				if want := pairwise.Distance(p[0], p[1]); batched[i] != want {
					t.Fatalf("batched[%d] (%d,%d) = %d, pairwise %d", i, p[0], p[1], batched[i], want)
				}
			}
			// One-source-to-many over each distinct source.
			bySource := map[int32][][2]int32{}
			for _, p := range pairs {
				bySource[p[0]] = append(bySource[p[0]], p)
			}
			for src, group := range bySource {
				many := sr.DistanceBatch(group, nil)
				for i, p := range group {
					if want := pairwise.Distance(src, p[1]); many[i] != want {
						t.Fatalf("many(%d→%d) = %d, pairwise %d", src, p[1], many[i], want)
					}
				}
			}
			// The batched path against BFS ground truth, one pair a batch.
			if err := oracle.Diff(g, oracle.Func(func(s, tt int32) int32 {
				return sr.DistanceBatch([][2]int32{{s, tt}}, nil)[0]
			}), oracle.SampledPairs(n, 200, 17)); err != nil {
				t.Fatal(err)
			}
		})
	}
}
