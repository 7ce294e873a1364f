package dynhl

// BenchmarkDeleteMaint prices maintenance by blast radius: each
// sub-benchmark deletes one edge whose removal dirties exactly d of the k
// landmarks. Edges are pre-bucketed by their exact dirty count (the
// unified d(r,a) ≠ d(r,b) test), so ns/op is the cost of one CSR patch, d
// pruned BFSs and one assemble; the restore between iterations
// (re-inserting the edge) runs with the timer stopped.
//
// BenchmarkChurnBatch is the operational companion: random 8-op
// mixed batches at a 30% delete ratio, the shape the benchmark's
// churn-ba20k workload writes.

import (
	"fmt"
	"math/rand"
	"testing"

	"highway/internal/gen"
)

// bucketEdgesByDirty scans every live edge and groups it by how many
// landmarks its deletion would dirty.
func bucketEdgesByDirty(ix *Index) map[int][][2]int32 {
	buckets := make(map[int][][2]int32)
	g := ix.cur.Graph()
	for a := int32(0); int(a) < g.NumVertices(); a++ {
		for _, b := range g.Neighbors(a) {
			if b < a {
				continue
			}
			d := 0
			for r := int32(0); int(r) < ix.cur.NumLandmarks(); r++ {
				if ix.cur.LandmarkDistance(r, a) != ix.cur.LandmarkDistance(r, b) {
					d++
				}
			}
			buckets[d] = append(buckets[d], [2]int32{a, b})
		}
	}
	return buckets
}

func BenchmarkDeleteMaint(b *testing.B) {
	const n, k = 20000, 16
	g := gen.BarabasiAlbert(n, 5, 1)
	landmarks := g.DegreeOrder()[:k]
	base, err := build(g, landmarks)
	if err != nil {
		b.Fatal(err)
	}
	buckets := bucketEdgesByDirty(base)
	for _, d := range []int{1, 2, 4, 8, 12, 16} {
		if len(buckets[d]) == 0 {
			b.Fatalf("no edges dirty exactly %d landmarks", d)
		}
		b.Run(fmt.Sprintf("dirty=%d", d), func(b *testing.B) {
			dyn, err := build(g, landmarks)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			pool := buckets[d]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := pool[rng.Intn(len(pool))]
				res, err := dyn.ApplyOps(DeleteOps([][2]int32{e}))
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if res.Dirty != d {
					b.Fatalf("edge %v dirtied %d landmarks, bucketed as %d", e, res.Dirty, d)
				}
				// Restore so the next iteration starts from the same graph.
				if _, err := dyn.ApplyOps(InsertOps([][2]int32{e})); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// randomLiveEdges draws bs distinct live edges from the current graph,
// endpoint-first so hubs are no likelier per edge than the degree
// distribution already makes them.
func randomLiveEdges(rng *rand.Rand, ix *Index, bs int) [][2]int32 {
	seen := make(map[[2]int32]bool, bs)
	edges := make([][2]int32, 0, bs)
	g := ix.cur.Graph()
	for len(edges) < bs {
		a := int32(rng.Intn(g.NumVertices()))
		nb := g.Neighbors(a)
		if len(nb) == 0 {
			continue
		}
		c := nb[rng.Intn(len(nb))]
		key := [2]int32{a, c}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		edges = append(edges, [2]int32{a, c})
	}
	return edges
}

// BenchmarkApplySingleEdge is cluster-ba20k's write: one absent edge
// inserted per batch into BA-20k (attachment 5, seed 42) with its 16
// highest-degree vertices as landmarks. What a write allocates is the
// patched CSR, the sweep's events and the assemble.
func BenchmarkApplySingleEdge(b *testing.B) {
	const n, k = 20000, 16
	g := gen.BarabasiAlbert(n, 5, 42)
	dyn, err := build(g, g.DegreeOrder()[:k])
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	edges := make([][2]int32, 0, b.N)
	for seen := make(map[[2]int32]bool); len(edges) < b.N; {
		u, v := rng.Int31n(n), rng.Int31n(n)
		if key := [2]int32{min(u, v), max(u, v)}; u != v && !seen[key] && !g.HasEdge(u, v) {
			seen[key] = true
			edges = append(edges, key)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, e := range edges {
		if res, err := dyn.ApplyOps(InsertOps([][2]int32{e})); err != nil || res.Inserted != 1 {
			b.Fatalf("insert %v: %+v, %v", e, res, err)
		}
	}
}

func BenchmarkChurnBatch(b *testing.B) {
	const n, k, batch = 20000, 16, 8
	g := gen.BarabasiAlbert(n, 5, 1)
	dyn, err := build(g, g.DegreeOrder()[:k])
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dels := randomLiveEdges(rng, dyn, batch*3/10)
		var ins [][2]int32
		for len(ins) < batch-len(dels) {
			e := [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
			if e[0] != e[1] && !dyn.cur.Graph().HasEdge(e[0], e[1]) {
				ins = append(ins, e)
			}
		}
		ops := append(DeleteOps(dels), InsertOps(ins)...)
		b.StartTimer()
		if _, err := dyn.ApplyOps(ops); err != nil {
			b.Fatal(err)
		}
	}
	st := dyn.Maint()
	b.ReportMetric(float64(st.LandmarksRebuilt)/float64(b.N), "rebuiltLM/op")
}
