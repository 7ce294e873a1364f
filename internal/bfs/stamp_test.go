package bfs_test

import (
	"math/rand"
	"runtime"
	"testing"

	"highway/internal/bfs"
	"highway/internal/gen"
)

// TestScratchStampWrap runs bounded searches through one scratch across
// the epoch at which its stamps are cleared (2·epoch would no longer fit
// a uint32): with and without a skip mask, from either end, every answer
// must equal plain BFS on G[V\R]. A stamp left from before the clear
// reads as claimed, so a missed clear shows as a wrong distance.
func TestScratchStampWrap(t *testing.T) {
	const n = 300
	g := gen.BarabasiAlbert(n, 3, 4)
	skip := make([]bool, n)
	var keep []int32
	newID := make([]int32, n)
	for _, v := range g.DegreeOrder()[:8] {
		skip[v] = true
	}
	for v := int32(0); v < n; v++ {
		if !skip[v] {
			newID[v] = int32(len(keep))
			keep = append(keep, v)
		}
	}
	sub, _, err := g.InducedSubgraph(keep)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		skip []bool
		dist func(s, u int32) int32
	}{
		{"no skip", nil, func(s, u int32) int32 { return bfs.Dist(g, s, u) }},
		{"skip", skip, func(s, u int32) int32 { return bfs.Dist(sub, newID[s], newID[u]) }},
	} {
		sc := bfs.NewScratch(n)
		bfs.SetEpoch(sc, 1<<31-20)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 40; i++ {
			s, u := keep[rng.Intn(len(keep))], keep[rng.Intn(len(keep))]
			want := tc.dist(s, u)
			for _, p := range [][2]int32{{s, u}, {u, s}} {
				if got := bfs.BoundedBiBFS(g, p[0], p[1], bfs.NoBound, tc.skip, sc); got != want {
					t.Fatalf("%s, search %d: BoundedBiBFS(%d,%d) = %d, BFS on G[V\\R] says %d", tc.name, i, p[0], p[1], got, want)
				}
			}
		}
	}
}

// TestScratchFourBytesAVertex pins a scratch at one 4-byte stamp a vertex
// beside its three 1024-entry queues. Other goroutines' allocations only
// add to a delta, so the least over a few scratches is the scratch's own.
func TestScratchFourBytesAVertex(t *testing.T) {
	const n = 1 << 20
	least := ^uint64(0)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sc := bfs.NewScratch(n)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(sc)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(4*n + 3*4*1024 + 1<<10); least > limit {
		t.Fatalf("a scratch for %d vertices allocates %d bytes, more than %d: 4 B a vertex and its queues", n, least, limit)
	}
}
