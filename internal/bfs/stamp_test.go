package bfs_test

import (
	"math/rand"
	"runtime"
	"testing"

	"highway/internal/bfs"
	"highway/internal/gen"
	"highway/internal/graph"
)

// TestScratchStampWrap runs searches through one scratch across the
// epochs at which its stamps are cleared: where 2·epoch would no longer
// fit a uint32, and where a Depths run's deepest stamp would not. Each
// round is a Depths run under a random limit, then bounded searches from
// either end, with and without a skip mask; every depth and distance
// must be plain BFS's on G[V\R]. A stamp left from before a clear, or a
// search started below a Depths run's stamps, reads as claimed, so either
// shows as a wrong distance. A scratch that never ran Depths reads no
// depth.
func TestScratchStampWrap(t *testing.T) {
	const n = 300
	g := gen.BarabasiAlbert(n, 3, 4)
	skip := make([]bool, n)
	for _, v := range g.DegreeOrder()[:8] {
		skip[v] = true
	}
	for _, mask := range [][]bool{nil, skip} {
		sub, id := sparsified(t, g, mask)
		for _, epoch := range []uint32{1<<31 - 20, 1<<31 - 3} {
			sc := bfs.NewScratch(n)
			for v := range int32(n) {
				if d := sc.Depth(v); d != bfs.Unreachable {
					t.Fatalf("a fresh scratch reads depth %d for %d", d, v)
				}
			}
			bfs.SetEpoch(sc, epoch)
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 40; i++ {
				s, u := int32(rng.Intn(n)), int32(rng.Intn(n))
				if id[s] < 0 || id[u] < 0 {
					continue
				}
				checkDepths(t, g, mask, sub, id, s, int32(rng.Intn(8)), sc)
				want := bfs.Dist(sub, id[s], id[u])
				for _, p := range [][2]int32{{s, u}, {u, s}} {
					if got := bfs.BoundedBiBFS(g, p[0], p[1], bfs.NoBound, mask, sc); got != want {
						t.Fatalf("epoch %d, round %d: BoundedBiBFS(%d,%d) = %d, BFS on G[V\\R] says %d", epoch, i, p[0], p[1], got, want)
					}
				}
			}
		}
	}
}

// sparsified returns G[V\skip] (skip may be nil) and each vertex's id in
// it, -1 for a skipped one.
func sparsified(t testing.TB, g *graph.Graph, skip []bool) (*graph.Graph, []int32) {
	t.Helper()
	id := make([]int32, g.NumVertices())
	var keep []int32
	for v := range id {
		id[v] = -1
		if skip == nil || !skip[v] {
			id[v] = int32(len(keep))
			keep = append(keep, int32(v))
		}
	}
	sub, _, err := g.InducedSubgraph(keep)
	if err != nil {
		t.Fatal(err)
	}
	return sub, id
}

// checkDepths runs Depths from src under limit ≥ 0 and checks it against
// Distances on sub, G[V\skip] as sparsified returns it with id: each
// vertex within limit reads its distance, every other Unreachable, and
// poll ran once for each level expanded.
func checkDepths(t testing.TB, g *graph.Graph, skip []bool, sub *graph.Graph, id []int32, src, limit int32, sc *bfs.Scratch) {
	t.Helper()
	polls := 0
	if err := bfs.Depths(g, src, limit, skip, sc, func() error { polls++; return nil }); err != nil {
		t.Fatal(err)
	}
	dist := bfs.Distances(sub, id[src])
	levels := 0
	for v := range id {
		want := bfs.Unreachable
		if id[v] >= 0 && dist[id[v]] != bfs.Unreachable && dist[id[v]] <= limit {
			want = dist[id[v]]
			levels = max(levels, int(want)+1)
		}
		if got := sc.Depth(int32(v)); got != want {
			t.Fatalf("Depths(%d, limit %d): depth of %d is %d, BFS on G[V\\skip] says %d", src, limit, v, got, want)
		}
	}
	if want := min(levels, int(limit)); polls != want {
		t.Fatalf("Depths(%d, limit %d) polled %d times, want one a level expanded (%d)", src, limit, polls, want)
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
