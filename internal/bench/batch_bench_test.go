package bench

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"highway/internal/core"
	"highway/internal/gen"
	"highway/internal/graph"
	"highway/internal/landmark"
)

// The batch-executor benchmarks run on the BA-100k stand-in (hlgen
// -family ba -n 100000 -deg 10 -seed 1) with the paper's k=20 degree
// landmarks. The standing measurement of the same shapes is the
// core.batch.*.ns_pair rungs of benchmark/README.md.
var (
	batchFixOnce sync.Once
	batchFixG    *graph.Graph
	batchFixIx   *core.Index
)

func batchFixture(b *testing.B) *core.Index {
	b.Helper()
	batchFixOnce.Do(func() {
		batchFixG = gen.BarabasiAlbert(100_000, 5, 1)
		lm, err := landmark.Select(batchFixG, landmark.Options{K: 20})
		if err != nil {
			panic(err)
		}
		batchFixIx, err = core.BuildOpts(context.Background(), batchFixG, lm, core.Options{})
		if err != nil {
			panic(err)
		}
	})
	return batchFixIx
}

// batchPairs draws one benchmark batch: count pairs over nsrc distinct
// seeded sources (nsrc <= 0 means uniform — fresh source per pair) with
// uniform targets.
func batchPairs(n, count, nsrc int, seed int64) [][2]int32 {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]int32, count)
	if nsrc <= 0 {
		for i := range pairs {
			pairs[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
		}
		return pairs
	}
	sources := make([]int32, nsrc)
	for i := range sources {
		sources[i] = int32(rng.Intn(n))
	}
	for i := range pairs {
		pairs[i] = [2]int32{sources[i%nsrc], int32(rng.Intn(n))}
	}
	return pairs
}

// BenchmarkBatchQuery compares the vectorized batch executor
// (Searcher.DistanceBatch) against the pair-at-a-time loop it replaces,
// across source skews: sources=S means a 64k-pair batch drawn from S
// distinct sources (the source-grouped shape of single-source analytics
// and coordinator fan-in; sources=1 is the one-to-many extreme, one
// group and one shared traversal), uniform means every pair has a fresh source
// (the adversarial shape — grouping buys nothing, the executor must not
// lose). One op answers the whole batch; ns/pair is the figure to read.
func BenchmarkBatchQuery(b *testing.B) {
	ix := batchFixture(b)
	n := batchFixG.NumVertices()
	const count = 1 << 16
	skews := []struct {
		name string
		nsrc int
	}{
		{"sources=1", 1},
		{"sources=4", 4},
		{"sources=64", 64},
		{"sources=1024", 1024},
		{"uniform", 0},
	}
	for _, sk := range skews {
		pairs := batchPairs(n, count, sk.nsrc, 42)
		b.Run(sk.name+"/batch", func(b *testing.B) {
			sr := ix.Searcher()
			dst := make([]int32, count)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sr.DistanceBatch(pairs, dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(count), "ns/pair")
		})
		b.Run(sk.name+"/pairloop", func(b *testing.B) {
			sr := ix.Searcher()
			dst := make([]int32, count)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, p := range pairs {
					dst[j] = sr.Distance(p[0], p[1])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(count), "ns/pair")
		})
	}
}
