package core

import (
	"runtime"
	"sync"
	"testing"
	"weak"

	"highway/internal/gen"
	"highway/internal/landmark"
)

// TestConcurrentDistance hammers one shared Index from many goroutines
// through both the pooled Index.Distance path and per-goroutine
// Searchers, checking every answer against a single-threaded baseline.
// Run with -race: it is the guard for the serving subsystem's claim
// that an Index tolerates unlimited concurrent readers.
func TestConcurrentDistance(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 3, 7)
	lms, err := landmark.Select(g, landmark.Options{K: 16})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildParallel(g, lms)
	if err != nil {
		t.Fatal(err)
	}

	const queries = 512
	n := int32(g.NumVertices())
	type q struct{ s, t, want int32 }
	qs := make([]q, queries)
	base := ix.Searcher()
	for i := range qs {
		s := int32(i*37) % n
		tt := int32(i*101+13) % n
		qs[i] = q{s, tt, base.Distance(s, tt)}
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			// Half the goroutines use the pooled path, half a private
			// Searcher — the two ways the serving layer issues queries.
			var sr *Searcher
			if gi%2 == 1 {
				sr = ix.Searcher()
			}
			for r := 0; r < 4; r++ {
				for _, query := range qs {
					var got int32
					if sr != nil {
						got = sr.Distance(query.s, query.t)
					} else {
						got = ix.Distance(query.s, query.t)
					}
					if got != query.want {
						errs <- "concurrent Distance mismatch"
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestPooledIndexIsCollectable: an index queried only through the pooled
// conveniences is garbage at the first collection after its caller drops
// it. Their idle searchers are bound to no index; a pool per index kept
// it reachable through the runtime's pool registry for two more.
func TestPooledIndexIsCollectable(t *testing.T) {
	wp := func() weak.Pointer[Index] {
		g := gen.BarabasiAlbert(500, 3, 7)
		ix, err := Build(g, g.DegreeOrder()[:8])
		if err != nil {
			t.Fatal(err)
		}
		want := ix.Searcher().Distance(1, 2)
		if got := ix.Distance(1, 2); got != want {
			t.Fatalf("Distance(1,2) = %d, a searcher says %d", got, want)
		}
		ix.UpperBound(3, 4)
		ix.Path(5, 6)
		ix.DistanceBatch([][2]int32{{7, 8}, {7, 9}, {10, 11}}, nil)
		return weak.Make(ix)
	}()
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("an index queried through its pooled conveniences survives a collection after its caller dropped it")
	}
}
