package serve

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"highway/internal/core"
	"highway/internal/gen"
)

// TestReplacedSnapshotsAreCollectable: a snapshot a write replaced, and the
// index and graph behind it, must be garbage at once, however many reads it
// served. With a sync.Pool per snapshot the runtime's pool registry kept
// every one of them reachable for two more collections, so a server under
// writes held memory in proportion to its write rate (peak_rss_mb on
// churn-ba20k). The collector is off while forty snapshots are published
// and read from, then runs once: what survives must be far less than forty
// labellings.
func TestReplacedSnapshotsAreCollectable(t *testing.T) {
	const n, writes = 5000, 40
	g := gen.BarabasiAlbert(n, 3, 7)
	ix, err := core.Build(g, g.DegreeOrder()[:16])
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewLive(ix, LiveConfig{RebuildThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < writes; i++ {
		if _, err := s.Distance(1, 2); err != nil {
			t.Fatal(err)
		}
		for epoch := s.Epoch(); s.Epoch() == epoch; {
			if _, err := s.InsertEdges([][2]int32{{int32(rng.Intn(n)), int32(rng.Intn(n))}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if limit := writes * ix.ActualBytes() / 4; kept > limit {
		t.Fatalf("%d bytes survive a collection after %d writes: more than %d, a quarter of the labellings replaced", kept, writes, limit)
	}
}
