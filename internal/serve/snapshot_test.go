package serve

import (
	"bufio"
	"bytes"
	"io"
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
// and read from, then runs once: what survives (the live state: one
// snapshot, the writer's adjacency and sweep arrays, a searcher — about 1 MB
// here however many writes) must be far less than forty snapshots, each of
// which held a labelling and the graph it was built on.
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
	off, tgt := g.CSR()
	snapshot := ix.ActualBytes() + int64(8*len(off)+4*len(tgt))
	if limit := writes * snapshot / 4; kept > limit {
		t.Fatalf("%d bytes survive a collection after %d writes: more than %d, a quarter of the snapshots replaced", kept, writes, limit)
	}
}

// TestDecodeSnapshotLeavesTrailingBytes: the snapshot decoders (graph,
// then core.Read and the method container under it) must all read through
// the one buffered reader DecodeSnapshot is handed, none through a
// read-ahead buffer of its own, or whatever follows a snapshot in a stream
// is lost.
func TestDecodeSnapshotLeavesTrailingBytes(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 5)
	ix, err := core.Build(g, g.DegreeOrder()[:6])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, g, ix); err != nil {
		t.Fatal(err)
	}
	const trailer = "what follows the snapshot"
	buf.WriteString(trailer)
	br := bufio.NewReaderSize(&buf, 1<<20)
	if _, _, err := DecodeSnapshot(br); err != nil {
		t.Fatal(err)
	}
	rest, err := io.ReadAll(br)
	if err != nil || string(rest) != trailer {
		t.Fatalf("after the snapshot: %q, %v; want %q", rest, err, trailer)
	}
}
