package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"highway/internal/container"
	"highway/internal/core"
	"highway/internal/gen"
	"highway/internal/graph"
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

// readBinaryBudget is what the graph reader may allocate on a stream of
// size bytes (FuzzReadBinary's budget in internal/graph): its read buffer
// and first chunks, then a few times what the stream delivered. A snapshot
// holds more than a graph, and still grows every section as it arrives.
func readBinaryBudget(size int) uint64 { return 4<<20 + 8*uint64(size) }

// legacySnapshot is the committed checkpoint of the layout a snapshot had
// before the graph became container sections: the paper's Figure 2 and its
// labelling, as the last commit to write that layout wrote them.
func legacySnapshot(tb testing.TB) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "core", "testdata", "tiny.snap1"))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// FuzzDecodeSnapshot holds the snapshot reader, which every follower runs
// on bytes from the network, total on arbitrary bytes: no panic, no more
// allocated than the graph reader's budget whatever the header and table
// claim, a legacy snapshot refused with one line naming `hlbuild migrate`,
// and a snapshot it accepts with EncodeSnapshot's table is byte for byte
// what EncodeSnapshot writes of the state it returns.
func FuzzDecodeSnapshot(f *testing.F) {
	g := gen.BarabasiAlbert(120, 3, 5)
	ix, err := core.Build(g, g.DegreeOrder()[:6])
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, g, ix); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	h, rows, err := container.ReadTable(bytes.NewReader(good))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	table := len(container.Magic) + 40 + 4
	end := table + 16*len(rows)
	for _, row := range rows { // cut where each section starts, and at the end
		f.Add(good[:end])
		end += int(row.Length)
	}
	f.Add(good[:end-1])
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 1
	f.Add(flipped)
	// The largest graph and labelling a header may claim, a table to match,
	// and 64 bytes of them.
	h.N, h.Aux1 = 1<<31-1, (1<<31-1)*uint64(h.K)
	var lying bytes.Buffer
	if err := container.WriteContainer(&lying, h, []container.Section{{ID: graph.SectOffsets}, {ID: graph.SectTargets}, {ID: 4}}); err != nil {
		f.Fatal(err)
	}
	claimed := lying.Bytes()
	for i, length := range []uint64{(h.N + 1) * 8, 1 << 35, h.Aux1} {
		binary.LittleEndian.PutUint64(claimed[table+16*i+8:], length)
	}
	f.Add(append(claimed, make([]byte, 64)...))
	var noLandmarks bytes.Buffer // a header the labelling's bounds refuse
	if err := container.WriteContainer(&noLandmarks, container.Header{N: 3}, []container.Section{{ID: graph.SectOffsets}}); err != nil {
		f.Fatal(err)
	}
	f.Add(noLandmarks.Bytes())
	legacy := legacySnapshot(f)
	f.Add(legacy)

	ids := func(file []byte) string {
		_, rows, _ := container.ReadTable(bytes.NewReader(file))
		var s []uint32
		for _, row := range rows {
			s = append(s, row.ID)
		}
		return fmt.Sprint(s)
	}
	written := ids(good)
	f.Fuzz(func(t *testing.T, data []byte) {
		var g *graph.Graph
		var ix *core.Index
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, ix, err = DecodeSnapshot(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if used := after.TotalAlloc - before.TotalAlloc; used > readBinaryBudget(len(data)) {
			t.Fatalf("DecodeSnapshot allocated %d bytes on a %d-byte stream", used, len(data))
		}
		if bytes.HasPrefix(data, legacy[:8]) && (err == nil || !strings.Contains(err.Error(), "hlbuild migrate") || strings.Contains(err.Error(), "\n")) {
			t.Fatalf("legacy snapshot: err = %v, want one line naming hlbuild migrate", err)
		}
		if err != nil || ids(data) != written {
			return
		}
		var out bytes.Buffer
		if err := EncodeSnapshot(&out, g, ix); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("accepted snapshot re-encodes differently:\n got %x\nfrom %x", out.Bytes(), data)
		}
	})
}
