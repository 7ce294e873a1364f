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
// snapshot, the writer's sweep arrays, a searcher — under 1 MB here
// however many writes) must be far less than forty snapshots, each of
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

// TestReadAfterPublishAllocatesNoSearcher: idle searchers are bound to no
// snapshot, so the first read after a publish draws one as every read
// does. A read and a publish together allocate what each does alone; a
// searcher dropped with its snapshot would add its scratch to the read.
func TestReadAfterPublishAllocatesNoSearcher(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 3, 7)
	var ixs [2]*core.Index
	for i := range ixs {
		var err error
		if ixs[i], err = core.Build(g, g.DegreeOrder()[:8+i]); err != nil {
			t.Fatal(err)
		}
	}
	s := New(ixs[0], Config{})
	read := func() {
		if _, err := s.Distance(1, 2); err != nil {
			t.Fatal(err)
		}
	}
	var epoch uint64
	publish := func() {
		epoch++
		s.Publish(ixs[epoch%2], epoch)
	}
	steady := testing.AllocsPerRun(100, read)
	published := testing.AllocsPerRun(100, publish)
	if both := testing.AllocsPerRun(100, func() { publish(); read() }); both != steady+published {
		t.Fatalf("a read right after a publish allocates %v, a read alone %v and a publish %v: the read made a searcher", both-published, steady, published)
	}
}

// readBinaryBudget is what the graph reader may allocate on a stream of
// size bytes (FuzzReadBinary's budget in internal/graph): its read buffer
// and first chunks, then a few times what the stream delivered. A snapshot
// holds more than a graph, and still grows every section as it arrives.
func readBinaryBudget(size int) uint64 { return 4<<20 + 8*uint64(size) }

// legacySnapshot is a committed checkpoint of an earlier layout: the
// paper's Figure 2 and its labelling, as the last commit to write that
// layout wrote them — tiny.snap1 before the graph became container
// sections, tiny.snap2 before the distances became codes of the bits they
// need, both retired, and figure2_dir.snap before the reader derived the
// rank directory, which still loads (as does leaves_dir.snap, a labelling
// that elides its leaves).
func legacySnapshot(tb testing.TB, name string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "core", "testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// decodeBytesBudget is what DecodeSnapshotBytes may allocate on size bytes
// in memory: the state it returns — which is about as long as the
// snapshot, the graph's arrays being its sections decoded — and a quarter
// more for the cursors and maps beside it, but no buffer for the input.
func decodeBytesBudget(size int) uint64 { return 64<<10 + 5*uint64(size)/4 }

// FuzzDecodeSnapshot holds the snapshot reader, which every follower runs
// on bytes from the network, total on arbitrary bytes through both its
// front doors, the stream (DecodeSnapshot) and bytes in memory
// (DecodeSnapshotBytes): no panic, no more allocated than the graph
// reader's budget on a stream or decodeBytesBudget in memory whatever the
// header and table claim, a legacy snapshot refused with one line naming
// `hlbuild migrate`, both doors rejecting an input or both returning states
// that re-encode to the same bytes, and a snapshot accepted with
// EncodeSnapshot's table is byte for byte what EncodeSnapshot writes of
// the state it returns.
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
	legacy := legacySnapshot(f, "tiny.snap1")
	f.Add(legacy)
	f.Add(legacySnapshot(f, "tiny.snap2"))
	f.Add(legacySnapshot(f, "figure2_dir.snap"))
	f.Add(legacySnapshot(f, "leaves_dir.snap"))

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
		var g, mg *graph.Graph
		var ix, mix *core.Index
		var err, merr error
		if used := allocatedBy(func() { g, ix, err = DecodeSnapshot(bytes.NewReader(data)) }); used > readBinaryBudget(len(data)) {
			t.Fatalf("DecodeSnapshot allocated %d bytes on a %d-byte stream", used, len(data))
		}
		if used := allocatedBy(func() { mg, mix, merr = DecodeSnapshotBytes(data) }); used > decodeBytesBudget(len(data)) {
			t.Fatalf("DecodeSnapshotBytes allocated %d bytes on %d in memory", used, len(data))
		}
		if bytes.HasPrefix(data, legacy[:8]) && (err == nil || !strings.Contains(err.Error(), "hlbuild migrate") || strings.Contains(err.Error(), "\n")) {
			t.Fatalf("legacy snapshot: err = %v, want one line naming hlbuild migrate", err)
		}
		if (err == nil) != (merr == nil) {
			t.Fatalf("DecodeSnapshot: %v; DecodeSnapshotBytes: %v", err, merr)
		}
		if err != nil {
			return
		}
		out, err := SnapshotBytes(g, ix)
		if err != nil {
			t.Fatal(err)
		}
		if mout, err := SnapshotBytes(mg, mix); err != nil || !bytes.Equal(mout, out) {
			t.Fatalf("the two doors' states re-encode differently (%v):\nstream %x\nbytes  %x", err, out, mout)
		}
		if ids(data) == written && !bytes.HasPrefix(data, out) {
			t.Fatalf("accepted snapshot re-encodes differently:\n got %x\nfrom %x", out, data)
		}
	})
}

// allocatedBy returns the bytes fn allocates, as the runtime counts them.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// ba20k is the state the cluster-ba20k workload replicates: BA n=20k, 10
// a vertex on average, 16 landmarks by degree.
func ba20k(tb testing.TB) (*graph.Graph, *core.Index) {
	tb.Helper()
	g := gen.BarabasiAlbert(20_000, 5, 7)
	ix, err := core.Build(g, g.DegreeOrder()[:16])
	if err != nil {
		tb.Fatal(err)
	}
	return g, ix
}

// TestDecodeSnapshotBytesBudget: on a snapshot of the size the cluster
// ships, the bytes-in-hand reader allocates the state it returns and not a
// copy of its input.
func TestDecodeSnapshotBytesBudget(t *testing.T) {
	data, err := SnapshotBytes(ba20k(t))
	if err != nil {
		t.Fatal(err)
	}
	if used := allocatedBy(func() { _, _, err = DecodeSnapshotBytes(data) }); err != nil || used > decodeBytesBudget(len(data)) {
		t.Fatalf("DecodeSnapshotBytes: %v, %d bytes allocated on %d, budget %d", err, used, len(data), decodeBytesBudget(len(data)))
	}
}

// BenchmarkEncodeSnapshot is a primary's encode for a resync: the
// snapshot of BA-20k in one buffer of its exact length.
func BenchmarkEncodeSnapshot(b *testing.B) {
	g, ix := ba20k(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := SnapshotBytes(g, ix); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeSnapshot is a follower's install of that snapshot from
// the frame it arrived in (bytes), and the same read from a stream, as a
// checkpoint is read.
func BenchmarkDecodeSnapshot(b *testing.B) {
	data, err := SnapshotBytes(ba20k(b))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("bytes", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			if _, _, err := DecodeSnapshotBytes(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			if _, _, err := DecodeSnapshot(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
