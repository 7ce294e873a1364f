package cluster

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"highway/internal/core"
	"highway/internal/gen"
	"highway/internal/serve"
)

// TestFollowerReleasesSnapshotTransfer: a bootstrap transfer is a graph and
// an index long, and the follower buffers all of it before it installs.
// Once installed — and once a resync has installed over it — what the
// follower keeps alive is the graph and the index, within a tenth (dynhl
// shares both and copies nothing); the transfer buffer is not among them.
func TestFollowerReleasesSnapshotTransfer(t *testing.T) {
	g := gen.BarabasiAlbert(20_000, 3, 7)
	ix, err := core.Build(g, g.DegreeOrder()[:16])
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := serve.EncodeSnapshot(&snap, g, ix); err != nil {
		t.Fatal(err)
	}
	off, tgt := g.CSR()
	want := int64(8*len(off)+4*len(tgt)) + ix.ActualBytes()
	if int64(snap.Len()) < want/4 {
		t.Fatalf("test premise broken: a %d-byte transfer would hide in the slack of %d", snap.Len(), want)
	}

	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	f, err := NewFollower(serve.Config{ShutdownGrace: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Server().Close()
	before := heap()
	// Bootstrap in chunks, a resync over it, and one in a single chunk,
	// which is decoded where it arrived.
	for i, chunk := range []int{64 << 10, 64 << 10, snap.Len()} {
		epoch := uint64(i + 1)
		for raw := snap.Bytes(); len(raw) > 0; raw = raw[min(chunk, len(raw)):] {
			if _, err := f.ReplSnapshot(epoch, len(raw) <= chunk, raw[:min(chunk, len(raw))]); err != nil {
				t.Fatal(err)
			}
		}
		if got := f.Epoch(); got != epoch {
			t.Fatalf("epoch %d after installing the snapshot of epoch %d", got, epoch)
		}
		if held := heap() - before; held < want*9/10 || held > want*11/10 {
			t.Fatalf("after install %d the follower holds %d bytes, want graph + index = %d (the transfer was %d)",
				epoch, held, want, snap.Len())
		}
	}
	runtime.KeepAlive(f)
}

// TestFollowerCopiesOneChunkSnapshot: a snapshot that arrives in one
// chunk is decoded from the frame's payload, which the connection reuses
// for its next frame — so the installed state must own every byte of it.
// Overwriting the chunk after the install changes nothing the follower
// serves.
func TestFollowerCopiesOneChunkSnapshot(t *testing.T) {
	g, ix := testIndex(t, 500)
	want := indexBytes(t, ix)
	chunk, err := serve.SnapshotBytes(g, ix)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFollower(serve.Config{ShutdownGrace: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Server().Close()
	if _, err := f.ReplSnapshot(1, true, chunk); err != nil {
		t.Fatal(err)
	}
	for i := range chunk {
		chunk[i] = 0xA5
	}
	f.mu.Lock()
	_, got, err := f.dyn.Freeze()
	f.mu.Unlock()
	if err != nil || !bytes.Equal(indexBytes(t, got), want) {
		t.Fatalf("the installed index changed with the chunk it was decoded from (%v)", err)
	}
}
