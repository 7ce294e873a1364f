package serve

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"highway/internal/core"
	"highway/internal/failpoint"
)

func tempWALPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "edges.wal")
}

// opOf is shorthand for the insert op an edge pair logs as.
func opOf(e [2]int32) core.Op { return core.Op{A: e[0], B: e[1]} }

func TestWALAppendRecoverRoundTrip(t *testing.T) {
	path := tempWALPath(t)
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Recovered()) != 0 || w.Len() != 0 {
		t.Fatalf("fresh log not empty: %d records", w.Len())
	}
	edges := [][2]int32{{1, 2}, {3, 4}, {5, 6}}
	if err := w.Append(edges[:2]); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(edges[2:]); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := w2.Recovered()
	if len(got) != len(edges) {
		t.Fatalf("recovered %d records, want %d", len(got), len(edges))
	}
	for i, e := range edges {
		if got[i] != opOf(e) {
			t.Fatalf("record %d = %v, want %v", i, got[i], e)
		}
	}
	// Appends after recovery extend the log, not overwrite it.
	if err := w2.Append([][2]int32{{7, 8}}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	w3, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if w3.Len() != 4 || w3.Recovered()[3] != opOf([2]int32{7, 8}) {
		t.Fatalf("after append+reopen: %v", w3.Recovered())
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	path := tempWALPath(t)
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([][2]int32{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Simulate a crash mid-append: a partial third record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Len() != 2 {
		t.Fatalf("torn tail: recovered %d records, want 2", w2.Len())
	}
	// The torn bytes must be gone from disk, so the next append starts a
	// valid record.
	if err := w2.Append([][2]int32{{5, 6}}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	w3, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if w3.Len() != 3 || w3.Recovered()[2] != opOf([2]int32{5, 6}) {
		t.Fatalf("after torn-tail repair: %v", w3.Recovered())
	}
}

func TestWALCorruptRecordTruncatesSuffix(t *testing.T) {
	path := tempWALPath(t)
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([][2]int32{{1, 2}, {3, 4}, {5, 6}}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Flip one byte in the middle record; it and everything after must
	// be dropped.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(walMagic)+walRecordSize+2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Len() != 1 || w2.Recovered()[0] != opOf([2]int32{1, 2}) {
		t.Fatalf("corrupt middle record: recovered %v, want just {1,2}", w2.Recovered())
	}
}

func TestWALBadMagicRejected(t *testing.T) {
	path := tempWALPath(t)
	if err := os.WriteFile(path, []byte("NOTAWAL0: something else entirely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(path); err == nil {
		t.Fatal("want error opening a non-WAL file")
	}
}

func TestWALCompactTo(t *testing.T) {
	path := tempWALPath(t)
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append([][2]int32{{1, 2}, {3, 4}, {5, 6}, {7, 8}}); err != nil {
		t.Fatal(err)
	}
	delta := core.InsertOps([][2]int32{{7, 8}})
	if err := w.CompactTo(delta); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 1 {
		t.Fatalf("Len after compact = %d, want 1", w.Len())
	}
	// The handle must keep working against the new file.
	if err := w.Append([][2]int32{{9, 10}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	want := [][2]int32{{7, 8}, {9, 10}}
	if len(w2.Recovered()) != len(want) {
		t.Fatalf("recovered %v, want %v", w2.Recovered(), want)
	}
	for i := range want {
		if w2.Recovered()[i] != opOf(want[i]) {
			t.Fatalf("recovered %v, want %v", w2.Recovered(), want)
		}
	}
}

// TestWALTornTailEveryOffset crashes "mid-append" at every byte offset
// of the final record: whatever prefix of the record survives, recovery
// must keep exactly the preceding records, erase the torn bytes from
// disk, and leave the log appendable.
func TestWALTornTailEveryOffset(t *testing.T) {
	edges := [][2]int32{{1, 2}, {3, 4}, {5, 6}}
	full := int64(len(walMagic) + len(edges)*walRecordSize)
	for cut := 0; cut < walRecordSize; cut++ {
		path := tempWALPath(t)
		w, err := OpenWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(edges); err != nil {
			t.Fatal(err)
		}
		w.Close()
		if err := os.Truncate(path, full-int64(walRecordSize)+int64(cut)); err != nil {
			t.Fatal(err)
		}

		w2, err := OpenWAL(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if w2.Len() != len(edges)-1 {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, w2.Len(), len(edges)-1)
		}
		for i, e := range edges[:len(edges)-1] {
			if w2.Recovered()[i] != opOf(e) {
				t.Fatalf("cut %d: record %d = %v, want %v", cut, i, w2.Recovered()[i], e)
			}
		}
		if st, err := os.Stat(path); err != nil || st.Size() != full-int64(walRecordSize) {
			t.Fatalf("cut %d: torn bytes not erased (size %d, err %v)", cut, st.Size(), err)
		}
		if err := w2.Append([][2]int32{{7, 8}}); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		w2.Close()
		w3, err := OpenWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if w3.Len() != len(edges) || w3.Recovered()[len(edges)-1] != opOf([2]int32{7, 8}) {
			t.Fatalf("cut %d: after repair+append: %v", cut, w3.Recovered())
		}
		w3.Close()
	}
}

// TestWALAppendShortWriteRepairsTail reproduces a torn batch write with
// the wal.append.short failpoint: part of the batch reaches the file,
// the append fails, and the tail repair must erase the partial bytes so
// the on-disk log still ends at the last acknowledged record.
func TestWALAppendShortWriteRepairsTail(t *testing.T) {
	defer failpoint.Reset()
	path := tempWALPath(t)
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append([][2]int32{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Set(FPWALAppendShort, "error(disk full)"); err != nil {
		t.Fatal(err)
	}
	err = w.Append([][2]int32{{3, 4}, {5, 6}})
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("want injected append failure, got %v", err)
	}
	if w.Len() != 1 {
		t.Fatalf("Len after failed append = %d, want 1", w.Len())
	}
	want := int64(len(walMagic) + walRecordSize)
	if st, serr := os.Stat(path); serr != nil || st.Size() != want {
		t.Fatalf("partial bytes not erased: size %d, want %d (err %v)", st.Size(), want, serr)
	}
	if got := w.Stats().AppendErrors; got != 1 {
		t.Fatalf("AppendErrors = %d, want 1", got)
	}
	// Disarmed, the log keeps working and replays exactly the
	// acknowledged records.
	failpoint.Clear(FPWALAppendShort)
	if err := w.Append([][2]int32{{7, 8}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	wantRec := [][2]int32{{1, 2}, {7, 8}}
	if len(w2.Recovered()) != len(wantRec) {
		t.Fatalf("recovered %v, want %v", w2.Recovered(), wantRec)
	}
	for i, e := range wantRec {
		if w2.Recovered()[i] != opOf(e) {
			t.Fatalf("recovered %v, want %v", w2.Recovered(), wantRec)
		}
	}
}

// TestWALSyncFailureUnpersistsBatch pins the fsync-failure contract: the
// rejected batch's bytes must not survive on disk (a restart would
// replay writes the client was told failed), and Probe must track the
// failpoint's state.
func TestWALSyncFailureUnpersistsBatch(t *testing.T) {
	defer failpoint.Reset()
	path := tempWALPath(t)
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append([][2]int32{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Set(FPWALSync, "error(io error)"); err != nil {
		t.Fatal(err)
	}
	err = w.Append([][2]int32{{3, 4}})
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("want injected fsync failure, got %v", err)
	}
	want := int64(len(walMagic) + walRecordSize)
	if st, serr := os.Stat(path); serr != nil || st.Size() != want {
		t.Fatalf("unacknowledged batch survived: size %d, want %d (err %v)", st.Size(), want, serr)
	}
	if got := w.Stats().SyncErrors; got != 1 {
		t.Fatalf("SyncErrors = %d, want 1", got)
	}
	if err := w.Probe(); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("Probe under armed wal.sync: %v", err)
	}
	failpoint.Clear(FPWALSync)
	if err := w.Probe(); err != nil {
		t.Fatalf("Probe after disarm: %v", err)
	}
	if err := w.Append([][2]int32{{5, 6}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	wantRec := [][2]int32{{1, 2}, {5, 6}}
	for i, e := range wantRec {
		if w2.Recovered()[i] != opOf(e) {
			t.Fatalf("recovered %v, want %v", w2.Recovered(), wantRec)
		}
	}
}

// TestWALMixedOpsRoundTrip pins the delete-record encoding: deletions
// are logged as one's-complement endpoint pairs in the same 12-byte
// record format, and a mixed log recovers the exact op sequence.
func TestWALMixedOpsRoundTrip(t *testing.T) {
	path := tempWALPath(t)
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	ops := []core.Op{
		{A: 1, B: 2},
		{A: 1, B: 2, Del: true},
		{A: 0, B: 7},
		{A: 3, B: 0, Del: true}, // zero endpoint: ^0 = -1 must still decode
	}
	if err := w.AppendOps(ops); err != nil {
		t.Fatal(err)
	}
	if w.Len() != len(ops) {
		t.Fatalf("Len = %d, want %d", w.Len(), len(ops))
	}
	w.Close()
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := w2.Recovered()
	if len(got) != len(ops) {
		t.Fatalf("recovered %d ops, want %d", len(got), len(ops))
	}
	for i, op := range ops {
		if got[i] != op {
			t.Fatalf("op %d = %+v, want %+v", i, got[i], op)
		}
	}
}

// TestWALDeleteTornTailEveryOffset is the delete-record twin of
// TestWALTornTailEveryOffset: a crash at any byte offset inside a
// trailing delete record must truncate exactly that record.
func TestWALDeleteTornTailEveryOffset(t *testing.T) {
	ops := []core.Op{{A: 1, B: 2}, {A: 3, B: 4, Del: true}, {A: 1, B: 2, Del: true}}
	full := int64(len(walMagic) + len(ops)*walRecordSize)
	for cut := 0; cut < walRecordSize; cut++ {
		path := tempWALPath(t)
		w, err := OpenWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendOps(ops); err != nil {
			t.Fatal(err)
		}
		w.Close()
		if err := os.Truncate(path, full-int64(walRecordSize)+int64(cut)); err != nil {
			t.Fatal(err)
		}
		w2, err := OpenWAL(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if w2.Len() != len(ops)-1 {
			t.Fatalf("cut %d: recovered %d ops, want %d", cut, w2.Len(), len(ops)-1)
		}
		for i, op := range ops[:len(ops)-1] {
			if w2.Recovered()[i] != op {
				t.Fatalf("cut %d: op %d = %+v, want %+v", cut, i, w2.Recovered()[i], op)
			}
		}
		if st, err := os.Stat(path); err != nil || st.Size() != full-int64(walRecordSize) {
			t.Fatalf("cut %d: torn bytes not erased (size %d, err %v)", cut, st.Size(), err)
		}
		w2.Close()
	}
}

// TestWALMixedSignRecordTruncates pins the corruption rule the
// complement encoding relies on: a record whose endpoints disagree in
// sign is not a valid insert or delete, so recovery must stop there.
func TestWALMixedSignRecordTruncates(t *testing.T) {
	path := tempWALPath(t)
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendOps([]core.Op{{A: 1, B: 2}, {A: 3, B: 4, Del: true}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Hand-craft a record {5, ^6}: valid CRC, invalid sign mix.
	var rec [walRecordSize]byte
	a, b := int32(5), ^int32(6)
	putInt32 := func(p []byte, v int32) {
		p[0], p[1], p[2], p[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	putInt32(rec[0:], a)
	putInt32(rec[4:], b)
	sum := walSum(a, b)
	rec[8], rec[9], rec[10], rec[11] = byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Len() != 2 {
		t.Fatalf("mixed-sign record survived: recovered %d ops, want 2", w2.Len())
	}
	if w2.Recovered()[1] != (core.Op{A: 3, B: 4, Del: true}) {
		t.Fatalf("recovered %+v", w2.Recovered())
	}
}
