package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"

	"highway/internal/core"
	"highway/internal/failpoint"
)

// WAL is a write-ahead edge log: the durability substrate of a live
// server. Every accepted edge mutation — insertion or deletion — is
// appended (and fsynced) to the log *before* it is applied to the
// in-memory labelling, so an acknowledged write survives a crash; on
// startup the log is replayed onto the loaded index (LoadLive).
// Replay is idempotent — core.Rows.ApplyOps treats re-inserting a present
// edge and re-deleting an absent one as no-ops — which keeps the
// crash-recovery protocol simple: it is always safe to replay the whole
// log against any snapshot at or behind the log's tail.
//
// The on-disk format is a fixed 8-byte magic ("HWLWAL01") followed by
// 12-byte records: two little-endian int32 endpoints plus a CRC-32C of
// the pair. A deletion stores the one's complement of both endpoints
// (^a, ^b) — vertex ids are non-negative, so two negative endpoints
// unambiguously mark a delete record while every log written before
// deletions existed (all records non-negative) replays unchanged. A
// torn final record (crash mid-append) or any corrupt tail is detected
// by length, checksum or a mixed-sign endpoint pair and truncated away
// on open; records before it are kept.
//
// A WAL is not safe for concurrent use by itself; the live server
// serializes all calls behind its writer mutex.
type WAL struct {
	path      string
	f         *os.File
	records   int
	recovered []core.Op
	buf       []byte

	// off is the durable end of the log: the byte offset just past the
	// last acknowledged record. A failed append or fsync truncates the
	// file back to off, so the on-disk tail and the acknowledged history
	// can never desync (a restart must not replay edges whose Append
	// returned an error).
	off int64

	// Error counters, readable without the owner's lock (Stats).
	appendErrs  atomic.Int64
	syncErrs    atomic.Int64
	dirSyncErrs atomic.Int64
}

// WALStats is the log's observability section (surfaced under
// /stats as live.wal). The error counters are cumulative since open;
// dir_sync_errors counts best-effort directory fsync failures after
// compaction renames — a durability downgrade operators should see,
// not a request failure.
type WALStats struct {
	Len           int   `json:"len"`
	AppendErrors  int64 `json:"append_errors"`
	SyncErrors    int64 `json:"sync_errors"`
	DirSyncErrors int64 `json:"dir_sync_errors"`
}

// Stats returns the log's current counters. Len is only meaningful
// under the owner's serialization, the error counters are atomic.
func (w *WAL) Stats() WALStats {
	return WALStats{
		Len:           w.records,
		AppendErrors:  w.appendErrs.Load(),
		SyncErrors:    w.syncErrs.Load(),
		DirSyncErrors: w.dirSyncErrs.Load(),
	}
}

const (
	walMagic      = "HWLWAL01"
	walRecordSize = 12 // int32 a, int32 b, crc32c(a,b)
)

var walTable = crc32.MakeTable(crc32.Castagnoli)

func walSum(a, b int32) uint32 {
	var p [8]byte
	binary.LittleEndian.PutUint32(p[0:4], uint32(a))
	binary.LittleEndian.PutUint32(p[4:8], uint32(b))
	return crc32.Checksum(p[:], walTable)
}

// walEncode maps an op to its stored endpoint pair: inserts store the
// endpoints as-is, deletes store both one's-complemented (negative).
func walEncode(op core.Op) (a, b int32) {
	if op.Del {
		return ^op.A, ^op.B
	}
	return op.A, op.B
}

// walDecode is walEncode's inverse. ok is false for a mixed-sign pair,
// which no append ever produces: recovery treats it as tail corruption.
func walDecode(a, b int32) (op core.Op, ok bool) {
	switch {
	case a >= 0 && b >= 0:
		return core.Op{A: a, B: b}, true
	case a < 0 && b < 0:
		return core.Op{A: ^a, B: ^b, Del: true}, true
	default:
		return core.Op{}, false
	}
}

// OpenWAL opens (creating if absent) the edge log at path, scans it,
// truncates any torn or corrupt tail, and retains the surviving records
// for Recovered. The file stays open for appends until Close.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	w := &WAL{path: path, f: f}
	if err := w.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// recover scans the log from the start, keeping every intact record and
// truncating the file at the first torn or corrupt one.
func (w *WAL) recover() error {
	info, err := w.f.Stat()
	if err != nil {
		return fmt.Errorf("wal: stat: %w", err)
	}
	if info.Size() == 0 {
		// Fresh log: stamp the magic so a later open can tell "new log"
		// from "not a log".
		if _, err := w.f.Write([]byte(walMagic)); err != nil {
			return fmt.Errorf("wal: init: %w", err)
		}
		w.off = int64(len(walMagic))
		return w.f.Sync()
	}
	var magic [len(walMagic)]byte
	if _, err := io.ReadFull(w.f, magic[:]); err != nil || string(magic[:]) != walMagic {
		return fmt.Errorf("wal: %s is not an edge log (bad magic)", w.path)
	}
	good := int64(len(walMagic))
	rec := make([]byte, walRecordSize)
	for {
		_, err := io.ReadFull(w.f, rec)
		if err != nil {
			break // EOF or torn tail: keep what we have
		}
		a := int32(binary.LittleEndian.Uint32(rec[0:4]))
		b := int32(binary.LittleEndian.Uint32(rec[4:8]))
		if binary.LittleEndian.Uint32(rec[8:12]) != walSum(a, b) {
			break // corrupt record: everything after it is suspect
		}
		op, ok := walDecode(a, b)
		if !ok {
			break // mixed-sign endpoints: no append writes these
		}
		w.recovered = append(w.recovered, op)
		good += walRecordSize
	}
	w.records = len(w.recovered)
	if good != info.Size() {
		if err := w.f.Truncate(good); err != nil {
			return fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	if _, err := w.f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("wal: seek: %w", err)
	}
	w.off = good
	return nil
}

// Recovered returns the ops that were in the log when it was opened, in
// append order. The caller replays them and must not modify the slice.
func (w *WAL) Recovered() []core.Op { return w.recovered }

// Len returns the number of records currently in the log.
func (w *WAL) Len() int { return w.records }

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// SnapshotPath returns the path of the graph+index snapshot written
// next to the log by a checkpoint (a single file, so
// the graph and the index can never be persisted out of step). LoadLive
// prefers it over the base files when it exists.
func (w *WAL) SnapshotPath() string { return w.path + ".snap" }

// Append logs a batch of insertions; AppendOps is the general form.
func (w *WAL) Append(edges [][2]int32) error {
	return w.AppendOps(core.InsertOps(edges))
}

// AppendOps logs a batch of edge mutations with a single fsync (group
// commit: the whole batch becomes durable together, amortizing the sync
// over the batch). The ops are durable when AppendOps returns nil.
//
// On any failure — write error, short write, fsync error — the file is
// truncated back to the last acknowledged record before the error is
// returned, so a restart never replays ops the caller was told were not
// accepted. If even the truncation fails the WAL fails stop.
func (w *WAL) AppendOps(ops []core.Op) error {
	if w.f == nil {
		return fmt.Errorf("wal: log handle lost (failed compaction reopen or closed)")
	}
	if len(ops) == 0 {
		return nil
	}
	w.buf = w.buf[:0]
	for _, op := range ops {
		a, b := walEncode(op)
		var rec [walRecordSize]byte
		binary.LittleEndian.PutUint32(rec[0:4], uint32(a))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(b))
		binary.LittleEndian.PutUint32(rec[8:12], walSum(a, b))
		w.buf = append(w.buf, rec[:]...)
	}
	if err := failpoint.Eval(FPWALAppend); err != nil {
		w.appendErrs.Add(1)
		return fmt.Errorf("wal: append: %w", err)
	}
	var werr error
	if failpoint.Enabled(FPWALAppendShort) {
		if err := failpoint.Eval(FPWALAppendShort); err != nil {
			// Simulated torn write: part of the batch reaches the file
			// before the "device" fails, exactly like a crash or a full
			// disk mid-write. The repair below must erase it.
			w.f.Write(w.buf[:len(w.buf)/2])
			werr = fmt.Errorf("wal: append: %w", err)
		}
	}
	if werr == nil {
		if _, err := w.f.Write(w.buf); err != nil {
			werr = fmt.Errorf("wal: append: %w", err)
		}
	}
	if werr != nil {
		w.appendErrs.Add(1)
		if rerr := w.repairTail(); rerr != nil {
			werr = fmt.Errorf("%w (tail repair also failed, log disabled: %v)", werr, rerr)
		}
		return werr
	}
	serr := failpoint.Eval(FPWALSync)
	if serr == nil {
		serr = w.f.Sync()
	}
	if serr != nil {
		w.syncErrs.Add(1)
		// The batch is not acknowledged, so its bytes must not survive:
		// leaving them would make a restart replay writes the client was
		// told failed. (If the failed fsync means the truncate is not
		// durable either, the bytes were never going to survive a crash
		// anyway — the repair keeps the healthy-kernel case honest.)
		err := fmt.Errorf("wal: fsync: %w", serr)
		if rerr := w.repairTail(); rerr != nil {
			err = fmt.Errorf("%w (tail repair also failed, log disabled: %v)", err, rerr)
		}
		return err
	}
	w.off += int64(len(w.buf))
	w.records += len(ops)
	return nil
}

// repairTail truncates the file back to the durable offset after a
// failed append, restoring the invariant that the on-disk log ends at
// the last acknowledged record. If the repair itself fails the handle
// is dropped (fail stop): every later Append errors rather than
// appending after an undefined tail.
func (w *WAL) repairTail() error {
	if err := w.f.Truncate(w.off); err != nil {
		w.f.Close()
		w.f = nil
		return err
	}
	if _, err := w.f.Seek(w.off, io.SeekStart); err != nil {
		w.f.Close()
		w.f = nil
		return err
	}
	return nil
}

// Probe checks that the log can still reach stable storage (an fsync of
// the current file, through the same failpoint as Append's sync). The
// degraded-mode recovery loop calls this to decide when to re-enable
// writes.
func (w *WAL) Probe() error {
	if w.f == nil {
		return fmt.Errorf("wal: log handle lost (failed compaction reopen or closed)")
	}
	if err := failpoint.Eval(FPWALSync); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// CompactTo atomically replaces the log's contents with the given ops
// (those accepted after the snapshot the caller just persisted): a new
// log is written and fsynced beside the old one, then renamed over it.
// A crash at any point leaves either the old or the new log intact, and
// because replay is idempotent, either is correct against the snapshot.
//
// If the rename succeeds but the handle cannot be pointed at the new
// log, the WAL fails stop: the stale handle (now an unlinked inode) is
// dropped and every subsequent Append errors rather than acknowledging
// writes that would vanish with the process.
func (w *WAL) CompactTo(ops []core.Op) error {
	if w.f == nil {
		return fmt.Errorf("wal: log handle lost (failed compaction reopen or closed)")
	}
	if err := failpoint.Eval(FPWALCompact); err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	tmp := w.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	nw := &WAL{path: tmp, f: f, off: int64(len(walMagic))}
	if _, err := f.Write([]byte(walMagic)); err == nil {
		err = nw.AppendOps(ops)
	}
	if err == nil {
		err = f.Sync() // Append only syncs non-empty batches; the magic must hit disk too
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: compact: %w", err)
	}
	if err := os.Rename(tmp, w.path); err != nil {
		// The old log is still in place and the handle still valid:
		// nothing changed, the caller may retry later.
		os.Remove(tmp)
		return fmt.Errorf("wal: compact: %w", err)
	}
	if err := syncDir(filepath.Dir(w.path)); err != nil {
		w.dirSyncErrs.Add(1)
	}
	// The path now names the new log; the old handle points at an
	// unlinked inode and must not receive further appends.
	w.f.Close()
	w.f = nil
	nf, err := os.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopen after compact: %w", err)
	}
	end, err := nf.Seek(0, io.SeekEnd)
	if err != nil {
		nf.Close()
		return fmt.Errorf("wal: reopen after compact: %w", err)
	}
	w.f = nf
	w.off = end
	w.records = len(ops)
	return nil
}

// Close syncs and closes the log file.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// syncDir fsyncs a directory so a just-renamed file is durable. Still
// best effort — some filesystems reject directory fsync and the rename
// itself is atomic — but the error is returned so callers can count
// the durability downgrade instead of losing it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
