package serve

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"highway/internal/container"
	"highway/internal/core"
	"highway/internal/failpoint"
	"highway/internal/graph"
)

// LiveConfig tunes an updatable Server. The zero value serves live
// updates in memory only (no WAL, so nothing to checkpoint).
type LiveConfig struct {
	Config

	// WAL, when non-nil, makes accepted writes durable: every batch is
	// appended (one fsync per request) before it is applied, and a
	// background checkpoint persists the served snapshot next to the log
	// and compacts the log. The server owns the WAL once passed in and
	// closes it in Close.
	WAL *WAL

	// RebuildThreshold is the WAL length, in records, that triggers a
	// checkpoint (nothing is rebuilt; the name is pinned by the benchmark
	// harness). 0 means DefaultRebuildThreshold; negative never
	// checkpoints. Ignored without a WAL.
	RebuildThreshold int

	// RebuildGrowth is read by nothing: the label-growth trigger went
	// with the background rebuild. The field stays only because the
	// benchmark harness sets it (ROADMAP item 1(c) retires it).
	RebuildGrowth float64

	// EpochBase seeds the snapshot epoch counter. A replicating primary
	// passes its persisted generation shifted into the high 32 bits
	// (cluster.NextGeneration), so every epoch it ever publishes is
	// strictly above those of any earlier primary incarnation — the
	// ordering epoch fencing rests on. 0 (the default) preserves the
	// single-node behavior: epochs count 1, 2, 3, ...
	EpochBase uint64

	// OnCommit, when non-nil, is called after every accepted write
	// batch, with the epoch it became visible at, while the writer lock
	// is still held — calls arrive strictly in epoch order and before
	// the write is acknowledged. It must not block (the cluster shipper
	// enqueues and returns) and must not call back into the server's
	// write path.
	OnCommit func(epoch uint64, ops []core.Op)
}

// DefaultRebuildThreshold is the WAL length that triggers a checkpoint
// when LiveConfig.RebuildThreshold is zero.
const DefaultRebuildThreshold = 8192

// The live server's timings. Variables so the package's tests can
// shorten them; a server reads them once, in NewLive.
var (
	// degradedProbeInterval is how often a degraded server probes the WAL
	// (an fsync of the open log) to decide whether writes can be
	// re-enabled.
	degradedProbeInterval = 250 * time.Millisecond
	// rebuildRetryBase and rebuildRetryMax bound the exponential backoff
	// between retries of a failed checkpoint: the first retry fires after
	// the base, each consecutive failure doubles the wait, capped at the
	// max.
	rebuildRetryBase = time.Second
	rebuildRetryMax  = time.Minute
)

// InsertResult reports one accepted update batch.
type InsertResult struct {
	// Accepted is the number of edges validated and (if a WAL is
	// configured) durably logged — the whole batch, including edges that
	// turn out to be duplicates or self-loops.
	Accepted int `json:"accepted"`
	// Inserted is the number of edges that were actually new.
	Inserted int `json:"inserted"`
	// Epoch is the snapshot epoch the batch is visible at: every read
	// that starts after InsertEdges returns sees at least this epoch.
	Epoch uint64 `json:"epoch"`
}

// DeleteResult reports one accepted deletion batch (the decremental
// mirror of InsertResult).
type DeleteResult struct {
	// Accepted is the number of edges validated and (if a WAL is
	// configured) durably logged — the whole batch, including edges that
	// turn out to be absent or self-loops.
	Accepted int `json:"accepted"`
	// Deleted is the number of edges that were actually removed.
	Deleted int `json:"deleted"`
	// Epoch is the snapshot epoch the batch is visible at.
	Epoch uint64 `json:"epoch"`
}

// updater is the writer half of a live server. All fields are guarded
// by mu except the atomic monitoring counters at the bottom.
type updater struct {
	mu  sync.Mutex
	cfg LiveConfig
	// probeEvery, retryBase and retryMax are the package's timings as
	// NewLive found them.
	probeEvery, retryBase, retryMax time.Duration

	// rows takes every accepted batch, and cur is the index it last
	// returned: always identical to a from-scratch build on the current
	// edge set (core.Rows.ApplyOps), which is what makes WAL replay and
	// snapshot publication exact.
	rows *core.Rows
	cur  *core.Index
	wal  *WAL // nil when running without durability

	// delta collects the ops accepted while a checkpoint is in flight:
	// the ones its snapshot does not cover, which the log is compacted
	// down to.
	delta         []core.Op
	checkpointing bool
	closed        bool
	wg            sync.WaitGroup // in-flight checkpoint + recovery-probe goroutines
	// closeCh is closed by Close; the recovery probe selects on it so
	// shutdown never waits out a probe interval.
	closeCh chan struct{}

	// Degraded read-only mode (mu-guarded; degradedFlag mirrors
	// `degraded` for lock-free /readyz checks). probing is true while the
	// recovery-probe goroutine is alive.
	degraded       bool
	degradedReason string
	probing        bool

	// Checkpoint retry state: consecutive failures drive a capped
	// exponential backoff; retryTimer is the pending retry (nil if none).
	checkpointFails int
	retryTimer      *time.Timer

	// Monitoring counters (read lock-free by /stats).
	epoch            atomic.Uint64
	checkpoints      atomic.Int64
	checkpointErrs   atomic.Int64
	lastCheckpointNs atomic.Int64
	acceptedTotal    atomic.Int64
	degradedFlag     atomic.Bool
	writesRejected   atomic.Int64
	recoveries       atomic.Int64
	acceptedDeletes  atomic.Int64
	deletedTotal     atomic.Int64
	repairs          atomic.Int64 // batches that re-ran some landmark
}

// NewLive returns an updatable Server seeded from ix. If cfg.WAL is set,
// any ops (insertions and deletions) recovered from the log are replayed
// first (onto core.RowsOf(ix), which shares ix and leaves it intact),
// so the served snapshot reflects every write acknowledged before a
// crash. The server takes ownership of the WAL.
func NewLive(ix *core.Index, cfg LiveConfig) (*Server, error) {
	// The server owns cfg.WAL from here on, including on error paths.
	fail := func(err error) (*Server, error) {
		if cfg.WAL != nil {
			cfg.WAL.Close()
		}
		return nil, err
	}
	s := New(ix, cfg.Config)
	up := &updater{cfg: cfg, rows: core.RowsOf(ix), cur: ix, wal: cfg.WAL, closeCh: make(chan struct{}),
		probeEvery: degradedProbeInterval, retryBase: rebuildRetryBase, retryMax: rebuildRetryMax}
	s.up, s.writable = up, true
	up.epoch.Store(cfg.EpochBase)
	if cfg.EpochBase != 0 {
		s.snap.Store(newSnapshot(ix, cfg.EpochBase))
	}
	if up.wal != nil {
		if rec := up.wal.Recovered(); len(rec) > 0 {
			if _, err := up.apply(rec); err != nil {
				return fail(fmt.Errorf("serve: wal replay: %w", err))
			}
			s.snap.Store(newSnapshot(up.cur, up.epoch.Add(1)))
		}
		// A log recovered past the threshold is checkpointed now: waiting
		// for a write would replay all of it on every read-mostly restart.
		up.mu.Lock()
		up.maybeCheckpoint()
		up.mu.Unlock()
	}
	return s, nil
}

// LoadLive assembles a live server from files: it loads the newest
// persisted state (the snapshot next to the WAL if a checkpoint wrote
// one, else the base graph+index files), opens the WAL at walPath and
// replays it. This is the crash-recovery entry point hlserve uses; the
// combination (snapshot ⊕ WAL replay) always reconstructs exactly the
// acknowledged edge set, because compaction persists the snapshot
// before truncating the log and replay is idempotent.
func LoadLive(graphPath, indexPath, walPath string, cfg LiveConfig) (*Server, error) {
	wal, err := OpenWAL(walPath)
	if err != nil {
		return nil, err
	}
	// Only a checkpoint that does not exist selects the base files: the
	// log was compacted against the snapshot, so starting from the base
	// because the snapshot cannot be read would drop acknowledged writes.
	var ix *core.Index
	f, err := os.Open(wal.SnapshotPath())
	if err == nil {
		if _, ix, err = DecodeSnapshot(f); err != nil {
			err = fmt.Errorf("serve: %s: %w", f.Name(), err)
		}
		f.Close()
	}
	if errors.Is(err, fs.ErrNotExist) {
		var g *graph.Graph
		g, err = graph.LoadBinary(graphPath)
		if err == nil {
			ix, err = core.Load(indexPath, g)
		}
	}
	if err != nil {
		wal.Close()
		return nil, err
	}
	cfg.WAL = wal
	return NewLive(ix, cfg) // NewLive owns (and closes) the WAL on failure
}

// writeSnapshot persists graph+index as one file (EncodeSnapshot), fsynced
// before an atomic rename into place — only after this returns may the WAL
// be compacted, or a power failure could lose acknowledged edges — so the
// two can never be on disk out of step. The WAL (may be nil) only receives
// the directory-fsync error count.
func writeSnapshot(path string, g *graph.Graph, ix *core.Index, w *WAL) error {
	err := failpoint.Eval(FPSnapshotWrite)
	if err == nil {
		err = container.SaveFile(path, true, func(f io.Writer) error { return EncodeSnapshot(f, g, ix) })
	}
	if err != nil {
		return fmt.Errorf("serve: snapshot: %w", err)
	}
	if derr := syncDir(filepath.Dir(path)); derr != nil && w != nil {
		w.dirSyncErrs.Add(1)
	}
	return nil
}

// InsertEdges accepts a batch of undirected edge insertions: validates
// every endpoint (the whole batch is rejected on any invalid vertex —
// no partial application), appends the batch to the WAL with one fsync,
// applies it to the labelling, and publishes a fresh snapshot
// that every subsequent read observes. Duplicate edges and self-loops
// are accepted but ignored (counted in Accepted, not Inserted), which
// is what makes WAL replay idempotent. Safe for concurrent use; writers
// are serialized, readers never blocked.
func (s *Server) InsertEdges(edges [][2]int32) (InsertResult, error) {
	res, epoch, err := s.mutate(core.InsertOps(edges))
	if err != nil {
		return InsertResult{}, err
	}
	return InsertResult{Accepted: len(edges), Inserted: res.Inserted, Epoch: epoch}, nil
}

// DeleteEdges accepts a batch of undirected edge deletions with the
// same contract as InsertEdges: whole-batch validation, one WAL fsync
// (deletions are logged as one's-complement records in the same log),
// decremental repair of the labelling, and a fresh snapshot published
// before the call returns. Edges that are absent — including ones
// already deleted, which is what makes replay idempotent — and
// self-loops are acked but ignored (Accepted, not Deleted).
func (s *Server) DeleteEdges(edges [][2]int32) (DeleteResult, error) {
	res, epoch, err := s.mutate(core.DeleteOps(edges))
	if err != nil {
		return DeleteResult{}, err
	}
	return DeleteResult{Accepted: len(edges), Deleted: res.Deleted, Epoch: epoch}, nil
}

// mutate is the single writer path shared by InsertEdges and
// DeleteEdges: validate → WAL append (one fsync) → apply
// (core.Rows.ApplyOps) → publish snapshot → bump counters → maybe kick a checkpoint.
func (s *Server) mutate(ops []core.Op) (core.OpResult, uint64, error) {
	if s.up == nil {
		return core.OpResult{}, 0, ErrReadOnly
	}
	n := s.n.Load()
	for _, op := range ops {
		if op.A < 0 || int64(op.A) >= n || op.B < 0 || int64(op.B) >= n {
			return core.OpResult{}, 0, fmt.Errorf("%w: {%d,%d} outside [0,%d)", ErrEdgeRange, op.A, op.B, n)
		}
	}
	up := s.up
	up.mu.Lock()
	defer up.mu.Unlock()
	if up.closed {
		return core.OpResult{}, 0, ErrClosed
	}
	if up.degraded {
		up.writesRejected.Add(1)
		return core.OpResult{}, 0, fmt.Errorf("%w: %s", ErrDegraded, up.degradedReason)
	}
	if len(ops) == 0 {
		return core.OpResult{}, up.epoch.Load(), nil
	}
	// Durability first: the batch must be on disk before any state the
	// crash-recovery path cannot reconstruct is mutated.
	if up.wal != nil {
		if err := up.wal.AppendOps(ops); err != nil {
			// The WAL cleaned its own tail up (or failed stop); the server
			// transitions to degraded read-only mode rather than serving
			// per-request 500s from a log that is unlikely to heal before
			// the next request. This request itself carries the degraded
			// taxonomy too, so clients see one consistent signal.
			up.enterDegradedLocked(err)
			up.writesRejected.Add(1)
			return core.OpResult{}, 0, fmt.Errorf("%w: %w", ErrDegraded, err)
		}
	}
	res, err := up.apply(ops)
	if err != nil {
		// Unreachable after the validation above; keep the state
		// machine honest anyway.
		return core.OpResult{}, 0, err
	}
	epoch := up.epoch.Add(1)
	s.snap.Store(newSnapshot(up.cur, epoch))
	if up.cfg.OnCommit != nil {
		// Under mu: commits reach the hook strictly in epoch order,
		// before the write is acked, which is what lets the cluster
		// shipper promise "every acked batch was enqueued for shipping".
		up.cfg.OnCommit(epoch, ops)
	}

	var dels int64
	for _, op := range ops {
		if op.Del {
			dels++
		}
	}
	up.acceptedTotal.Add(int64(len(ops)) - dels)
	up.acceptedDeletes.Add(dels)
	up.deletedTotal.Add(int64(res.Deleted))
	if up.checkpointing {
		up.delta = append(up.delta, ops...)
	}
	up.maybeCheckpoint()
	return res, epoch, nil
}

// apply (mu held, or before the server is shared) applies a batch to the
// labelling and makes the index it returns the current one.
func (up *updater) apply(ops []core.Op) (core.OpResult, error) {
	next, res, err := up.rows.ApplyOps(ops)
	if err != nil {
		return res, err
	}
	up.cur = next
	if res.Dirty > 0 {
		up.repairs.Add(1)
	}
	return res, nil
}

// enterDegradedLocked (mu held) flips the server into degraded
// read-only mode and starts the recovery probe if one is not already
// running. Reads are untouched — the last published snapshot keeps
// serving — while every write is rejected with ErrDegraded until the
// probe finds the WAL writable again.
func (up *updater) enterDegradedLocked(cause error) {
	if up.degraded {
		return
	}
	up.degraded = true
	up.degradedReason = cause.Error()
	up.degradedFlag.Store(true)
	if up.probing || up.closed {
		return
	}
	up.probing = true
	up.wg.Add(1)
	go up.recoveryProbe()
}

// recoveryProbe periodically fsyncs the WAL while the server is
// degraded; the first success re-arms writes and ends the probe. The
// probe also ends on Close or if something else already cleared the
// degraded state.
func (up *updater) recoveryProbe() {
	defer up.wg.Done()
	ticker := time.NewTicker(up.probeEvery)
	defer ticker.Stop()
	for {
		select {
		case <-up.closeCh:
			up.mu.Lock()
			up.probing = false
			up.mu.Unlock()
			return
		case <-ticker.C:
		}
		up.mu.Lock()
		if up.closed || !up.degraded {
			up.probing = false
			up.mu.Unlock()
			return
		}
		// Degraded mode is only entered on a WAL failure, so wal != nil.
		if err := up.wal.Probe(); err != nil {
			up.degradedReason = err.Error()
			up.mu.Unlock()
			continue
		}
		up.degraded = false
		up.degradedReason = ""
		up.degradedFlag.Store(false)
		up.recoveries.Add(1)
		up.probing = false
		up.mu.Unlock()
		return
	}
}

// Degraded reports whether the server is in degraded read-only mode
// (lock-free; /readyz polls this).
func (s *Server) Degraded() bool {
	return s.up != nil && s.up.degradedFlag.Load()
}

// maybeCheckpoint (mu held) starts the checkpoint goroutine if the log
// has reached the threshold and none is running.
func (up *updater) maybeCheckpoint() {
	// A pending retryTimer means a failed checkpoint is waiting out its
	// backoff; letting every write re-fire the trigger would turn the
	// backoff into a retry storm.
	if up.wal == nil || up.checkpointing || up.closed || up.retryTimer != nil {
		return
	}
	th := up.cfg.RebuildThreshold
	if th == 0 {
		th = DefaultRebuildThreshold
	}
	if th < 0 || up.wal.Len() < th {
		return
	}
	// The current index is immutable and equals base ⊕ the whole log; the
	// ops accepted from here on are collected in delta (empty between
	// checkpoints).
	up.checkpointing = true
	up.wg.Add(1)
	go up.checkpoint(up.cur.Graph(), up.cur)
}

// scheduleRetryLocked (mu held) arms a one-shot timer that re-evaluates
// the trigger after a capped exponential backoff: base·2^(fails-1),
// clamped to retryMax. Until a checkpoint lands the log keeps
// growing, which costs restart time and never an answer.
func (up *updater) scheduleRetryLocked() {
	up.checkpointFails++
	if up.closed || up.retryTimer != nil {
		return
	}
	wait := up.retryBase
	for i := 1; i < up.checkpointFails && wait < up.retryMax; i++ {
		wait *= 2
	}
	wait = min(wait, up.retryMax)
	up.retryTimer = time.AfterFunc(wait, func() {
		up.mu.Lock()
		defer up.mu.Unlock()
		up.retryTimer = nil
		up.maybeCheckpoint()
	})
}

// checkpoint bounds the log without computing anything: the maintained
// labelling is already the unique minimal one for the current edge set,
// so the served snapshot is what a rebuild would produce. g and ix are
// immutable, so the (possibly long) disk write runs outside the writer
// lock and stalls neither writes nor /stats. Nothing is published: the
// epoch, the served index and the searcher pool are untouched.
//
// The order is the crash-safety argument: only once the snapshot is
// durable is the log compacted to the ops it does not cover. A crash in
// between replays the old, longer log over the new snapshot, which
// idempotence makes exact.
func (up *updater) checkpoint(g *graph.Graph, ix *core.Index) {
	defer up.wg.Done()
	start := time.Now()
	err := writeSnapshot(up.wal.SnapshotPath(), g, ix, up.wal)

	up.mu.Lock()
	defer up.mu.Unlock()
	up.checkpointing = false
	delta := up.delta
	up.delta = nil
	if up.closed {
		return
	}
	if err == nil {
		err = up.wal.CompactTo(delta)
	}
	if err != nil {
		// Surfaced in /stats; the retry timer brings the checkpoint back.
		up.checkpointErrs.Add(1)
		up.scheduleRetryLocked()
		return
	}
	up.checkpoints.Add(1)
	up.lastCheckpointNs.Store(int64(time.Since(start)))
	up.checkpointFails = 0
}

// Rebuilding reports whether a checkpoint is in flight.
func (s *Server) Rebuilding() bool {
	if s.up == nil {
		return false
	}
	s.up.mu.Lock()
	defer s.up.mu.Unlock()
	return s.up.checkpointing
}

// Close shuts the writer side down: it waits for an in-flight
// checkpoint to finish and closes the WAL. Reads keep working
// against the last snapshot; InsertEdges returns ErrClosed afterwards.
// Close is a no-op on read-only servers.
func (s *Server) Close() error {
	if s.up == nil {
		return nil
	}
	up := s.up
	up.mu.Lock()
	if up.closed {
		up.mu.Unlock()
		return nil
	}
	up.closed = true
	if up.retryTimer != nil {
		up.retryTimer.Stop()
		up.retryTimer = nil
	}
	close(up.closeCh)
	up.mu.Unlock()
	up.wg.Wait()
	if up.wal != nil {
		return up.wal.Close()
	}
	return nil
}

// LiveStats is the snapshot/WAL/checkpoint section of /stats, present
// only on live servers. The rebuild_* JSON keys (and the Go names the
// benchmark harness reads) predate the checkpoint and are kept.
type LiveStats struct {
	Epoch         uint64 `json:"epoch"`
	AcceptedEdges int64  `json:"accepted_edges"`
	WALEnabled    bool   `json:"wal_enabled"`
	// WALLen is the number of accepted ops no checkpoint covers yet: the
	// WAL length (0 without a WAL).
	WALLen int `json:"wal_len"`
	// Rebuilds counts completed checkpoints (snapshot durable and log
	// compacted), RebuildErrors the failed attempts.
	Rebuilds      int64   `json:"rebuilds"`
	RebuildErrors int64   `json:"rebuild_errors"`
	Rebuilding    bool    `json:"rebuilding"`
	LastRebuildMs float64 `json:"last_rebuild_ms"`

	// Deletion counters: accepted delete ops (whole batches, including
	// no-ops) and edges actually removed.
	AcceptedDeletes int64 `json:"accepted_deletes"`
	EdgesDeleted    int64 `json:"edges_deleted"`
	// SelectiveRepairs counts the batches (the start-up WAL replay
	// included) that re-ran at least one landmark's pruned BFS.
	SelectiveRepairs int64 `json:"selective_repairs"`

	// Degraded read-only mode: true while the WAL is unwritable. Writes
	// are rejected (counted in WritesRejected) and Recoveries counts
	// degraded→live transitions.
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	WritesRejected int64  `json:"writes_rejected"`
	Recoveries     int64  `json:"recoveries"`

	// RebuildFails counts consecutive checkpoint failures (reset on
	// success); while non-zero a capped-exponential-backoff retry is
	// pending or running.
	RebuildFails int `json:"rebuild_fails_consecutive"`

	// WAL is the log's own counters (nil when running without one).
	WAL *WALStats `json:"wal,omitempty"`
}

// LiveStats returns the live-serving counters, or nil on a read-only
// server.
func (s *Server) LiveStats() *LiveStats {
	up := s.up
	if up == nil {
		return nil
	}
	up.mu.Lock()
	st := &LiveStats{
		Epoch:            up.epoch.Load(),
		AcceptedEdges:    up.acceptedTotal.Load(),
		WALEnabled:       up.wal != nil,
		Rebuilds:         up.checkpoints.Load(),
		RebuildErrors:    up.checkpointErrs.Load(),
		Rebuilding:       up.checkpointing,
		LastRebuildMs:    float64(up.lastCheckpointNs.Load()) / 1e6,
		AcceptedDeletes:  up.acceptedDeletes.Load(),
		EdgesDeleted:     up.deletedTotal.Load(),
		SelectiveRepairs: up.repairs.Load(),
		Degraded:         up.degraded,
		DegradedReason:   up.degradedReason,
		WritesRejected:   up.writesRejected.Load(),
		Recoveries:       up.recoveries.Load(),
		RebuildFails:     up.checkpointFails,
	}
	if up.wal != nil {
		st.WALLen = up.wal.Len()
		ws := up.wal.Stats()
		st.WAL = &ws
	}
	up.mu.Unlock()
	return st
}
