// Package serve turns a highway cover labelling into a concurrent
// query-serving subsystem: the load-bearing entry point between the
// offline index of the paper and a system answering heavy online
// traffic — including traffic that *mutates the graph while queries are
// being served*.
//
// # Reading
//
// A Server answers exact distance queries from an immutable snapshot, a
// core.Index published behind an atomic pointer, with Searchers drawn
// from the server's pool. Readers load the current snapshot, check out a
// Searcher bound to it, answer allocation-free, and return it — no
// locks, no contention with writers, ever. It also offers
// a high-throughput stdin/stdout batch mode (RunBatch) that streams
// "s t" lines through a bounded worker pipeline in input order.
//
// # One front-end, two backends
//
// The protocol code is written once, as Frontend, against the small
// Backend interface (Distance, DistanceBatch, InsertEdges, DeleteEdges,
// StatsDoc, Readiness). A Server embeds a Frontend whose backend is the
// server itself; internal/cluster's Router embeds another whose backend
// places each request on a replica-set member. Either way the listener
// is the same code:
//
//   - an HTTP/JSON API (Handler lists the routes; Serve) with strict
//     body decoding, a body cap and server timeouts;
//   - a binary wire protocol listener (ServeBinary, specified in
//     PROTOCOL.md): length-prefixed checksummed frames carrying the
//     same requests with pipelining, for native clients
//     (internal/hlclient) that cannot afford the HTTP/1 + JSON protocol
//     tax — both listeners may run at once (ListenAndServeBoth) over
//     the same backend; and
//   - graceful shutdown via context on both.
//
// Every failure on either protocol is classified by ErrorTable
// (errors.go): one row per wire error code, giving its sentinel error,
// HTTP status and whether it carries Retry-After. A router's relayed
// *wire.RemoteError enters the table by its code, so clients see one
// request contract whichever process answers.
//
// # Writing (live servers)
//
// A Server built with NewLive or LoadLive additionally accepts edge
// insertions (POST /edges, or InsertEdges from Go) and deletions
// (DELETE /edges, or DeleteEdges). Writers are serialized behind a
// mutex and never block readers: each accepted batch is (1) appended to
// the write-ahead edge log if one is configured (deletions as
// one's-complement records in the same log), (2) applied by
// core.Rows.ApplyOps, which re-runs the pruned BFS of the landmarks the
// batch dirtied and assembles the next immutable index, and (3) that index
// is atomically swapped in as the snapshot, so the next read observes it.
//
// The WAL makes acknowledged writes durable: appends are batched into
// one fsync per accepted request, and LoadLive replays the log through
// the same ApplyOps on startup, so a crash loses nothing that was
// acknowledged. When the log reaches LiveConfig.RebuildThreshold
// records, a background checkpoint persists the snapshot being served
// next to the WAL and compacts the log to the ops accepted since —
// bounding restart replay time. Nothing is recomputed or published: the
// maintained labelling is already the one a from-scratch build would
// produce, so the epoch and the served index do not move. See DESIGN.md
// for the full lifecycle.
//
// All cross-request state is either immutable (snapshots), atomic
// (counters, the snapshot pointer) or mutex-held (the writer state), so
// every method on Server is safe for concurrent use.
package serve

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"highway/internal/core"
	"highway/internal/failpoint"
	"highway/internal/method"
)

// Config tunes a Server. The zero value is ready for production use.
type Config struct {
	// MaxBatch caps the number of pairs accepted by one batch request
	// and the number of edges accepted by one update request
	// (DefaultMaxBatch when 0). Oversized batches are rejected with 413
	// rather than truncated.
	MaxBatch int

	// ReadBudget and WriteBudget bound concurrent in-flight work per
	// request class, in admission cost units (1 + pairs/1024 per
	// request, so big batches weigh proportionally more). Requests over
	// budget are shed before any work with HTTP 429 / wire Overloaded.
	// 0 means DefaultReadBudget/DefaultWriteBudget; negative disables
	// the gate (unlimited).
	ReadBudget  int
	WriteBudget int
}

// DefaultMaxBatch is the largest batch request accepted when
// Config.MaxBatch is zero. At ~2 µs per query this keeps worst-case
// request latency in the tens of milliseconds.
const DefaultMaxBatch = 100_000

// shutdownGrace bounds how long a listener waits for in-flight requests
// after its context is cancelled, before it closes their connections.
const shutdownGrace = 5 * time.Second

// snapshot is one immutable published state of the server: the highway
// cover index every read of that state answers from.
type snapshot struct {
	ix    *core.Index
	epoch uint64
}

func newSnapshot(ix *core.Index, epoch uint64) *snapshot {
	return &snapshot{ix: ix, epoch: epoch}
}

// Server serves exact distance queries from an atomically swappable
// index snapshot. Create one with New (read-only) or NewLive/LoadLive
// (updatable); the zero value is not usable.
type Server struct {
	// Frontend is the protocol front-end the server listens with; its
	// backend is this server.
	Frontend

	cfg Config
	// n is the served vertex count. Inserts add edges, not vertices, so
	// it is constant on live servers — but a replication follower
	// replaces its whole state when it installs a streamed snapshot
	// (Publish), so reads load it atomically.
	n atomic.Int64

	// snap is the current read state. Readers Load it once per request
	// and work against that immutable snapshot; writers publish a new
	// snapshot with Store. Never mutated in place.
	snap atomic.Pointer[snapshot]

	// up holds the writer state of a live server; nil for read-only
	// servers (New).
	up *updater

	// replStats is wired before the listeners start and read-only
	// afterwards (see repl.go).
	replStats func() *ReplicationStats

	started time.Time
}

// New returns a read-only Server over the highway cover index ix.
func New(ix *core.Index, cfg Config) *Server {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	s := &Server{cfg: cfg, started: time.Now()}
	s.Frontend = Frontend{backend: serverBackend{s}, maxBatch: cfg.MaxBatch}
	s.n.Store(int64(ix.Graph().NumVertices()))
	s.readGate.budget = resolveBudget(cfg.ReadBudget, DefaultReadBudget)
	s.writeGate.budget = resolveBudget(cfg.WriteBudget, DefaultWriteBudget)
	s.snap.Store(newSnapshot(ix, 0))
	return s
}

// Index returns the currently served index snapshot, which is always a
// *core.Index (the method-agnostic return type is kept for callers that
// type-assert it). On a live server a later call may return a newer
// index; the returned index itself is immutable and stays valid.
func (s *Server) Index() method.DistanceIndex { return s.snap.Load().ix }

// Epoch returns the current snapshot epoch: 0 at startup (EpochBase on
// a replicating primary), incremented every time a write publishes a
// new snapshot; a checkpoint does not move it.
func (s *Server) Epoch() uint64 { return s.snap.Load().epoch }

// readIndex returns the index of the current snapshot, which one request
// answers from. Reads go through the index's pooled conveniences, whose
// idle searchers are bound to no index (core's one pool rebinds them at
// checkout): a replaced snapshot is garbage at once, however many reads it
// served, and the first read after a publish allocates no searcher. The
// serve.query failpoint fires here — once per request, on every query
// path of every protocol — so tests can dilate query time without
// touching the index (only delay actions make sense at this site; an
// error action's error is discarded).
func (s *Server) readIndex() *core.Index {
	_ = failpoint.Eval(FPQuery)
	return s.snap.Load().ix
}

// Distance answers one exact distance query against the current
// snapshot. It is the programmatic equivalent of GET /distance and safe
// for concurrent use.
func (s *Server) Distance(sv, tv int32) (int32, error) {
	if err := s.checkVertex(sv); err != nil {
		return core.Infinity, err
	}
	if err := s.checkVertex(tv); err != nil {
		return core.Infinity, err
	}
	return s.readIndex().Distance(sv, tv), nil
}

// DistanceBatch answers len(pairs) queries against one consistent
// snapshot: distances[i] answers pairs[i]. It is the programmatic
// equivalent of POST /distance/batch (and of a binary Batch frame). The
// result is written into dst when it has the capacity; dst may be nil.
// Safe for concurrent use. It is DistanceBatchContext without
// cancellation: the batch always runs to completion.
func (s *Server) DistanceBatch(pairs [][2]int32, dst []int32) ([]int32, error) {
	return s.DistanceBatchContext(context.Background(), pairs, dst)
}

// CancelCheckEvery is the pair granularity at which DistanceBatchContext
// polls its context: a cancelled context stops an in-flight batch within
// about this many pairs.
const CancelCheckEvery = 1024

// DistanceBatchContext is DistanceBatch with cancellation: the batch runs
// through the snapshot index's vectorized executor in chunks of
// CancelCheckEvery pairs, ctx is polled before each chunk, and a
// cancelled ctx abandons the remaining pairs within about one chunk.
// On cancellation it returns ctx.Err() and the prefix of answers
// already computed (dst truncated; answers are valid for their pairs).
func (s *Server) DistanceBatchContext(ctx context.Context, pairs [][2]int32, dst []int32) ([]int32, error) {
	if len(pairs) > s.cfg.MaxBatch {
		return nil, errorf(ErrTooLarge, "batch of %d pairs exceeds limit %d", len(pairs), s.cfg.MaxBatch)
	}
	for i, p := range pairs {
		err := s.checkVertex(p[0])
		if err == nil {
			err = s.checkVertex(p[1])
		}
		if err != nil {
			return nil, fmt.Errorf("pair %d: %w", i, err)
		}
	}
	if cap(dst) < len(pairs) {
		dst = make([]int32, len(pairs))
	}
	dst = dst[:len(pairs)]
	ix := s.readIndex()
	for off := 0; off < len(pairs); off += CancelCheckEvery {
		if err := ctx.Err(); err != nil {
			return dst[:off], err
		}
		end := min(off+CancelCheckEvery, len(pairs))
		ix.DistanceBatch(pairs[off:end], dst[off:end])
	}
	return dst, nil
}

// checkVertex validates a vertex id against the served vertex set
// (inserts add edges, never vertices; only a follower's Publish can
// change n). Its error is an ErrRange.
func (s *Server) checkVertex(v int32) error {
	if n := s.n.Load(); v < 0 || int64(v) >= n {
		return errorf(ErrRange, "vertex %d out of range [0,%d)", v, n)
	}
	return nil
}
