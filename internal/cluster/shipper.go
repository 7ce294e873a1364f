package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"highway/internal/dynhl"
	"highway/internal/hlclient"
	"highway/internal/serve"
	"highway/internal/wire"
)

// ShipperConfig parameterizes a primary's shipping side.
type ShipperConfig struct {
	// Followers are the binary-protocol addresses of the replica set.
	Followers []string
}

const (
	// queueDepth bounds each follower's in-memory batch queue. A follower
	// that falls further behind than the queue drops off the tail and is
	// healed by a snapshot resync instead of unbounded buffering.
	queueDepth = 256
	// chunkSize is the snapshot-transfer chunk size in bytes. It stays
	// under wire.MaxFrame with room for the 9-byte replication header.
	chunkSize = 4 << 20
)

// retryInterval paces reconnect/resync attempts against a follower that
// is down. A variable so the package's tests can shorten it; a shipper
// reads it once, in NewShipper.
var retryInterval = 200 * time.Millisecond

// followerClient is each follower's client configuration: a single pooled
// connection (ordering), no retries and no breaker (the shipper has its
// own resync state machine).
var followerClient = hlclient.Config{
	PoolSize:         1,
	MaxRetries:       -1,
	BreakerThreshold: -1,
	AttemptTimeout:   30 * time.Second,
}

// shipMsg is one committed write batch queued for a follower: the
// epoch it became visible at, the ops in WAL pair encoding, and the
// enqueue time feeding the lag_ms gauge.
type shipMsg struct {
	epoch uint64
	pairs [][2]int32
	at    int64 // unix nanos
}

// followerLink is one follower's shipping state. The queue is written
// by OnCommit (non-blocking — overflow flips needResync and drops, the
// snapshot heals the hole) and drained by a dedicated goroutine.
type followerLink struct {
	addr string
	q    chan shipMsg

	cl *hlclient.Client // owned by the run goroutine; nil until dialed

	pending    atomic.Int64  // queued-not-yet-resolved batches
	oldestNs   atomic.Int64  // enqueue time of the batch being processed; 0 when idle
	needResync atomic.Bool   // full snapshot required before more appends
	deposed    atomic.Bool   // follower fenced us at an epoch we never acked
	epoch      atomic.Uint64 // follower durable epoch, as of its last ack
}

// Shipper is the primary's replication engine: its OnCommit hook is
// installed as serve.LiveConfig.OnCommit, so every acked write batch
// is enqueued (in epoch order, before the client sees the ack) for
// every follower, and one goroutine per follower drains its queue into
// TReplAppend frames — falling back to a full TReplSnapshot transfer
// whenever the follower is fresh, behind, or unreachable.
type Shipper struct {
	srv   *serve.Server
	retry time.Duration // retryInterval when the shipper was made
	links []*followerLink

	// encMu serializes snapshot encodes and guards snap: the encoding of
	// the newest epoch a link resynced at, shared by every link resyncing
	// at that epoch and dropped when the last of them has sent it. It is
	// taken before the server's writer lock (FrozenState), never under it.
	encMu   sync.Mutex
	snap    *encoding
	encodes atomic.Int64

	shipped atomic.Int64
	acked   atomic.Int64
	fenced  atomic.Int64
	resyncs atomic.Int64
	deposed atomic.Bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewShipper builds a shipper. Wiring order matters around the
// primary's construction: the shipper exists first (so its OnCommit
// can go into serve.LiveConfig), the live server is built, then Start
// launches the per-follower goroutines. OnCommit before Start only
// enqueues; nothing ships until Start provides the server whose
// FrozenState backs snapshot transfers.
func NewShipper(cfg ShipperConfig) *Shipper {
	sh := &Shipper{retry: retryInterval}
	sh.ctx, sh.cancel = context.WithCancel(context.Background())
	for _, addr := range cfg.Followers {
		l := &followerLink{addr: addr, q: make(chan shipMsg, queueDepth)}
		l.needResync.Store(true) // fresh follower: bootstrap snapshot first
		sh.links = append(sh.links, l)
	}
	return sh
}

// Start binds the shipper to its live server and launches one shipping
// goroutine per follower, each beginning with a bootstrap snapshot.
func (sh *Shipper) Start(srv *serve.Server) {
	sh.srv = srv
	for _, l := range sh.links {
		sh.wg.Add(1)
		go sh.run(l)
	}
}

// OnCommit is the serve.LiveConfig.OnCommit hook: called under the
// writer lock for every accepted batch, strictly in epoch order,
// before the write is acknowledged. It must not block — each follower
// gets a non-blocking enqueue, and an overflowing queue is resolved by
// flagging the link for a snapshot resync (whose FrozenState, taken
// later, necessarily covers this batch).
func (sh *Shipper) OnCommit(epoch uint64, ops []dynhl.Op) {
	msg := shipMsg{
		epoch: epoch,
		pairs: serve.EncodeWALOps(make([][2]int32, 0, len(ops)), ops),
		at:    time.Now().UnixNano(),
	}
	for _, l := range sh.links {
		if l.deposed.Load() {
			continue
		}
		select {
		case l.q <- msg:
			l.pending.Add(1)
			sh.shipped.Add(1)
		default:
			l.needResync.Store(true)
		}
	}
}

// Close stops the shipping goroutines and releases the follower
// connections. Queued-but-unshipped batches are abandoned — they are
// durable in the primary's WAL, and the next incarnation's snapshot
// resync delivers their effect.
func (sh *Shipper) Close() {
	sh.cancel()
	sh.wg.Wait()
}

// run drains one follower's queue. The loop alternates between the
// resync state (dial if needed, stream a snapshot, drop queued batches
// the snapshot already covers) and the steady state (ship the next
// queued batch).
func (sh *Shipper) run(l *followerLink) {
	defer sh.wg.Done()
	defer func() {
		if l.cl != nil {
			l.cl.Close()
		}
	}()
	for sh.ctx.Err() == nil {
		if l.deposed.Load() {
			return
		}
		if l.cl == nil {
			cl, err := hlclient.Dial(sh.ctx, l.addr, followerClient)
			if err != nil {
				sh.sleep()
				continue
			}
			l.cl = cl
		}
		if l.needResync.Load() {
			if !sh.doResync(l) {
				sh.sleep()
			}
			continue
		}
		select {
		case <-sh.ctx.Done():
			return
		case msg := <-l.q:
			l.oldestNs.Store(msg.at)
			sh.shipOne(l, msg)
			if l.pending.Add(-1) == 0 {
				l.oldestNs.Store(0)
			}
		}
	}
}

// shipOne sends one batch, classifying the outcome: acked (adopt the
// follower's epoch), fenced-benign (snapshot already covered it),
// fenced-deposed (a newer primary owns this follower — stop), or
// failed (flag a resync; transient transport noise and restarted
// followers end up here and are healed the same way).
func (sh *Shipper) shipOne(l *followerLink, msg shipMsg) {
	if msg.epoch <= l.epoch.Load() {
		// Already covered by a snapshot this link shipped earlier.
		sh.acked.Add(1)
		return
	}
	ep, err := l.cl.ReplAppend(sh.ctx, msg.epoch, msg.pairs)
	if err == nil {
		l.epoch.Store(ep)
		sh.acked.Add(1)
		return
	}
	var re *wire.RemoteError
	if errors.As(err, &re) && re.Code == wire.CodeFenced {
		sh.fenced.Add(1)
		// The follower's durable epoch is at or above msg.epoch. If we
		// never acked that epoch ourselves, someone else advanced the
		// follower past us: this incarnation is deposed.
		if msg.epoch > l.epoch.Load() {
			l.deposed.Store(true)
			sh.deposed.Store(true)
		}
		return
	}
	l.needResync.Store(true)
}

// doResync streams a full snapshot to the follower and, on success,
// discards queued batches the snapshot's epoch already covers (the
// channel is in epoch order, so draining stops at the first batch
// above it). Returns false when the transfer failed and the caller
// should back off.
func (sh *Shipper) doResync(l *followerLink) bool {
	// Clear the flag BEFORE freezing: a batch dropped after this point
	// re-flags the link, and the FrozenState the snapshot is taken at
	// (acquire) is serialized with the commit that dropped it, so
	// re-running the resync covers it.
	l.needResync.Store(false)
	if !sh.sendSnapshot(l) {
		return false
	}
	sh.resyncs.Add(1)
	// Drop queued batches the snapshot covers; the first one above its
	// epoch (and everything after, the queue is ordered) still ships.
	// If a ship fails mid-drain the link is re-flagged, and the rest of
	// the queue must NOT be shipped — the follower accepts any higher
	// epoch, so skipping a failed batch and landing a later one would
	// gap its history. Draining (without shipping) is safe instead:
	// every queued batch was committed before the next FrozenState, so
	// the re-run resync's snapshot covers them.
	for {
		select {
		case msg := <-l.q:
			switch {
			case l.deposed.Load() || l.needResync.Load():
				// resolved by the next resync (or never: deposed)
			case msg.epoch > l.epoch.Load():
				l.oldestNs.Store(msg.at)
				sh.shipOne(l, msg)
			default:
				sh.acked.Add(1) // covered by this snapshot
			}
			if l.pending.Add(-1) == 0 {
				l.oldestNs.Store(0)
			}
		default:
			return true
		}
	}
}

// encoding is one snapshot encoded for shipping: the container bytes of
// the state at epoch, and how many links are still sending them.
type encoding struct {
	epoch uint64
	data  []byte
	users int // guarded by Shipper.encMu
}

// sendSnapshot streams the snapshot of the current state to the follower
// in chunks, adopting its epoch once the last chunk installed. On failure
// it flags the link for another resync, or deposes it on a fence.
func (sh *Shipper) sendSnapshot(l *followerLink) bool {
	enc, err := sh.acquire()
	if err != nil {
		l.needResync.Store(true)
		return false
	}
	defer sh.release(enc)
	for off := 0; ; off += chunkSize {
		end := min(off+chunkSize, len(enc.data))
		done := end == len(enc.data)
		ep, err := l.cl.ReplSnapshot(sh.ctx, enc.epoch, done, enc.data[off:end])
		if err != nil {
			var re *wire.RemoteError
			if errors.As(err, &re) && re.Code == wire.CodeFenced {
				// A snapshot below the follower's epoch: a newer
				// primary owns it.
				sh.fenced.Add(1)
				l.deposed.Store(true)
				sh.deposed.Store(true)
				return false
			}
			l.needResync.Store(true)
			return false
		}
		if done {
			l.epoch.Store(ep)
			return true
		}
	}
}

// acquire returns the encoding of the server's current state: the shared
// one when it is of the current epoch, else a fresh encode that links
// resyncing at this epoch will share. The state is frozen under encMu, so
// links that arrive during an encode wait for it instead of making their
// own.
func (sh *Shipper) acquire() (*encoding, error) {
	sh.encMu.Lock()
	defer sh.encMu.Unlock()
	g, ix, epoch, err := sh.srv.FrozenState()
	if err != nil {
		return nil, err
	}
	if sh.snap == nil || sh.snap.epoch != epoch {
		data, err := serve.SnapshotBytes(g, ix)
		if err != nil {
			return nil, err
		}
		sh.encodes.Add(1)
		sh.snap = &encoding{epoch: epoch, data: data}
	}
	sh.snap.users++
	return sh.snap, nil
}

// release marks one link done with enc. The last one out drops the
// shipper's reference, so an encoding lives only while it is being sent.
func (sh *Shipper) release(enc *encoding) {
	sh.encMu.Lock()
	defer sh.encMu.Unlock()
	if enc.users--; enc.users == 0 && sh.snap == enc {
		sh.snap = nil
	}
}

// sleep pauses between retries, waking early on shutdown.
func (sh *Shipper) sleep() {
	t := time.NewTimer(sh.retry)
	defer t.Stop()
	select {
	case <-sh.ctx.Done():
	case <-t.C:
	}
}

// Stats renders the primary's replication section for /stats.
func (sh *Shipper) Stats() *serve.ReplicationStats {
	var epoch uint64
	if sh.srv != nil {
		epoch = sh.srv.Epoch()
	}
	rs := &serve.ReplicationStats{
		Role:         "primary",
		Epoch:        epoch,
		Shipped:      sh.shipped.Load(),
		Acked:        sh.acked.Load(),
		Fenced:       sh.fenced.Load(),
		Resyncs:      sh.resyncs.Load(),
		Bootstrapped: true,
		Followers:    len(sh.links),
		Deposed:      sh.deposed.Load(),
	}
	now := time.Now().UnixNano()
	for _, l := range sh.links {
		rs.LagBatches += l.pending.Load()
		if at := l.oldestNs.Load(); at != 0 {
			if ms := float64(now-at) / 1e6; ms > rs.LagMs {
				rs.LagMs = ms
			}
		}
	}
	return rs
}
