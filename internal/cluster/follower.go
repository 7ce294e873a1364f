package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"highway/internal/core"
	"highway/internal/dynhl"
	"highway/internal/graph"
	"highway/internal/serve"
)

// Follower is the receiving side of WAL shipping: a read-only server
// whose state arrives from the primary as one streamed snapshot
// followed by per-batch TReplAppend frames, each applied through the
// same dynamic-labelling maintenance the primary runs. Followers keep
// no log of their own — durability lives in the primary's WAL, and a
// follower that restarts (or falls off the shipping queue) is healed
// by a fresh snapshot transfer — so its labelling is always exactly
// what a from-scratch build over the replicated edge set would
// produce, byte for byte.
//
// A Follower serves reads the moment its first snapshot installs;
// until then /readyz answers 503 (Bootstrapped=false) and replication
// appends fail so the primary falls back to a snapshot transfer.
type Follower struct {
	srv *serve.Server

	// mu orders state installation: frames can arrive concurrently over
	// the primary's pooled connections, but applies and snapshot
	// installs must be serial — the epoch check and the mutation have
	// to be one atomic step.
	mu           sync.Mutex
	dyn          *dynhl.Index // nil until bootstrapped
	epoch        atomic.Uint64
	bootstrapped atomic.Bool

	// In-flight snapshot transfer (guarded by mu): chunks accumulate
	// until the done chunk installs them. A transfer at a newer epoch
	// abandons a stale half-finished one. The buffer is a graph and an
	// index long, so it is dropped, not Reset, whenever a transfer ends.
	snapEpoch uint64
	snapBuf   bytes.Buffer

	applied atomic.Int64 // batches applied
	fenced  atomic.Int64 // stale-epoch frames rejected
	resyncs atomic.Int64 // snapshots installed
}

// NewFollower builds a follower and its serving front end. The server
// starts on a 1-vertex placeholder index — readable wire-wise but
// gated by /readyz — and swaps to real state when the first snapshot
// lands. cfg is the usual serving configuration (batch caps,
// admission budgets, shutdown grace).
func NewFollower(cfg serve.Config) (*Follower, error) {
	// The placeholder must be a genuine index: the serving snapshot
	// machinery (searcher pools, stats) is exercised before bootstrap
	// by health checks. One vertex (its own landmark), zero edges.
	g := graph.MustFromEdges(1, nil)
	ix, err := core.BuildParallel(g, []int32{0})
	if err != nil {
		return nil, fmt.Errorf("cluster: placeholder index: %w", err)
	}
	f := &Follower{srv: serve.New(ix, cfg)}
	f.srv.SetReplication(f)
	f.srv.SetReplicationStats(f.Stats)
	return f, nil
}

// Server returns the serving front end; the caller owns its listeners.
func (f *Follower) Server() *serve.Server { return f.srv }

// Epoch returns the follower's durable epoch — the epoch of the last
// applied batch or installed snapshot.
func (f *Follower) Epoch() uint64 { return f.epoch.Load() }

// ReplAppend implements serve.ReplicationHandler: decode the WAL pair
// batch, fence stale epochs, apply through dynhl, publish the fresh
// snapshot at the shipped epoch.
func (f *Follower) ReplAppend(epoch uint64, pairs [][2]int32) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.epoch.Load()
	if !f.bootstrapped.Load() {
		// Deliberately NOT ErrFenced: the primary reads this as "this
		// follower needs a snapshot", not "I am deposed".
		return cur, fmt.Errorf("cluster: follower awaiting snapshot bootstrap")
	}
	if epoch <= cur {
		f.fenced.Add(1)
		return cur, fmt.Errorf("%w: batch epoch %d at or below durable epoch %d", serve.ErrFenced, epoch, cur)
	}
	ops, err := serve.DecodeWALOps(pairs)
	if err != nil {
		return cur, err
	}
	if _, err := f.dyn.ApplyOps(ops); err != nil {
		return cur, fmt.Errorf("cluster: replicated apply: %w", err)
	}
	_, fresh, err := f.dyn.Freeze()
	if err != nil {
		return cur, fmt.Errorf("cluster: freeze: %w", err)
	}
	f.srv.Publish(fresh, epoch)
	f.epoch.Store(epoch)
	f.applied.Add(1)
	return epoch, nil
}

// ReplSnapshot implements serve.ReplicationHandler: buffer chunks of a
// transfer and install the state when the done chunk arrives. A
// snapshot at the follower's exact epoch is accepted — that makes the
// primary's resync idempotent — and only older ones fence. A transfer of
// one chunk is decoded from that chunk, the frame's own payload, without
// being buffered first.
func (f *Follower) ReplSnapshot(epoch uint64, done bool, chunk []byte) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.epoch.Load()
	if epoch < cur {
		f.fenced.Add(1)
		return cur, fmt.Errorf("%w: snapshot epoch %d below durable epoch %d", serve.ErrFenced, epoch, cur)
	}
	if epoch != f.snapEpoch {
		// A transfer at a new epoch supersedes whatever was in flight.
		f.snapEpoch = epoch
		f.snapBuf = bytes.Buffer{}
	}
	data := chunk
	if !done || f.snapBuf.Len() > 0 {
		f.snapBuf.Write(chunk)
		data = f.snapBuf.Bytes()
	}
	if !done {
		return cur, nil
	}
	_, ix, err := serve.DecodeSnapshotBytes(data)
	f.snapBuf = bytes.Buffer{}
	f.snapEpoch = 0
	if err != nil {
		return cur, fmt.Errorf("cluster: snapshot install: %w", err)
	}
	// The index carries its graph, so FromCore makes the follower's
	// mutable state of the snapshot alone, copying nothing.
	dyn, err := dynhl.FromCore(ix)
	if err != nil {
		return cur, fmt.Errorf("cluster: snapshot install: %w", err)
	}
	f.dyn = dyn
	f.srv.Publish(ix, epoch)
	f.epoch.Store(epoch)
	f.bootstrapped.Store(true)
	f.resyncs.Add(1)
	return epoch, nil
}

// Stats renders the follower's replication section for /stats and the
// /readyz bootstrap gate.
func (f *Follower) Stats() *serve.ReplicationStats {
	return &serve.ReplicationStats{
		Role:         "follower",
		Epoch:        f.epoch.Load(),
		Acked:        f.applied.Load(),
		Fenced:       f.fenced.Load(),
		Resyncs:      f.resyncs.Load(),
		Bootstrapped: f.bootstrapped.Load(),
	}
}
