package serve

import (
	"bytes"
	"fmt"
	"io"
	"maps"

	"highway/internal/container"
	"highway/internal/core"
	"highway/internal/graph"
)

// Replication surface: the hooks internal/cluster wires a Server into a
// WAL-shipping replica set with. A follower implements
// ReplicationHandler and registers it with SetReplication, which makes
// the binary listener dispatch TReplAppend/TReplSnapshot frames to it;
// any role installs a stats provider with SetReplicationStats so /stats
// (and /readyz) carry the replication section. The serve package itself
// stays topology-agnostic — it knows how to *receive* replication
// frames and how to expose its frozen state, and nothing about who
// ships to whom (that is internal/cluster's job, see DESIGN.md
// "Replication & routing").

// ReplicationHandler is the follower side of WAL shipping, dispatched
// from the binary listener. Both methods return the follower's durable
// epoch after the frame was handled; implementations must be safe for
// concurrent use (the primary pools connections).
type ReplicationHandler interface {
	// ReplAppend applies one shipped WAL batch (pairs in WAL record
	// encoding — see DecodeWALOps) iff epoch is above the follower's
	// durable epoch, else fails with ErrFenced.
	ReplAppend(epoch uint64, ops [][2]int32) (uint64, error)
	// ReplSnapshot accepts one chunk of a streamed snapshot; the chunk
	// with done=true installs it. A snapshot at or above the follower's
	// epoch is accepted (equality makes resync idempotent); below is
	// ErrFenced.
	ReplSnapshot(epoch uint64, done bool, chunk []byte) (uint64, error)
}

// ReplicationStats is the "replication" section of /stats. The counter
// quartet shipped/acked/lag_batches/lag_ms is always present (zero when
// idle); a primary fills the shipping side, a follower the applying
// side.
type ReplicationStats struct {
	// Role is "primary" or "follower".
	Role string `json:"role"`
	// Epoch is the role's replication frontier: the primary's newest
	// published epoch, or the follower's durable (last applied) epoch.
	Epoch uint64 `json:"epoch"`
	// Shipped counts batches handed to follower queues (primary) —
	// each accepted write batch counts once per follower.
	Shipped int64 `json:"shipped"`
	// Acked counts batches durably acknowledged: by followers (primary
	// role) or applied locally (follower role).
	Acked int64 `json:"acked"`
	// LagBatches is the number of shipped-not-yet-acked batches across
	// all followers (primary), or 0 on a follower.
	LagBatches int64 `json:"lag_batches"`
	// LagMs is the age of the oldest unacked batch (primary), or the
	// time since the follower last applied anything while a transfer
	// was pending. 0 when fully caught up.
	LagMs float64 `json:"lag_ms"`
	// Fenced counts rejected stale-epoch frames (follower) or fenced
	// ship attempts observed (primary).
	Fenced int64 `json:"fenced"`
	// Resyncs counts full snapshot transfers (sent by a primary,
	// installed by a follower).
	Resyncs int64 `json:"resyncs"`
	// Bootstrapped is false on a follower that has not yet installed
	// any state; /readyz answers 503 until it flips.
	Bootstrapped bool `json:"bootstrapped"`
	// Followers is the configured follower count (primary only).
	Followers int `json:"followers,omitempty"`
	// Deposed is true on a primary that observed a fence from a newer
	// primary and stopped shipping.
	Deposed bool `json:"deposed,omitempty"`
}

// SetReplication registers the follower-side handler for
// TReplAppend/TReplSnapshot frames. Must be called before the binary
// listener starts; a server without a handler answers replication
// frames with Malformed.
func (s *Server) SetReplication(h ReplicationHandler) { s.repl = h }

// SetReplicationStats installs the provider for the "replication"
// section of /stats (and the /readyz gating on Bootstrapped). Must be
// called before the listeners start. The provider must be safe for
// concurrent use and may return nil.
func (s *Server) SetReplicationStats(fn func() *ReplicationStats) { s.replStats = fn }

// replicationStats returns the current replication section, or nil when
// no provider is installed.
func (s *Server) replicationStats() *ReplicationStats {
	if s.replStats == nil {
		return nil
	}
	return s.replStats()
}

// Publish atomically swaps the served snapshot for ix at the given
// epoch, adjusting the vertex range checks to the new index. It is how
// a follower makes replicated state visible to its readers; live
// servers publish through their own write path instead and must not mix
// the two.
func (s *Server) Publish(ix *core.Index, epoch uint64) {
	s.n.Store(int64(ix.Graph().NumVertices()))
	s.snap.Store(newSnapshot(ix, epoch))
}

// FrozenState returns the live server's current graph,
// index and epoch — the state a primary streams to a follower that
// needs a full resync. The returned graph and index are immutable; the
// epoch is the snapshot epoch they correspond to.
func (s *Server) FrozenState() (*graph.Graph, *core.Index, uint64, error) {
	up := s.up
	if up == nil {
		return nil, nil, 0, ErrReadOnly
	}
	up.mu.Lock()
	defer up.mu.Unlock()
	if up.closed {
		return nil, nil, 0, ErrClosed
	}
	return up.cur.Graph(), up.cur, up.epoch.Load(), nil
}

// EncodeSnapshot writes the graph+index snapshot to w — one container of
// the graph's sections 9 and 10 and the labelling's — as a checkpoint
// persists it next to the WAL and a TReplSnapshot transfer carries it.
func EncodeSnapshot(w io.Writer, g *graph.Graph, ix *core.Index) error {
	h, sections := snapshotSections(g, ix)
	return container.WriteContainer(w, h, sections)
}

// SnapshotBytes returns what EncodeSnapshot writes, in one buffer of
// exactly its length: the form a primary ships to its followers.
func SnapshotBytes(g *graph.Graph, ix *core.Index) ([]byte, error) {
	h, sections := snapshotSections(g, ix)
	buf := bytes.NewBuffer(make([]byte, 0, container.Size(sections)))
	err := container.WriteContainer(buf, h, sections)
	return buf.Bytes(), err
}

func snapshotSections(g *graph.Graph, ix *core.Index) (container.Header, []container.Section) {
	h, labels := ix.Sections()
	return h, append(g.Sections(), labels...)
}

// DecodeSnapshot reads a snapshot written by EncodeSnapshot. The bytes may
// come from the network, and n, which bounds every section, from the same
// header: nothing vouches for the bounds.
func DecodeSnapshot(r io.Reader) (*graph.Graph, *core.Index, error) {
	h, sec, err := container.ReadContainer(r, false, snapshotBounds)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: snapshot: %w", err)
	}
	return fromSnapshotSections(h, sec)
}

// DecodeSnapshotBytes is DecodeSnapshot over a snapshot already in memory,
// such as a replication frame's payload: data bounds every section, and
// whatever the state keeps is copied out of data once, so data may be
// reused as soon as it returns.
func DecodeSnapshotBytes(data []byte) (*graph.Graph, *core.Index, error) {
	h, sec, err := container.ReadBytes(data, snapshotBounds)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: snapshot: %w", err)
	}
	// The graph decodes its sections into arrays of its own; the labelling
	// keeps the buffers it is handed.
	for id, s := range sec {
		if id != graph.SectOffsets && id != graph.SectTargets {
			s.Payload = bytes.Clone(s.Payload)
			sec[id] = s
		}
	}
	return fromSnapshotSections(h, sec)
}

// snapshotBounds is the longest section of each known id under a
// snapshot's header: the labelling's and the graph's.
func snapshotBounds(h container.Header) (map[uint32]uint64, error) {
	bounds, err := core.Bounds(h)
	if err == nil {
		maps.Copy(bounds, graph.Bounds(h.N))
	}
	return bounds, err
}

// fromSnapshotSections decodes the sections of a snapshot's container.
func fromSnapshotSections(h container.Header, sec map[uint32]container.Section) (*graph.Graph, *core.Index, error) {
	g, err := graph.FromSections(h.N, sec)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: snapshot graph: %w", err)
	}
	ix, err := core.FromSections(h, sec, g)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: snapshot index: %w", err)
	}
	return g, ix, nil
}

// EncodeWALOps converts update ops to the WAL pair encoding TReplAppend
// frames carry: inserts as plain (a,b), deletions as one's-complement
// (^a,^b) — the same record encoding HWLWAL01 uses on disk. Appends to
// dst and returns the extended slice.
func EncodeWALOps(dst [][2]int32, ops []core.Op) [][2]int32 {
	for _, op := range ops {
		a, b := walEncode(op)
		dst = append(dst, [2]int32{a, b})
	}
	return dst
}

// DecodeWALOps is the inverse of EncodeWALOps, with the WAL's
// corruption check: a mixed-sign pair is neither a plain insert nor a
// complemented deletion.
func DecodeWALOps(pairs [][2]int32) ([]core.Op, error) {
	ops := make([]core.Op, len(pairs))
	for i, p := range pairs {
		op, ok := walDecode(p[0], p[1])
		if !ok {
			return nil, fmt.Errorf("serve: mixed-sign replicated op {%d,%d}", p[0], p[1])
		}
		ops[i] = op
	}
	return ops, nil
}
