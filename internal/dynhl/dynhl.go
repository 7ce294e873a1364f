// Package dynhl keeps the names the benchmark harness (benchmark/) times
// the write path by. The write path itself is internal/core's
// Rows.ApplyOps, which the live server and the cluster follower call
// directly; an Index here is a core.Rows, the index it last returned and
// counters of the repairs it made.
package dynhl

import (
	"highway/internal/core"
	"highway/internal/graph"
)

// Op is one edge update in a batch.
type Op = core.Op

// InsertOps wraps an edge list as a batch of insertions.
func InsertOps(edges [][2]int32) []Op { return core.InsertOps(edges) }

// DeleteOps wraps an edge list as a batch of deletions.
func DeleteOps(edges [][2]int32) []Op { return core.DeleteOps(edges) }

// Index is a labelling that takes edge updates.
type Index struct {
	rows  *core.Rows
	cur   *core.Index // what rows last returned
	maint MaintStats
}

// MaintStats counts the repairs ApplyOps has made since FromCore.
type MaintStats struct {
	SelectiveRepairs int64 // batches that dirtied some but not all landmarks
	FullRebuilds     int64 // batches that dirtied every landmark
	LandmarksRebuilt int64 // pruned-BFS reruns
}

// Maint returns the cumulative repair counters.
func (ix *Index) Maint() MaintStats { return ix.maint }

// FromCore makes src take updates without copying it; src stays valid and
// unchanged. The error is always nil.
func FromCore(src *core.Index) (*Index, error) {
	return &Index{rows: core.RowsOf(src), cur: src}, nil
}

// ApplyOps applies a batch through core.Rows.ApplyOps.
func (ix *Index) ApplyOps(ops []Op) (core.OpResult, error) {
	next, res, err := ix.rows.ApplyOps(ops)
	if err != nil {
		return res, err
	}
	ix.cur = next
	if res.Dirty == ix.cur.NumLandmarks() {
		ix.maint.FullRebuilds++
	} else if res.Dirty > 0 {
		ix.maint.SelectiveRepairs++
	}
	ix.maint.LandmarksRebuilt += int64(res.Dirty)
	return res, nil
}

// Freeze returns the current graph and index, which later batches leave
// as they are. It copies nothing; the error is always nil.
func (ix *Index) Freeze() (*graph.Graph, *core.Index, error) {
	return ix.cur.Graph(), ix.cur, nil
}
