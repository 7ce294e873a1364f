// Package dynhl extends the highway cover labelling to fully dynamic
// graphs — edge insertions and deletions — the direction the paper's
// authors pursued in follow-up work on dynamic labelling.
//
// The implementation uses *selective landmark rebuild*, which is exact and
// preserves both minimality and order independence. For an undirected
// edge {a,b}, landmark r's pruned-BFS outcome can change if and only if
// d(r,a) ≠ d(r,b) — and the test is the same for both mutation kinds:
//
//   - Insertion: when the endpoint distances are equal, every path through
//     the new edge is strictly longer than an existing one, so neither the
//     distances from r nor the set of shortest paths from r can change.
//   - Deletion: an existing edge with d(r,a) = d(r,b) lies on no shortest
//     path from r (on a shortest path the endpoint distances differ by
//     exactly one), so removing it leaves r's shortest-path DAG intact.
//
// Each mutation batch (ApplyOps) therefore:
//
//  1. queries d(r,a) and d(r,b) for every landmark (landmark-endpoint
//     queries are answered exactly by labels + highway alone) on the
//     labelling as it was before the batch;
//  2. marks the landmarks with d(r,a) ≠ d(r,b) — including either
//     endpoint changing reachability — as dirty, sharing one dirty set
//     across the whole batch;
//  3. patches the current graph once with the batch's net edge changes
//     (graph.Patch) and has internal/core re-run Algorithm 1's pruned BFS
//     for the dirty landmarks — all of them in one traversal of the graph —
//     and assemble the next immutable core.Index.
//
// # State
//
// The package holds no graph or labelling of its own. An Index is the
// current core.Index — which holds the current graph, answers the
// dirtiness test and every query, and is the snapshot Freeze hands out —
// and a core.Rows around that index, which re-runs ranks on it. The pruned
// BFS, the label merge and the bounded search exist once, in internal/core.
//
// Repairing the d dirty landmarks is the traversal a from-scratch build
// makes with d of its k bits set, through the same kernel with the same
// workers, and then an assemble that copies the clean landmarks' entries
// from the current index: it cannot cost more than rebuilding, so there is
// no repair-or-rebuild choice to make and no threshold to tune.
//
// Because Algorithm 1 is independent per landmark (Lemma 3.11), rebuilding
// a subset of landmarks yields exactly the index a full rebuild would
// produce — this invariant is property-tested against from-scratch builds
// for insertions, deletions and mixed churn (see internal/oracle's churn
// differential harness). Idempotence — inserting a present edge or
// deleting an absent one is an acked no-op — is what makes write-ahead
// log replay (internal/serve) safe against any earlier-or-equal state.
//
// # Concurrency
//
// Queries run on the immutable current index, so any number of goroutines
// may call Distance, UpperBound, NewSearcher, Stats and Freeze at once, and
// a searcher or frozen index obtained earlier stays valid (it keeps
// answering for the state it was taken from). Mutations are not
// synchronized: a caller serializes ApplyOps and its wrappers with each
// other and with every other method of the Index.
package dynhl

import (
	"context"
	"fmt"

	"highway/internal/core"
	"highway/internal/graph"
	"highway/internal/method"
)

// The dynamic labelling implements the method-agnostic index contract;
// see internal/method.
var _ method.DistanceIndex = (*Index)(nil)

// Infinity is the distance reported between disconnected vertices.
const Infinity int32 = -1

// Index is a mutable highway cover labelling over an evolving graph.
type Index struct {
	rows  *core.Rows  // build state around cur; core re-runs dirty ranks on it
	cur   *core.Index // exact labelling of the current graph, cur.Graph()
	maint MaintStats
}

// MaintStats counts the maintenance work ApplyOps has performed since
// the index was built or converted.
type MaintStats struct {
	SelectiveRepairs int64 // batches that dirtied some but not all landmarks
	FullRebuilds     int64 // batches that dirtied every landmark
	LandmarksRebuilt int64 // pruned-BFS reruns
}

// Maint returns the cumulative maintenance counters.
func (ix *Index) Maint() MaintStats { return ix.maint }

// FromCore makes a static core.Index mutable in O(1): it runs no BFS and
// copies nothing. The source index and its graph are shared — they are the
// dynamic index's state until the first batch that changes an edge — and
// stay valid and unchanged. The error is always nil: a core.Index has at
// least one landmark.
func FromCore(src *core.Index) (*Index, error) {
	return &Index{rows: core.RowsOf(src), cur: src}, nil
}

// Freeze returns the current state as an immutable snapshot: the current
// CSR graph and the core.Index over it. Both already exist (ApplyOps builds
// them), so this copies nothing; later mutations do not affect the
// snapshot, so a server can keep answering from it while this index
// continues absorbing updates. The error is always nil.
func (ix *Index) Freeze() (*graph.Graph, *core.Index, error) {
	return ix.cur.Graph(), ix.cur, nil
}

// NewSearcher returns a query searcher bound to the current state.
func (ix *Index) NewSearcher() method.Searcher { return ix.cur.NewSearcher() }

// Distance returns the exact current distance between s and t, or
// Infinity.
func (ix *Index) Distance(s, t int32) int32 { return ix.cur.Distance(s, t) }

// UpperBound returns d⊤st from labels + highway (Equation 4 with the
// Lemma 5.1 common-landmark shortcut).
func (ix *Index) UpperBound(s, t int32) int32 { return ix.cur.UpperBound(s, t) }

// Stats summarizes the current state of the labelling (method-agnostic
// form). The accounting matches the static highway labelling's
// uncompressed measure.
func (ix *Index) Stats() method.Stats {
	st := ix.cur.Stats()
	st.Method = "dynhl"
	st.Bytes32, st.Bytes8 = 0, 0
	return st
}

// NumEntries returns size(L).
func (ix *Index) NumEntries() int64 { return ix.cur.NumEntries() }

// Landmarks returns the landmark vertex ids by rank.
func (ix *Index) Landmarks() []int32 { return ix.cur.Landmarks() }

// InsertEdges applies a batch of insertions with a single repair pass:
// dirty landmarks are collected across the whole batch and rebuilt once.
// Self-loops and existing edges are no-ops.
func (ix *Index) InsertEdges(edges [][2]int32) error {
	_, err := ix.ApplyOps(InsertOps(edges))
	return err
}

// DeleteEdges applies a batch of deletions with a single repair pass.
// Absent edges and self-loops are no-ops.
func (ix *Index) DeleteEdges(edges [][2]int32) error {
	_, err := ix.ApplyOps(DeleteOps(edges))
	return err
}

// Op is one edge mutation in a mixed batch: insert the undirected edge
// {A,B}, or delete it when Del is set.
type Op struct {
	A, B int32
	Del  bool
}

// InsertOps wraps an edge list as a uniform insert-op batch.
func InsertOps(edges [][2]int32) []Op {
	ops := make([]Op, len(edges))
	for i, e := range edges {
		ops[i] = Op{A: e[0], B: e[1]}
	}
	return ops
}

// DeleteOps wraps an edge list as a uniform delete-op batch.
func DeleteOps(edges [][2]int32) []Op {
	ops := make([]Op, len(edges))
	for i, e := range edges {
		ops[i] = Op{A: e[0], B: e[1], Del: true}
	}
	return ops
}

// OpResult reports what a mixed batch actually did.
type OpResult struct {
	Inserted int // edges added (absent before the op)
	Deleted  int // edges removed (present before the op)
	Dirty    int // landmarks invalidated by the batch
}

// ApplyOps applies a mixed batch of insertions and deletions with a
// single repair pass: dirty landmarks are collected across the whole
// batch, the graph is patched with the batch's net changes once, and core
// re-runs the dirty landmarks' pruned BFSs on it and assembles the next
// current index. A batch that changes edges but dirties nothing only moves
// the label arrays over to the new graph; one that changes no edge does
// nothing. Self-loops, already present insertions and already absent
// deletions are skipped and not counted, so replaying a mixed write-ahead
// log against any earlier-or-equal state is idempotent.
func (ix *Index) ApplyOps(ops []Op) (OpResult, error) {
	var res OpResult
	g, n := ix.cur.Graph(), ix.cur.Graph().NumVertices()
	dirty, ranks := make([]bool, ix.cur.NumLandmarks()), []int(nil)
	// now holds, smaller endpoint first, every edge an earlier op of the
	// batch took effect on, and whether that left it present; any other
	// edge is as g has it. Nothing changes before the last op is checked,
	// so an op out of range fails the whole batch and changes nothing.
	now := make(map[[2]int32]bool)
	for _, op := range ops {
		a, b := op.A, op.B
		if a < 0 || b < 0 || int(a) >= n || int(b) >= n {
			return OpResult{}, fmt.Errorf("dynhl: edge {%d,%d} out of range [0,%d)", a, b, n)
		}
		e := [2]int32{min(a, b), max(a, b)}
		present, touched := now[e]
		present = present || !touched && g.HasEdge(a, b)
		// An op takes effect iff presence matches its kind: inserts need
		// the edge absent, deletes need it present.
		if a == b || present == !op.Del {
			continue
		}
		// Mark dirty landmarks from the labelling as it was BEFORE the
		// batch: a landmark every earlier op left clean still has those
		// distances. The test is the same for both kinds (see the package
		// comment): r's shortest-path DAG changes iff d(r,a) ≠ d(r,b) —
		// which also covers an endpoint changing reachability, since
		// Infinity never equals a finite distance.
		for r := range dirty {
			if !dirty[r] && ix.cur.LandmarkDistance(int32(r), a) != ix.cur.LandmarkDistance(int32(r), b) {
				dirty[r] = true
				ranks = append(ranks, r)
			}
		}
		now[e] = !op.Del
		if op.Del {
			res.Deleted++
		} else {
			res.Inserted++
		}
	}
	if res.Inserted+res.Deleted == 0 {
		return res, nil
	}
	res.Dirty = len(ranks)
	var ins, del [][2]int32
	for e, present := range now {
		switch {
		case present && !g.HasEdge(e[0], e[1]):
			ins = append(ins, e)
		case !present && g.HasEdge(e[0], e[1]):
			del = append(del, e)
		}
	}
	// Neither call below can fail: the net changes are in range, distinct
	// and valid against g by construction, and the context is never
	// cancelled (ApplyOps has none to pass on).
	next, err := g.Patch(ins, del)
	if err != nil {
		return res, fmt.Errorf("dynhl: patch: %w", err)
	}
	if _, err := ix.rows.Run(context.TODO(), next, ranks, core.Options{}); err != nil {
		return res, fmt.Errorf("dynhl: repair: %w", err)
	}
	ix.cur = ix.rows.Assemble(next)
	if res.Dirty == len(dirty) {
		ix.maint.FullRebuilds++
	} else if res.Dirty > 0 {
		ix.maint.SelectiveRepairs++
	}
	ix.maint.LandmarksRebuilt += int64(res.Dirty)
	return res, nil
}
