package core

import (
	"context"
	"fmt"
)

// Op is one edge update in a batch: insert the undirected edge {A,B}, or
// delete it when Del is set.
type Op struct {
	A, B int32
	Del  bool
}

// InsertOps wraps an edge list as a batch of insertions.
func InsertOps(edges [][2]int32) []Op {
	ops := make([]Op, len(edges))
	for i, e := range edges {
		ops[i] = Op{A: e[0], B: e[1]}
	}
	return ops
}

// DeleteOps wraps an edge list as a batch of deletions.
func DeleteOps(edges [][2]int32) []Op {
	ops := make([]Op, len(edges))
	for i, e := range edges {
		ops[i] = Op{A: e[0], B: e[1], Del: true}
	}
	return ops
}

// OpResult reports what a batch actually did.
type OpResult struct {
	Inserted int // edges added (absent before the op)
	Deleted  int // edges removed (present before the op)
	Dirty    int // landmarks whose pruned BFS the batch re-ran
}

// ApplyOps applies a batch of insertions and deletions to the graph of the
// index the Rows last assembled and returns the index of the new graph,
// byte for byte the one a from-scratch build on it gives.
//
// Algorithm 1 is independent per landmark (Lemma 3.11), so only the
// landmarks whose pruned BFS can turn out differently are re-run. For an
// undirected edge {a,b} that is landmark r iff d(r,a) ≠ d(r,b), for both
// kinds of update:
//
//   - Insertion: when the endpoint distances are equal, every path through
//     the new edge is longer than one that exists already, so neither the
//     distances from r nor the set of shortest paths from r change.
//   - Deletion: an edge with d(r,a) = d(r,b) lies on no shortest path from
//     r (on one the endpoint distances differ by exactly one), so removing
//     it leaves r's shortest-path DAG as it was.
//
// The test also covers an endpoint changing reachability, since Infinity
// never equals a finite distance. Every op is tested on the labelling as it
// was before the batch, which landmark-endpoint queries answer exactly from
// labels and highway alone: a landmark every earlier op of the batch left
// clean still has those distances. The graph is then patched once with the
// batch's net changes and the dirty landmarks re-run together, in one
// traversal; the clean landmarks' entries are merged from the index
// before. That cannot cost more than a from-scratch build, so there is no
// repair-or-rebuild choice to make.
//
// Self-loops, insertions of present edges and deletions of absent ones are
// skipped and not counted, which makes replaying a log of batches against
// any earlier-or-equal state exact. A batch that changes no edge returns
// the index as it was. An op out of range fails the whole batch, which
// then changes nothing.
func (rw *Rows) ApplyOps(ops []Op) (*Index, OpResult, error) {
	var res OpResult
	cur := rw.ix
	g, n := cur.g, cur.g.NumVertices()
	dirty, ranks := make([]bool, len(rw.landmarks)), []int(nil)
	// now holds, smaller endpoint first, every edge an earlier op of the
	// batch took effect on, and whether that left it present; any other
	// edge is as g has it.
	now := make(map[[2]int32]bool)
	for _, op := range ops {
		a, b := op.A, op.B
		if a < 0 || b < 0 || int(a) >= n || int(b) >= n {
			return nil, OpResult{}, fmt.Errorf("core: edge {%d,%d} out of range [0,%d)", a, b, n)
		}
		e := [2]int32{min(a, b), max(a, b)}
		present, touched := now[e]
		present = present || !touched && g.HasEdge(a, b)
		// An op takes effect iff presence matches its kind: inserts need
		// the edge absent, deletes need it present.
		if a == b || present == !op.Del {
			continue
		}
		for r := range dirty {
			if !dirty[r] && cur.LandmarkDistance(int32(r), a) != cur.LandmarkDistance(int32(r), b) {
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
		return cur, res, nil
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
	// cancelled.
	next, err := g.Patch(ins, del)
	if err != nil {
		return nil, res, fmt.Errorf("core: patch: %w", err)
	}
	if _, err := rw.run(context.Background(), next, ranks, Options{}); err != nil {
		return nil, res, fmt.Errorf("core: repair: %w", err)
	}
	return rw.assemble(next), res, nil
}
