package core

import (
	"context"
	"math/bits"
	"slices"

	"highway/internal/bfs"
)

// Vectorized batch execution (ROADMAP item 3): amortize the per-query
// label work over batches that share sources.
//
// A single Distance(s,t) pays three costs: the label merge + highway
// cross-pass for the upper bound d⊤st (O(|L(s)|·|L(t)|)), the pooled
// searcher checkout, and — unless an endpoint is a landmark — a bounded
// bidirectional BFS on the sparsified graph G[V\R]. When many pairs
// share a source, most of that work is shared:
//
//  1. The source side of the bound collapses into one vector
//     via[j] = min over L(s) entries (r,d) of d + δH(r,j) — after which
//     every target's bound is a single O(|L(t)|) probe pass instead of a
//     cross-pair scan. via subsumes the Lemma 5.1 common-landmark
//     shortcut because δH(r,r) = 0 folds the shared-landmark term into
//     the same minimum, so the result is exactly Searcher.UpperBound.
//     For a landmark source, via *is* its highway row: zero setup.
//  2. Targets are visited in sorted order (one shared permutation, no
//     per-pair allocation), so label reads walk the flat label CSR
//     (the rank sections and labelDist) sequentially, and duplicate
//     targets are answered once and copied.
//  3. The fallback searches reuse one bfs.Scratch (the searcher's), and
//     a group with enough refinements to do replaces its per-pair
//     bidirectional searches with ONE depth-bounded single-source BFS
//     from s on G[V\R]: Theorem 4.6 gives d(s,t) = min(d⊤st,
//     d_{G[V\R]}(s,t)), and one traversal yields the sparsified
//     distances for every target at once.
//
// Both execution strategies compute the same exact quantity, so batched
// answers are always identical to pair-at-a-time answers (pinned by
// TestBatchMatchesPairwise and the root-level differential suite).

// Batch-execution thresholds. These trade the shared setup cost against
// the per-pair saving; both paths are exact, so the choice is purely a
// performance heuristic.
const (
	// viaMinGroup is the smallest group that builds the shared source
	// bound vector: via costs |L(s)|·k to fill, one pairwise bound costs
	// about |L(s)|·|L(t)|, so sharing starts paying at two targets.
	// Landmark sources skip the setup entirely (via aliases the highway
	// row), so they always take the vectorized path.
	viaMinGroup = 2

	// sparseMinGroup and sparseGroupFrac gate the shared source BFS: a
	// group refines with one single-source traversal of G[V\R] (instead
	// of per-pair bounded bidirectional searches) only when at least
	// sparseMinGroup targets need refinement AND they number at least
	// NumVertices/sparseGroupFrac — below that, scanning a constant
	// fraction of the graph's edges costs more than the per-pair
	// searches it replaces.
	sparseMinGroup  = 256
	sparseGroupFrac = 64
)

// pollEvery is the granularity at which a batch polls its context: at a
// group boundary once this many pairs were answered since the last poll
// there, and every this many per-pair refinements inside a group. The
// shared source BFS polls at every level instead.
const pollEvery = 1024

// DistanceBatch answers len(pairs) independent queries: dst[i] is the
// exact distance for pairs[i]. The result is written into dst when it
// has the capacity; dst may be nil. Pairs are grouped by source and
// each group executes through the vectorized path (see the package
// comment above), so batches that repeat sources run substantially
// faster than a pair-at-a-time loop while returning identical answers;
// a one-source batch is the one-to-many case. Like Distance, it panics
// if a vertex id is out of range.
func (sr *Searcher) DistanceBatch(pairs [][2]int32, dst []int32) []int32 {
	dst, _ = sr.batch(context.Background(), pairs, dst)
	return dst
}

// batch is the batch executor, polling ctx before the first group and
// then as pollEvery says. A stop returns ctx.Err() and no answers, and
// leaves the searcher ready for its next batch.
func (sr *Searcher) batch(ctx context.Context, pairs [][2]int32, dst []int32) ([]int32, error) {
	n := len(pairs)
	dst = slices.Grow(dst[:0], n)[:n]
	sr.perm = slices.Grow(sr.perm[:0], n)[:n]
	perm := sr.perm
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		pa, pb := pairs[a], pairs[b]
		switch {
		case pa[0] != pb[0]:
			if pa[0] < pb[0] {
				return -1
			}
			return 1
		case pa[1] < pb[1]:
			return -1
		case pa[1] > pb[1]:
			return 1
		}
		return 0
	})
	answered := pollEvery
	for lo := 0; lo < len(perm); {
		if answered >= pollEvery {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			answered = 0
		}
		src := pairs[perm[lo]][0]
		hi := lo + 1
		for hi < len(perm) && pairs[perm[hi]][0] == src {
			hi++
		}
		if err := sr.runGroup(ctx, src, perm[lo:hi], pairs, dst); err != nil {
			return nil, err
		}
		answered += hi - lo
		lo = hi
	}
	return dst, nil
}

// AnswerBatch is DistanceBatch under a context, through a pooled
// searcher; safe for concurrent use. A ctx that reports cancellation
// stops the batch within one level of the shared source BFS or about
// pollEvery pairs, and AnswerBatch returns ctx.Err() and no answers.
func (ix *Index) AnswerBatch(ctx context.Context, pairs [][2]int32, dst []int32) ([]int32, error) {
	sr := ix.pooled()
	dst, err := sr.batch(ctx, pairs, dst)
	release(sr)
	return dst, err
}

// DistanceBatch is the pooled convenience form of
// Searcher.DistanceBatch; safe for concurrent use.
func (ix *Index) DistanceBatch(pairs [][2]int32, dst []int32) []int32 {
	dst, _ = ix.AnswerBatch(context.Background(), pairs, dst)
	return dst
}

// runGroup answers every query (source, pairs[i][1]) for i in perm,
// writing dst[i], or returns ctx.Err() at a poll that reports a stop.
// perm must be sorted by target so duplicate targets are adjacent and
// label reads are sequential.
func (sr *Searcher) runGroup(ctx context.Context, source int32, perm []int32, pairs [][2]int32, dst []int32) error {
	ix := sr.ix
	srcIsLm := ix.rankOf[source] >= 0
	if len(perm) < viaMinGroup && !srcIsLm {
		for _, i := range perm {
			dst[i] = sr.Distance(source, pairs[i][1])
		}
		return nil
	}

	// Pass 1: label-derived bounds through the shared source vector, and
	// the group's refinement profile (how many targets still need the
	// sparsified-graph search, and how deep it must look).
	via := sr.sourceVia(source)
	needBFS := 0
	maxUB := int32(0)
	unbounded := false
	for _, i := range perm {
		t := pairs[i][1]
		switch {
		case t == source:
			dst[i] = 0
		case ix.rankOf[t] >= 0:
			// Landmark endpoints are exact from labels + highway alone
			// (the highway cover property covers every r-constrained
			// path; see Searcher.Distance).
			dst[i] = via[ix.rankOf[t]]
		default:
			ub := boundViaVec(ix, via, t)
			dst[i] = ub
			if !srcIsLm {
				needBFS++
				if ub == Infinity {
					unbounded = true
				} else if ub > maxUB {
					maxUB = ub
				}
			}
		}
	}
	if srcIsLm || needBFS == 0 {
		// Labels plus highway are exact when the source is a landmark;
		// the sparsified graph does not contain it.
		return nil
	}

	// Pass 2: refine the bounds on G[V\R] (Theorem 4.6).
	if needBFS >= sparseMinGroup && needBFS*sparseGroupFrac >= ix.g.NumVertices() {
		return sr.refineGroupBFS(ctx, source, perm, pairs, dst, maxUB, unbounded)
	}
	prevT := int32(-1)
	var prevD int32
	refined := 0
	for _, i := range perm {
		t := pairs[i][1]
		if t == source || ix.rankOf[t] >= 0 {
			continue
		}
		if t == prevT {
			dst[i] = prevD
			continue
		}
		if refined == pollEvery {
			if err := ctx.Err(); err != nil {
				return err
			}
			refined = 0
		}
		refined++
		bound := dst[i]
		if bound == Infinity {
			bound = bfs.NoBound
		}
		d := bfs.BoundedBiBFS(ix.g, source, t, bound, ix.isLandmark, sr.sc)
		dst[i] = d
		prevT, prevD = t, d
	}
	return nil
}

// refineGroupBFS replaces a large group's per-pair bidirectional
// searches with one single-source BFS from source on the sparsified
// graph G[V\R], depth-bounded by the deepest bound any target could
// still improve on (maxUB-1: a sparsified path of length ≥ d⊤st cannot
// lower min(d⊤st, ·)). Targets the traversal did not reach keep their
// label bound — their sparsified distance provably exceeds it. A stop
// at a level's poll leaves dst's bounds unrefined.
func (sr *Searcher) refineGroupBFS(ctx context.Context, source int32, perm []int32, pairs [][2]int32, dst []int32, maxUB int32, unbounded bool) error {
	ix := sr.ix
	limit := maxUB - 1
	if unbounded {
		// Some target has no label bound at all: only the sparsified
		// graph can connect it, so traverse exhaustively.
		limit = int32(ix.g.NumVertices())
	}
	if err := bfs.Depths(ix.g, source, limit, ix.isLandmark, sr.sc, ctx.Err); err != nil {
		return err
	}
	for _, i := range perm {
		t := pairs[i][1]
		if t == source || ix.rankOf[t] >= 0 {
			continue
		}
		if d := sr.sc.Depth(t); d >= 0 && (dst[i] == Infinity || d < dst[i]) {
			dst[i] = d
		}
	}
	return nil
}

// sourceVia returns the shared source bound vector: via[j] is the best
// label+highway distance from source to the landmark of rank j, or
// Infinity. For a landmark source this is its highway row, aliased
// without copying (callers only read it).
func (sr *Searcher) sourceVia(source int32) []int32 {
	ix := sr.ix
	k := len(ix.landmarks)
	if r := ix.rankOf[source]; r >= 0 {
		return ix.highway[int(r)*k : int(r+1)*k]
	}
	sr.via = slices.Grow(sr.via[:0], k)[:k]
	via := sr.via
	for j := range via {
		via[j] = Infinity
	}
	var m landmarkSet
	s, leaf := ix.slotOf(source)
	p, l := ix.labelOf(s, &m), ix.distOf(s, leaf)
	for w, x := range m[:] {
		for ; x != 0; x &= x - 1 {
			ds, r := ix.distAt(l, p), w<<6|bits.TrailingZeros64(x)
			p++
			for j, h := range ix.highway[r*k : (r+1)*k] {
				if h < 0 {
					continue
				}
				if d := ds + h; via[j] < 0 || d < via[j] {
					via[j] = d
				}
			}
		}
	}
	return via
}

// boundViaVec is the per-target half of the vectorized upper bound: one
// probe pass over t's flat label range against the source vector. It
// returns exactly Searcher.UpperBound(source, t), and, given landmark r's
// highway row for via, LandmarkDistance(r, t).
func boundViaVec(ix *Index, via []int32, t int32) int32 {
	best := Infinity
	var m landmarkSet
	s, leaf := ix.slotOf(t)
	p, l := ix.labelOf(s, &m), ix.distOf(s, leaf)
	for w, x := range m[:] {
		for ; x != 0; x &= x - 1 {
			if v := via[w<<6|bits.TrailingZeros64(x)]; v >= 0 {
				if d := v + ix.distAt(l, p); best < 0 || d < best {
					best = d
				}
			}
			p++
		}
	}
	return best
}
