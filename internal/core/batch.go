package core

import (
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

// DistanceMany answers one-source-to-many queries: dst[i] is the exact
// distance from source to targets[i] (Infinity if disconnected). The
// result is written into dst when it has the capacity; dst may be nil.
// It is equivalent to calling Distance(source, t) per target but
// amortizes the source-side label walk, the highway cross-pass and —
// for large target sets — the sparsified-graph search across the whole
// call. Like Distance, it panics if a vertex id is out of range.
func (sr *Searcher) DistanceMany(source int32, targets []int32, dst []int32) []int32 {
	dst = sizeDst(dst, len(targets))
	if len(targets) == 0 {
		return dst
	}
	perm := sr.permBuf(len(targets))
	slices.SortFunc(perm, func(a, b int32) int {
		ta, tb := targets[a], targets[b]
		switch {
		case ta < tb:
			return -1
		case ta > tb:
			return 1
		}
		return 0
	})
	sr.runGroup(source, perm, func(i int32) int32 { return targets[i] }, dst)
	return dst
}

// DistanceBatch answers len(pairs) independent queries: dst[i] is the
// exact distance for pairs[i]. The result is written into dst when it
// has the capacity; dst may be nil. Pairs are grouped by source and
// each group executes through the vectorized path (see the package
// comment above), so batches that repeat sources run substantially
// faster than a pair-at-a-time loop while returning identical answers.
// Like Distance, it panics if a vertex id is out of range.
func (sr *Searcher) DistanceBatch(pairs [][2]int32, dst []int32) []int32 {
	dst = sizeDst(dst, len(pairs))
	if len(pairs) == 0 {
		return dst
	}
	perm := sr.permBuf(len(pairs))
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
	for lo := 0; lo < len(perm); {
		src := pairs[perm[lo]][0]
		hi := lo + 1
		for hi < len(perm) && pairs[perm[hi]][0] == src {
			hi++
		}
		sr.runGroup(src, perm[lo:hi], func(i int32) int32 { return pairs[i][1] }, dst)
		lo = hi
	}
	return dst
}

// DistanceMany is the pooled convenience form of Searcher.DistanceMany;
// safe for concurrent use.
func (ix *Index) DistanceMany(source int32, targets []int32, dst []int32) []int32 {
	sr := ix.pooled()
	dst = sr.DistanceMany(source, targets, dst)
	ix.release(sr)
	return dst
}

// DistanceBatch is the pooled convenience form of
// Searcher.DistanceBatch; safe for concurrent use.
func (ix *Index) DistanceBatch(pairs [][2]int32, dst []int32) []int32 {
	sr := ix.pooled()
	dst = sr.DistanceBatch(pairs, dst)
	ix.release(sr)
	return dst
}

// runGroup answers every query (source, tof(i)) for i in perm, writing
// dst[i]. perm must be sorted by target so duplicate targets are
// adjacent and label reads are sequential.
func (sr *Searcher) runGroup(source int32, perm []int32, tof func(int32) int32, dst []int32) {
	ix := sr.ix
	srcIsLm := ix.rankOf[source] >= 0
	if len(perm) < viaMinGroup && !srcIsLm {
		for _, i := range perm {
			dst[i] = sr.Distance(source, tof(i))
		}
		return
	}

	// Pass 1: label-derived bounds through the shared source vector, and
	// the group's refinement profile (how many targets still need the
	// sparsified-graph search, and how deep it must look).
	via := sr.sourceVia(source)
	needBFS := 0
	maxUB := int32(0)
	unbounded := false
	for _, i := range perm {
		t := tof(i)
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
		return
	}

	// Pass 2: refine the bounds on G[V\R] (Theorem 4.6).
	if needBFS >= sparseMinGroup && needBFS*sparseGroupFrac >= ix.g.NumVertices() {
		sr.refineGroupBFS(source, perm, tof, dst, maxUB, unbounded)
		return
	}
	prevT := int32(-1)
	var prevD int32
	for _, i := range perm {
		t := tof(i)
		if t == source || ix.rankOf[t] >= 0 {
			continue
		}
		if t == prevT {
			dst[i] = prevD
			continue
		}
		bound := dst[i]
		if bound == Infinity {
			bound = bfs.NoBound
		}
		d := bfs.BoundedBiBFS(ix.g, source, t, bound, ix.isLandmark, sr.sc)
		dst[i] = d
		prevT, prevD = t, d
	}
}

// refineGroupBFS replaces a large group's per-pair bidirectional
// searches with one single-source BFS from source on the sparsified
// graph G[V\R], depth-bounded by the deepest bound any target could
// still improve on (maxUB-1: a sparsified path of length ≥ d⊤st cannot
// lower min(d⊤st, ·)). Targets the traversal did not reach keep their
// label bound — their sparsified distance provably exceeds it.
func (sr *Searcher) refineGroupBFS(source int32, perm []int32, tof func(int32) int32, dst []int32, maxUB int32, unbounded bool) {
	ix := sr.ix
	n := ix.g.NumVertices()
	limit := maxUB - 1
	if unbounded {
		// Some target has no label bound at all: only the sparsified
		// graph can connect it, so traverse exhaustively.
		limit = int32(n)
	}
	dist := sr.sparseBuf(n)
	q := sr.sparseQ[:0]
	dist[source] = 0
	q = append(q, source)
	off, adj := ix.g.CSR()
	for head := 0; head < len(q); head++ {
		v := q[head]
		dv := dist[v]
		if dv >= limit {
			// The queue is level-ordered: everything at or past the
			// limit expands to depths no bound can improve on.
			break
		}
		for _, u := range adj[off[v]:off[v+1]] {
			if ix.isLandmark[u] || dist[u] >= 0 {
				continue
			}
			dist[u] = dv + 1
			q = append(q, u)
		}
	}
	for _, i := range perm {
		t := tof(i)
		if t == source || ix.rankOf[t] >= 0 {
			continue
		}
		if d := dist[t]; d >= 0 && (dst[i] == Infinity || d < dst[i]) {
			dst[i] = d
		}
	}
	// Restore the all-unvisited invariant by resetting exactly the
	// vertices the traversal touched.
	for _, v := range q {
		dist[v] = -1
	}
	sr.sparseQ = q[:0]
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
	via := sr.viaBuf(k)
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
// returns exactly Searcher.UpperBound(source, t).
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

// sizeDst returns dst resized to n entries, reallocating only when the
// capacity is short.
func sizeDst(dst []int32, n int) []int32 {
	if cap(dst) < n {
		return make([]int32, n)
	}
	return dst[:n]
}

// permBuf returns the searcher's index-permutation buffer initialized
// to the identity over n entries.
func (sr *Searcher) permBuf(n int) []int32 {
	if cap(sr.perm) < n {
		sr.perm = make([]int32, n)
	}
	perm := sr.perm[:n]
	for i := range perm {
		perm[i] = int32(i)
	}
	return perm
}

// viaBuf returns the searcher's source bound vector, sized to k and
// cleared to Infinity.
func (sr *Searcher) viaBuf(k int) []int32 {
	if cap(sr.via) < k {
		sr.via = make([]int32, k)
	}
	via := sr.via[:k]
	for j := range via {
		via[j] = Infinity
	}
	return via
}

// sparseBuf returns the searcher's sparsified-BFS distance array with
// every entry -1 (the invariant refineGroupBFS restores after use).
func (sr *Searcher) sparseBuf(n int) []int32 {
	if cap(sr.sparse) < n {
		sr.sparse = make([]int32, n)
		for i := range sr.sparse {
			sr.sparse[i] = -1
		}
	}
	return sr.sparse[:n]
}
