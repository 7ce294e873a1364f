package core

import (
	"math/bits"
	"sync"

	"highway/internal/bfs"
	"highway/internal/method"
)

// Searcher answers distance queries against an Index. It owns the scratch
// buffers of the bounded bidirectional search, so it is cheap to query
// repeatedly but must not be shared between goroutines. Create one per
// querying goroutine with Index.NewSearcher, or use the Index conveniences
// (Distance, UpperBound, Path), which draw searchers from an internal pool
// shared by every index.
type Searcher struct {
	ix *Index
	sc *bfs.Scratch

	// Batch-execution scratch (see batch.go): the shared source bound
	// vector and the sort permutation. The shared source BFS keeps its
	// depths in sc.
	via  []int32
	perm []int32
}

// NewSearcher returns a Searcher bound to the index, typed as the
// method-agnostic interface (the DistanceIndex contract). Callers that
// need the concrete *Searcher — e.g. for Path — use Searcher():
//
//	sr := ix.Searcher()
//	p := sr.Path(s, t)
func (ix *Index) NewSearcher() method.Searcher { return ix.Searcher() }

// Searcher returns a concrete *Searcher bound to the index.
func (ix *Index) Searcher() *Searcher {
	return &Searcher{ix: ix, sc: bfs.NewScratch(ix.g.NumVertices())}
}

// searchers holds the idle searchers of the pooled conveniences, bound to
// no index. It is one pool for the package, not one per index: the
// runtime keeps every sync.Pool that was ever used, and what its idle
// items reference, reachable for two more collections, so a pool per
// index kept every index queried through it alive that long. A searcher's
// scratch grows when a larger graph needs it, so rebinding one to another
// index costs nothing.
var searchers sync.Pool

// pooled draws an idle searcher and binds it to ix, creating one on
// demand.
func (ix *Index) pooled() *Searcher {
	sr, _ := searchers.Get().(*Searcher)
	if sr == nil {
		return ix.Searcher()
	}
	sr.ix = ix
	return sr
}

// release unbinds a pooled searcher and makes it idle again.
func release(sr *Searcher) {
	sr.ix = nil
	searchers.Put(sr)
}

// Distance returns the exact shortest-path distance between s and t, or
// Infinity if they are disconnected. It is safe for concurrent use; for
// tight query loops prefer a dedicated Searcher.
func (ix *Index) Distance(s, t int32) int32 {
	sr := ix.pooled()
	d := sr.Distance(s, t)
	release(sr)
	return d
}

// UpperBound returns d⊤st, the best distance through the highway
// (Equation 4 with the Lemma 5.1 shortcut), or Infinity when the labels
// connect s and t through no landmark. UpperBound(s,t) ≥ Distance(s,t)
// always (Lemma 4.4), with equality iff some shortest path intersects R.
// It is safe for concurrent use (pooled searcher); for tight loops prefer
// a dedicated Searcher.
func (ix *Index) UpperBound(s, t int32) int32 {
	sr := ix.pooled()
	ub := sr.UpperBound(s, t)
	release(sr)
	return ub
}

// Distance returns the exact distance between s and t (Theorem 4.6):
// min(d⊤st, bounded bidirectional BFS on G[V\R]).
func (sr *Searcher) Distance(s, t int32) int32 {
	ix := sr.ix
	if s == t {
		return 0
	}
	ub := sr.UpperBound(s, t)
	if ix.isLandmark[s] || ix.isLandmark[t] {
		// Labels plus highway are exact when an endpoint is a landmark:
		// every s-t path is trivially r-constrained for r = that endpoint,
		// and the highway cover property covers it. The sparsified graph
		// does not contain the endpoint, so there is nothing to search.
		return ub
	}
	bound := ub
	if bound == Infinity {
		// Labels gave no path through R; only the sparsified graph can
		// connect s and t.
		return bfs.BoundedBiBFS(ix.g, s, t, bfs.NoBound, ix.isLandmark, sr.sc)
	}
	return bfs.BoundedBiBFS(ix.g, s, t, bound, ix.isLandmark, sr.sc)
}

// UpperBound is the searcher-local version of Index.UpperBound. It runs
// entirely on the flat CSR arrays: no label materialization — one AND of
// the two labels' rank sets plus a cross-pair scan of the highway rows.
func (sr *Searcher) UpperBound(s, t int32) int32 {
	ix := sr.ix
	if s == t {
		return 0
	}
	k := len(ix.landmarks)
	if rs := ix.rankOf[s]; rs >= 0 {
		return ix.LandmarkDistance(rs, t)
	}
	if rt := ix.rankOf[t]; rt >= 0 {
		return ix.LandmarkDistance(rt, s)
	}
	var ms, mt landmarkSet
	ss, sleaf := ix.slotOf(s)
	ts, tleaf := ix.slotOf(t)
	slo, tlo := ix.labelOf(ss, &ms), ix.labelOf(ts, &mt)
	sl, tl := ix.distOf(ss, sleaf), ix.distOf(ts, tleaf)
	words := (k + 63) >> 6
	best := Infinity
	// Pass 1: common landmarks (Lemma 5.1): δL(r,s) + δL(r,t), found by one
	// AND. Landmarks common to both labels also dominate every cross pair
	// they participate in (triangle inequality), so pass 2 skips them.
	for w := range words {
		for x := ms[w] & mt[w]; x != 0; x &= x - 1 {
			r := w<<6 | bits.TrailingZeros64(x)
			if d := ix.distAt(sl, slo+before(ms[:], r)) + ix.distAt(tl, tlo+before(mt[:], r)); best < 0 || d < best {
				best = d
			}
		}
	}
	// Pass 2: cross pairs through the highway (Equation 4). A label's
	// entries follow its set bits in order, so each walk counts positions
	// as it goes, stepping over the landmarks the other label holds too.
	p := slo
	for w := range words {
		for x := ms[w]; x != 0; x, p = x&(x-1), p+1 {
			if mt[w]&(x&-x) != 0 {
				continue
			}
			ds, ri := ix.distAt(sl, p), w<<6|bits.TrailingZeros64(x)
			row := ix.highway[ri*k : (ri+1)*k]
			q := tlo
			for wt := range words {
				for y := mt[wt]; y != 0; y, q = y&(y-1), q+1 {
					if ms[wt]&(y&-y) != 0 {
						continue
					}
					if h := row[wt<<6|bits.TrailingZeros64(y)]; h >= 0 {
						if d := ds + h + ix.distAt(tl, q); best < 0 || d < best {
							best = d
						}
					}
				}
			}
		}
	}
	return best
}

// LandmarkDistance returns the exact distance between the landmark of
// rank r and any vertex v from labels and highway alone (Section 4.2's
// virtual label {(r,0)}): a highway lookup when v is a landmark too,
// otherwise the min over v's label entries (re, d) of d + δH(r, re). The
// re == r case folds in for free since δH(r,r) = 0, so this is the batch
// path's probe pass with r's highway row as the source vector. It
// touches no searcher scratch, so it is safe for concurrent use.
func (ix *Index) LandmarkDistance(r, v int32) int32 {
	k := len(ix.landmarks)
	row := ix.highway[int(r)*k : int(r+1)*k]
	if rv := ix.rankOf[v]; rv >= 0 {
		return row[rv]
	}
	return boundViaVec(ix, row, v)
}
