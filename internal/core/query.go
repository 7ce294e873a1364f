package core

import (
	"bytes"

	"highway/internal/bfs"
	"highway/internal/method"
)

// Searcher answers distance queries against an Index. It owns the scratch
// buffers of the bounded bidirectional search and the common-landmark
// mask, so it is cheap to query repeatedly but must not be shared between
// goroutines. Create one per querying goroutine with Index.NewSearcher,
// or use the Index conveniences (Distance, UpperBound, Path), which draw
// searchers from an internal pool.
type Searcher struct {
	ix *Index
	sc *bfs.Scratch
	// common marks landmark ranks present in both endpoint labels
	// (Lemma 5.1 shortcut).
	common []bool

	// Batch-execution scratch (see batch.go): the shared source bound
	// vector, the sort permutation, and the sparsified single-source
	// BFS state (sparse is kept all -1 between groups; sparseQ doubles
	// as the visited list that restores it).
	via     []int32
	perm    []int32
	sparse  []int32
	sparseQ []int32
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

// pooled draws a searcher from the index's pool, creating one on demand.
func (ix *Index) pooled() *Searcher {
	sr, _ := ix.pool.Get().(*Searcher)
	if sr == nil {
		sr = ix.Searcher()
	}
	return sr
}

// release returns a pooled searcher.
func (ix *Index) release(sr *Searcher) { ix.pool.Put(sr) }

// Distance returns the exact shortest-path distance between s and t, or
// Infinity if they are disconnected. It is safe for concurrent use; for
// tight query loops prefer a dedicated Searcher.
func (ix *Index) Distance(s, t int32) int32 {
	sr := ix.pooled()
	d := sr.Distance(s, t)
	ix.release(sr)
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
	ix.release(sr)
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
// entirely on the flat CSR arrays: no label materialization — a merge over
// two sorted rank ranges plus a cross-pair scan of the highway rows.
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
	slo, shi := ix.span(s)
	tlo, thi := ix.span(t)
	if slo == shi || tlo == thi {
		return Infinity
	}
	rank := ix.labelRank
	best := Infinity
	// Pass 1: common landmarks (Lemma 5.1): δL(r,s) + δL(r,t). Labels are
	// sorted by rank, so a single merge finds them; the same merge fills
	// the common mask. Landmarks common to both labels also dominate every
	// cross pair they participate in (triangle inequality), so pass 2 may
	// skip those pairs entirely.
	mask := sr.maskBuf(k)
	if ls, lt := shi-slo, thi-tlo; ls > 16*lt || lt > 16*ls {
		// One label dwarfs the other: iterate the short side and look
		// each of its ranks up in the long side, a range of at most 255
		// bytes, instead of stepping the merge one rank at a time.
		pLo, pHi, qLo, qHi := slo, shi, tlo, thi
		if ls > lt {
			pLo, pHi, qLo, qHi = tlo, thi, slo, shi
		}
		long := rank[qLo:qHi]
		for p := pLo; p < pHi; p++ {
			rp := rank[p]
			if q := bytes.IndexByte(long, rp); q >= 0 {
				mask[rp] = true
				if d := ix.distAt(p) + ix.distAt(qLo+int64(q)); best < 0 || d < best {
					best = d
				}
			}
		}
	} else {
		i, j := slo, tlo
		for i < shi && j < thi {
			ri, rj := rank[i], rank[j]
			switch {
			case ri == rj:
				mask[ri] = true
				if d := ix.distAt(i) + ix.distAt(j); best < 0 || d < best {
					best = d
				}
				i++
				j++
			case ri < rj:
				i++
			default:
				j++
			}
		}
	}
	// Pass 2: cross pairs through the highway (Equation 4), skipping any
	// pair whose side is a shared landmark.
	for i := slo; i < shi; i++ {
		ri := rank[i]
		if mask[ri] {
			continue
		}
		ds := ix.distAt(i)
		row := ix.highway[int(ri)*k : (int(ri)+1)*k]
		for j := tlo; j < thi; j++ {
			rj := rank[j]
			if mask[rj] {
				continue
			}
			if h := row[rj]; h >= 0 {
				if d := ds + h + ix.distAt(j); best < 0 || d < best {
					best = d
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
// re == r case folds in for free since δH(r,r) = 0, so this is one
// branch-light pass over v's flat label range. It touches no searcher
// scratch, so it is safe for concurrent use.
func (ix *Index) LandmarkDistance(r, v int32) int32 {
	k := len(ix.landmarks)
	row := ix.highway[int(r)*k : int(r+1)*k]
	if rv := ix.rankOf[v]; rv >= 0 {
		return row[rv]
	}
	best := Infinity
	for p, hi := ix.span(v); p < hi; p++ {
		h := row[ix.labelRank[p]]
		if h < 0 {
			continue
		}
		if d := h + ix.distAt(p); best < 0 || d < best {
			best = d
		}
	}
	return best
}

// maskBuf returns the searcher's cleared rank mask, sized to k. The mask
// lives on the searcher to avoid per-query allocation.
func (sr *Searcher) maskBuf(k int) []bool {
	if cap(sr.common) < k {
		sr.common = make([]bool, k)
	}
	mask := sr.common[:k]
	clear(mask)
	return mask
}
