package bfs

import "highway/internal/graph"

// Scratch holds the reusable per-search state of bidirectional searches.
// One Scratch supports any number of sequential searches on graphs with at
// most its capacity of vertices; it is not safe for concurrent use.
//
// Visited sides are tracked with epoch-stamped arrays so that resetting a
// search costs O(1) instead of O(n).
type Scratch struct {
	markS, markT []uint64 // epoch when vertex joined the s- or t-side
	epoch        uint64
	qs, qt, qn   []int32
}

// NewScratch returns a Scratch for graphs with up to n vertices.
func NewScratch(n int) *Scratch {
	return &Scratch{
		markS: make([]uint64, n),
		markT: make([]uint64, n),
		epoch: 0,
		qs:    make([]int32, 0, 1024),
		qt:    make([]int32, 0, 1024),
		qn:    make([]int32, 0, 1024),
	}
}

// grow ensures capacity for n vertices.
func (s *Scratch) grow(n int) {
	if len(s.markS) < n {
		s.markS = make([]uint64, n)
		s.markT = make([]uint64, n)
		s.epoch = 0
	}
}

// NoBound disables the distance bound of BoundedBiBFS, turning it into the
// plain bidirectional BFS baseline.
const NoBound int32 = 1<<31 - 1

// BiBFS is the online bidirectional BFS baseline (Table 2's Bi-BFS,
// Pohl 1971): it alternates expanding the smaller frontier from s and t
// until the searches meet.
func BiBFS(g *graph.Graph, s, t int32, sc *Scratch) int32 {
	return BoundedBiBFS(g, s, t, NoBound, nil, sc)
}

// BoundedBiBFS implements the paper's Algorithm 2: a bidirectional BFS on
// the sparsified graph G[V\R] under an upper distance bound.
//
//   - skip marks vertices removed from the graph (the landmarks R); nil
//     means no vertex is skipped. s and t themselves must not be skipped.
//   - bound is the upper bound d⊤st from the labelling. While the two balls
//     have not met, every s–t path in the sparsified graph is at least
//     ds+dt+1 long, so the search stops as soon as ds+dt+1 reaches bound,
//     returning bound without expanding the next (and largest) level: no
//     path it could find would be shorter than bound.
//
// The return value is d_{G[V\R]}(s,t) if it is < bound, bound if the bound
// was hit first, and Unreachable if the frontiers die out before the bound
// is reached (only possible when bound is NoBound or the sparsified graph
// is disconnected).
//
// Both sides expand top-down only: a search that alternates the smaller
// side meets long before either frontier saturates the graph, so the
// single-source engine's bottom-up direction has no level to win here.
func BoundedBiBFS(g *graph.Graph, s, t int32, bound int32, skip []bool, sc *Scratch) int32 {
	if s == t {
		return 0
	}
	if bound <= 0 {
		// d(s,t) ≥ 1 for s != t, so a bound of 0 is already exact.
		return bound
	}
	sc.grow(g.NumVertices())
	sc.epoch++
	if sc.epoch == 0 { // wrapped: clear stale marks
		clear(sc.markS)
		clear(sc.markT)
		sc.epoch = 1
	}
	off, tgt := g.CSR()
	epoch := sc.epoch
	qs := append(sc.qs[:0], s)
	qt := append(sc.qt[:0], t)
	spare := sc.qn[:0]
	// Keep the three buffers registered in the scratch so that rotation
	// below never leaves two scratch fields aliasing one buffer across
	// calls.
	defer func() { sc.qs, sc.qt, sc.qn = qs, qt, spare }()
	sc.markS[s] = epoch
	sc.markT[t] = epoch
	ds, dt := int32(0), int32(0)
	sizeS, sizeT := 1, 1 // |Ps|, |Pt| — Algorithm 2 expands the smaller side

	for len(qs) > 0 && len(qt) > 0 {
		if ds+dt+1 >= bound {
			return bound
		}
		var (
			frontier  *[]int32
			mine, his []uint64
		)
		forward := sizeS <= sizeT
		if forward {
			frontier, mine, his = &qs, sc.markS, sc.markT
		} else {
			frontier, mine, his = &qt, sc.markT, sc.markS
		}
		next := spare[:0]
		for _, u := range *frontier {
			for _, v := range tgt[off[u]:off[u+1]] {
				if skip != nil && skip[v] {
					continue
				}
				if mine[v] == epoch {
					continue
				}
				if his[v] == epoch {
					// Frontiers meet: ds + 1 + dt is the shortest
					// sparsified path (Algorithm 2 line 10).
					return ds + 1 + dt
				}
				mine[v] = epoch
				next = append(next, v)
			}
		}
		spare = *frontier // recycle the old frontier buffer
		*frontier = next
		if forward {
			ds++
			sizeS += len(next)
		} else {
			dt++
			sizeT += len(next)
		}
	}
	if bound != NoBound {
		// Frontier exhausted below the bound: every s-t path in the
		// sparsified graph is longer than bound, so the bound is the answer.
		return bound
	}
	return Unreachable
}
