package bfs

import (
	"math"

	"highway/internal/graph"
)

// Scratch holds the reusable per-search state of bidirectional searches
// and of Depths. One Scratch supports any number of sequential searches on
// graphs with at most its capacity of vertices; it is not safe for
// concurrent use.
//
// One stamp a vertex records the side of the current search that holds
// it: 2·epoch the s-side, 2·epoch+1 the t-side, anything lower neither,
// so resetting a search costs O(1) instead of O(n). One word serves both
// sides because the second side to reach a vertex ends the search. A
// Depths run stamps depth d as 2·epoch+d and moves the epoch past its
// deepest stamp, so it too starts above every stamp before it.
type Scratch struct {
	stamp      []uint32
	epoch      uint32 // < 1<<31, so both sides' stamps fit a uint32
	lo, hi     uint32 // the last Depths run's stamps are [lo, hi)
	qs, qt, qn []int32
}

// NewScratch returns a Scratch for graphs with up to n vertices.
func NewScratch(n int) *Scratch {
	return &Scratch{
		stamp: make([]uint32, n),
		qs:    make([]int32, 0, 1024),
		qt:    make([]int32, 0, 1024),
		qn:    make([]int32, 0, 1024),
	}
}

// next starts a search on a graph of n vertices and returns its epoch,
// growing the stamps if the graph is larger than any before.
func (s *Scratch) next(n int) uint32 {
	if len(s.stamp) < n {
		s.stamp = make([]uint32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 1<<31 { // 2·epoch would wrap: clear stale stamps
		clear(s.stamp)
		s.epoch = 1
	}
	s.lo, s.hi = 0, 0
	return s.epoch
}

// Depths runs a top-down BFS from src on G[V\skip] (skip as for
// BoundedBiBFS; src must not be skipped) that expands no vertex at depth
// limit or deeper, so it reaches the vertices within limit of src. It
// calls poll before it expands each level and stops with poll's error.
// The depths are read with sc.Depth until sc's next search, also from
// poll, which sees the levels reached so far.
func Depths(g *graph.Graph, src, limit int32, skip []bool, sc *Scratch, poll func() error) error {
	n := g.NumVertices()
	base := 2 * sc.next(n)
	span := uint32(max(0, min(int(limit), n))) // no stamp lies deeper
	if uint64(base)+uint64(span) >= math.MaxUint32 {
		// The deepest stamp would wrap: clear stale stamps.
		clear(sc.stamp)
		base = 2
	}
	sc.lo, sc.hi = base, base+span+1
	off, tgt := g.CSR()
	stamp := sc.stamp
	frontier := append(sc.qs[:0], src)
	next := sc.qt[:0]
	stamp[src] = base
	top := base // the frontier's stamp; none lies above it
	var err error
	for ; len(frontier) > 0 && top-base < span; top++ {
		if err = poll(); err != nil {
			break
		}
		next = next[:0]
		for _, u := range frontier {
			for _, v := range tgt[off[u]:off[u+1]] {
				if stamp[v] >= base || skip != nil && skip[v] {
					continue
				}
				stamp[v] = top + 1
				next = append(next, v)
			}
		}
		frontier, next = next, frontier
	}
	// Reserve the stamps used: the next search starts above top.
	sc.qs, sc.qt = frontier, next
	sc.epoch = top / 2
	return err
}

// Depth returns v's depth in the last Depths run on sc, or Unreachable if
// that run did not reach v or sc has searched since (or never ran Depths).
func (s *Scratch) Depth(v int32) int32 {
	if st := s.stamp[v]; st >= s.lo && st < s.hi {
		return int32(st - s.lo)
	}
	return Unreachable
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
	base := 2 * sc.next(g.NumVertices())
	off, tgt := g.CSR()
	stamp := sc.stamp
	qs := append(sc.qs[:0], s)
	qt := append(sc.qt[:0], t)
	spare := sc.qn[:0]
	// Keep the three buffers registered in the scratch so that rotation
	// below never leaves two scratch fields aliasing one buffer across
	// calls.
	defer func() { sc.qs, sc.qt, sc.qn = qs, qt, spare }()
	stamp[s], stamp[t] = base, base+1
	ds, dt := int32(0), int32(0)
	sizeS, sizeT := 1, 1 // |Ps|, |Pt| — Algorithm 2 expands the smaller side

	for len(qs) > 0 && len(qt) > 0 {
		if ds+dt+1 >= bound {
			return bound
		}
		frontier, mine := &qs, base
		forward := sizeS <= sizeT
		if !forward {
			frontier, mine = &qt, base+1
		}
		next := spare[:0]
		for _, u := range *frontier {
			for _, v := range tgt[off[u]:off[u+1]] {
				if st := stamp[v]; st >= base {
					if st != mine {
						// Frontiers meet: ds + 1 + dt is the shortest
						// sparsified path (Algorithm 2 line 10).
						return ds + 1 + dt
					}
					continue
				}
				// Only an unclaimed vertex reads the skip mask: a landmark
				// is never claimed, so its stamp is always stale.
				if skip != nil && skip[v] {
					continue
				}
				stamp[v] = mine
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
