package bfs

import (
	"math/bits"
	"sync"

	"highway/internal/graph"
)

// This file is the shared direction-optimizing traversal engine
// (Beamer, Asanović, Patterson, SC 2012) used by every BFS in the
// repository. A level is expanded either
//
//   - top-down: walk the frontier's edge lists and push unvisited
//     neighbors (cheap while the frontier is sparse), or
//   - bottom-up: scan every unvisited vertex's neighbor range against a
//     frontier bitmap and stop at the first hit (cheap on the heavy
//     middle levels of skewed-degree complex networks, where most edges
//     point back into the frontier).
//
// The switch uses the classic α/β heuristics on scanned-edge estimates:
// go bottom-up when the frontier's outgoing edges exceed 1/α of the
// edges still incident to unvisited vertices, and return top-down once
// the frontier shrinks below 1/β of the vertices.

// direction forces every level of a search one way. Searches run dirAuto;
// the forced values exist so the differential tests reach both arms on
// graphs too small to switch.
type direction uint8

const (
	dirAuto     direction = iota // switch per level by the α/β heuristics
	dirTopDown                   // the classic frontier walk, the tests' reference
	dirBottomUp                  // always correct, usually slower
)

// alphaDOpt and betaDOpt are the direction-switch coefficients: go
// bottom-up when frontier edges exceed remaining-unvisited edges / α,
// return top-down when the frontier drops below n/β. The heuristic shape
// is Beamer's; the coefficients are re-tuned for this implementation,
// where a bottom-up probe costs about the same as a top-down edge walk
// (both are one array load plus one bit test), so switching pays off
// later than in Beamer's α=14 setting. Deliberately not configurable — the
// engine must stay deterministic and the optimum is flat around these
// values. The construction traversal in internal/core has its own level
// loop and its own measured pair.
const (
	alphaDOpt = 4
	betaDOpt  = 24
)

// TraversalStats counts the per-direction work of one or more
// traversals. Counters are plain ints: accumulate per worker and merge
// with Add.
type TraversalStats struct {
	TopDownLevels  int64 // levels expanded top-down
	BottomUpLevels int64 // levels expanded bottom-up
	EdgesTopDown   int64 // edges examined by top-down expansions
	EdgesBottomUp  int64 // neighbor-range entries scanned bottom-up
}

// Add accumulates o into s.
func (s *TraversalStats) Add(o TraversalStats) {
	s.TopDownLevels += o.TopDownLevels
	s.BottomUpLevels += o.BottomUpLevels
	s.EdgesTopDown += o.EdgesTopDown
	s.EdgesBottomUp += o.EdgesBottomUp
}

// Levels returns the total number of expanded levels.
func (s TraversalStats) Levels() int64 { return s.TopDownLevels + s.BottomUpLevels }

// EdgesScanned returns the total number of examined edges.
func (s TraversalStats) EdgesScanned() int64 { return s.EdgesTopDown + s.EdgesBottomUp }

// arena is the reusable per-worker scratch of single-source searches:
// frontier buffers, the bottom-up frontier bitmap, and a distance buffer
// for the search forms that do not return one. Arenas are pooled so
// repeated calls (oracle ground truth, landmark sampling, differential
// tests) stop allocating per call.
type arena struct {
	frontier, next []int32
	unvis          Bitset // unvisited set, maintained for word skipping
	dist           []int32
}

var arenaPool = sync.Pool{New: func() any {
	return &arena{
		frontier: make([]int32, 0, 1024),
		next:     make([]int32, 0, 1024),
	}
}}

// getArena draws a pooled arena sized for n vertices.
func getArena(n int) *arena {
	a := arenaPool.Get().(*arena)
	a.unvis = a.unvis.grown(n)
	return a
}

func putArena(a *arena) { arenaPool.Put(a) }

// distBuf returns the arena's distance buffer, len n, every entry
// Unreachable.
func (a *arena) distBuf(n int) []int32 {
	if cap(a.dist) < n {
		a.dist = make([]int32, n)
	}
	a.dist = a.dist[:n]
	for i := range a.dist {
		a.dist[i] = Unreachable
	}
	return a.dist
}

// distancesCSR is the direction-optimizing single-source BFS over g's
// flat CSR arrays. dist must be g.NumVertices() long and pre-filled with
// Unreachable (it doubles as the visited set). It returns the number of
// reached vertices, src included. dir forces every level one way for the
// differential tests; stats may be nil.
func distancesCSR(g *graph.Graph, src int32, dist []int32, dir direction, stats *TraversalStats) int {
	off, tgt := g.CSR()
	n := len(off) - 1
	a := getArena(n)
	defer putArena(a)
	dist[src] = 0
	frontier := append(a.frontier[:0], src)
	next := a.next[:0]
	reached := 1

	// The unvisited set mirrors dist's Unreachable entries as a bitmap so
	// bottom-up levels skip fully-visited regions 64 vertices at a time.
	unvis := a.unvis
	unvis.FillOnes(n)
	unvis.Unset(src)

	frontEdges := off[src+1] - off[src]      // Σ deg over the frontier
	remEdges := int64(len(tgt)) - frontEdges // Σ deg over unvisited vertices
	bottomUp := false

	for d := int32(1); len(frontier) > 0; d++ {
		switch dir {
		case dirTopDown:
			bottomUp = false
		case dirBottomUp:
			bottomUp = true
		default:
			if !bottomUp {
				bottomUp = frontEdges > remEdges/alphaDOpt
			} else {
				bottomUp = len(frontier) > n/betaDOpt
			}
		}
		next = next[:0]
		var scanned, nextEdges int64
		if bottomUp {
			// Frontier membership is dist[u] == d-1: vertices claimed
			// earlier in this same sweep carry dist d, earlier levels
			// carry smaller distances, so no frontier bitmap is needed.
			for wi, w := range unvis {
				for w != 0 {
					v := int32(wi<<6 | bits.TrailingZeros64(w))
					w &= w - 1
					lo, hi := off[v], off[v+1]
					for _, u := range tgt[lo:hi] {
						scanned++
						if dist[u] == d-1 {
							dist[v] = d
							unvis.Unset(v)
							next = append(next, v)
							nextEdges += hi - lo
							reached++
							break
						}
					}
				}
			}
			if stats != nil {
				stats.BottomUpLevels++
				stats.EdgesBottomUp += scanned
			}
		} else {
			for _, u := range frontier {
				lo, hi := off[u], off[u+1]
				scanned += hi - lo
				for _, v := range tgt[lo:hi] {
					if dist[v] == Unreachable {
						dist[v] = d
						unvis.Unset(v)
						next = append(next, v)
						nextEdges += off[v+1] - off[v]
						reached++
					}
				}
			}
			if stats != nil {
				stats.TopDownLevels++
				stats.EdgesTopDown += scanned
			}
		}
		remEdges -= nextEdges
		frontEdges = nextEdges
		frontier, next = next, frontier
	}
	a.frontier, a.next = frontier, next
	return reached
}
