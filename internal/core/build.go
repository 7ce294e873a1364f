package core

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"highway/internal/bfs"
	"highway/internal/graph"
)

// Direction selects the traversal strategy of the pruned BFSs; see
// bfs.Direction. The labelling is identical for every direction
// (Lemma 3.11 makes the output depend only on the graph and landmark
// set), so this is purely a performance/testing knob.
type Direction = bfs.Direction

const (
	// DirectionAuto is the direction-optimizing default.
	DirectionAuto = bfs.DirectionAuto
	// DirectionTopDown forces the classic top-down expansion.
	DirectionTopDown = bfs.DirectionTopDown
	// DirectionBottomUp forces bottom-up expansion (testing only).
	DirectionBottomUp = bfs.DirectionBottomUp
)

// Options configures index construction.
type Options struct {
	// Workers is the number of concurrent pruned BFSs (the paper's HL-P,
	// Section 5.1). 0 selects runtime.GOMAXPROCS(0); 1 is the sequential
	// HL of Algorithm 1. Because the labelling is deterministic
	// (Lemma 3.11), every worker count produces an identical index.
	Workers int

	// Direction selects how pruned-BFS levels are expanded: the
	// direction-optimizing hybrid (default), forced top-down (the
	// pre-engine reference, kept for benchmarking the switch), or forced
	// bottom-up (testing). Every direction produces an identical index.
	Direction Direction

	// Progress, when non-nil, is called after each landmark's pruned BFS
	// completes, with the number of completed BFSs and the landmark
	// count. Calls are serialized (one at a time) but may come from
	// different worker goroutines.
	Progress func(done, total int)
}

// BuildStats describes how an index was constructed: worker count and
// the traversal engine's per-direction work counters, summed over all
// pruned BFSs. Available via Index.BuildStats on built (not loaded)
// indexes.
type BuildStats struct {
	Workers   int
	Traversal bfs.TraversalStats
}

// Build constructs the highway cover distance labelling for the given
// landmark set sequentially (the paper's HL).
func Build(g *graph.Graph, landmarks []int32) (*Index, error) {
	return BuildOpts(context.Background(), g, landmarks, Options{Workers: 1})
}

// BuildParallel constructs the labelling with one pruned BFS per landmark
// running concurrently (the paper's HL-P).
func BuildParallel(g *graph.Graph, landmarks []int32) (*Index, error) {
	return BuildOpts(context.Background(), g, landmarks, Options{})
}

// BuildOpts constructs the labelling with full control. The context is
// checked between pruned BFSs; cancellation returns ctx.Err() (used by the
// bench harness to reproduce the paper's DNF budgets).
func BuildOpts(ctx context.Context, g *graph.Graph, landmarks []int32, opt Options) (*Index, error) {
	k := len(landmarks)
	if k == 0 {
		return nil, fmt.Errorf("core: no landmarks")
	}
	if k > MaxLandmarks {
		return nil, fmt.Errorf("core: %d landmarks exceeds MaxLandmarks=%d", k, MaxLandmarks)
	}
	n := g.NumVertices()
	rw := &Rows{
		landmarks:  landmarks,
		rankOf:     make([]int32, n),
		isLandmark: make([]bool, n),
		highway:    make([]int32, k*k),
		rows:       make([][]labelPair, k),
	}
	for i := range rw.rankOf {
		rw.rankOf[i] = -1
	}
	all := make([]int, k)
	for r, v := range landmarks {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("core: landmark %d out of range [0,%d)", v, n)
		}
		if rw.rankOf[v] >= 0 {
			return nil, fmt.Errorf("core: duplicate landmark %d", v)
		}
		rw.rankOf[v] = int32(r)
		rw.isLandmark[v] = true
		all[r] = r
	}
	stats, err := rw.Run(ctx, g, all, opt)
	if err != nil {
		return nil, err
	}
	ix := rw.Assemble(g)
	ix.built = stats
	return ix, nil
}

// Rows is a labelling in the form BuildOpts holds between its pruned BFSs
// and the flat index: the highway matrix and, per landmark rank, the label
// entries that landmark's BFS produced. Algorithm 1 is independent per
// landmark (Lemma 3.11), so after the graph changes, re-running any set of
// ranks that contains every rank whose BFS outcome changed and assembling
// gives exactly the index a from-scratch build on the new graph gives.
// internal/dynhl keeps that condition; BuildOpts is the case "every rank".
//
// A Rows is not safe for concurrent use. The indexes it assembles are
// immutable and share no array the Rows later writes.
type Rows struct {
	landmarks  []int32
	rankOf     []int32
	isLandmark []bool
	highway    []int32       // k*k, row r written by rank r's BFS alone
	rows       [][]labelPair // rows[r]: the entries rank r's BFS produced
	scratch    []*buildScratch

	// ix is the index whose label arrays equal rows and whose highway IS
	// highway (shared): the one RowsOf read or Assemble last returned. Run
	// clears it, after giving the Rows its own highway copy.
	ix *Index
}

// RowsOf derives the build state of an index without running a BFS. The
// index is shared, not copied: it stays valid and unchanged whatever the
// Rows does next.
func RowsOf(ix *Index) *Rows {
	rw := &Rows{
		landmarks:  ix.landmarks,
		rankOf:     ix.rankOf,
		isLandmark: ix.isLandmark,
		highway:    ix.highway,
		rows:       make([][]labelPair, len(ix.landmarks)),
		ix:         ix,
	}
	sizes := make([]int, len(rw.rows))
	for _, r := range ix.labelRank {
		sizes[r]++
	}
	for r, size := range sizes {
		rw.rows[r] = make([]labelPair, 0, size)
	}
	for v := range ix.rankOf {
		for p := ix.labelOff[v]; p < ix.labelOff[v+1]; p++ {
			r := ix.labelRank[p]
			rw.rows[r] = append(rw.rows[r], labelPair{v: int32(v), d: ix.labelDist[p]})
		}
	}
	return rw
}

// Run replaces the rows and highway rows of the given ranks with the
// outcome of their pruned BFSs on g, which must have the vertex count the
// Rows was made for. opt.Workers BFSs run at a time (0 selects
// GOMAXPROCS; never more than len(ranks)), each on scratch the Rows keeps
// between calls. The context is checked between BFSs; after an error the
// Rows holds a mix of old and new rows and must be dropped.
func (rw *Rows) Run(ctx context.Context, g *graph.Graph, ranks []int, opt Options) (BuildStats, error) {
	k := len(rw.landmarks)
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(ranks))
	stats := BuildStats{Workers: workers}
	if workers == 0 {
		return stats, nil
	}
	if rw.ix != nil {
		rw.highway, rw.ix = slices.Clone(rw.highway), nil
	}
	for len(rw.scratch) < workers {
		rw.scratch = append(rw.scratch, newBuildScratch(len(rw.rankOf)))
	}
	progress := newProgressFunc(opt.Progress, len(ranks))
	perWorker := make([]bfs.TraversalStats, workers)
	var next atomic.Int64 // index into ranks of the next BFS to start
	work := func(slot int) {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= len(ranks) {
				return
			}
			r := ranks[i]
			hwRow := rw.highway[r*k : (r+1)*k]
			for j := range hwRow {
				hwRow[j] = Infinity
			}
			rw.rows[r] = prunedBFS(g, rw.landmarks[r], rw.rankOf, k, rw.scratch[slot], hwRow, opt.Direction, &perWorker[slot])
			progress()
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	wg.Wait()
	// A worker that saw the cancellation left without drawing, so the
	// counter stops short exactly when some rank never ran.
	if int(next.Load()) < len(ranks) {
		return stats, ctx.Err()
	}
	for _, s := range perWorker {
		stats.Traversal.Add(s)
	}
	return stats, nil
}

// newProgressFunc wraps an Options.Progress callback into a serialized
// completion notifier (no-op when cb is nil). The count increments under
// the same lock that serializes the callback, so callers always observe
// done = 1, 2, ..., total in order.
func newProgressFunc(cb func(done, total int), total int) func() {
	if cb == nil {
		return func() {}
	}
	var mu sync.Mutex
	done := 0
	return func() {
		mu.Lock()
		done++
		cb(done, total)
		mu.Unlock()
	}
}

// labelPair is one label entry produced by a pruned BFS: vertex v receives
// the root landmark at distance d.
type labelPair struct {
	v int32
	d int32
}

// buildScratch holds reusable pruned-BFS state.
type buildScratch struct {
	labelF []int32 // label frontier (Qlabel at the current depth)
	pruneF []int32 // prune frontier (Qprune at the current depth)
	nextL  []int32
	nextP  []int32

	// unvis is the unvisited set, doubling as the visited marker of
	// top-down levels and the word-skipping scan set of bottom-up ones.
	unvis bfs.Bitset
	// Side-membership bitmaps: which side (label or prune) every visited
	// vertex joined. Bottom-up levels probe these instead of per-level
	// frontier bitmaps — any visited neighbor of a still-unvisited vertex
	// is necessarily on the current frontier, because both queues expand
	// every level. Claims made during a bottom-up sweep go to the *Next
	// bitmaps and are absorbed after the sweep, so the sweep never sees
	// its own claims as parents.
	labelSeen, labelNext bfs.Bitset
	pruneSeen, pruneNext bfs.Bitset
}

func newBuildScratch(n int) *buildScratch {
	return &buildScratch{
		labelF:    make([]int32, 0, 1024),
		pruneF:    make([]int32, 0, 1024),
		nextL:     make([]int32, 0, 1024),
		nextP:     make([]int32, 0, 1024),
		unvis:     bfs.NewBitset(n),
		labelSeen: bfs.NewBitset(n),
		labelNext: bfs.NewBitset(n),
		pruneSeen: bfs.NewBitset(n),
		pruneNext: bfs.NewBitset(n),
	}
}

// prunedBFS is Algorithm 1's pruned BFS from one landmark root. It returns
// the label entries (v, d) it generates and fills hwRow with the distances
// from root to every landmark rank (Infinity where unreachable).
//
// The two frontiers follow the paper exactly, with the crucial ordering
// that at each depth the *prune* frontier claims vertices before the label
// frontier expands. A vertex v at depth d+1 is therefore labelled iff
// *no* shortest path from the root to v passes through another landmark
// (Lemma 3.7): if any parent of v on a shortest path is pruned (or is a
// landmark), the prune frontier reaches v first and v stays unlabelled.
//
// Labelling stops when the label frontier dies out, but the prune-side
// expansion keeps running until every landmark has been seen so the
// highway row is computed in the same pass ("we can indeed compute the
// distances δH ... along with Algorithm 1", Section 3.2).
//
// Levels run top-down or bottom-up per the direction-optimizing
// heuristics (see internal/bfs). A bottom-up level scans every unvisited
// vertex's neighbor range against the two frontier bitmaps; "prune
// neighbor wins over label neighbor" replaces the prune-first queue
// ordering, claiming exactly the same vertex set. Entries within a level
// are then emitted in vertex order rather than discovery order, which is
// invisible in the assembled index: each vertex carries at most one entry
// per landmark, and assemble orders entries by (vertex, rank) alone. The
// index bytes are therefore identical for every direction — pinned by
// TestBuildDirectionsByteIdentical and the golden tiny.hl2 fixture.
func prunedBFS(g *graph.Graph, root int32, rankOf []int32, k int, sc *buildScratch, hwRow []int32, dir Direction, stats *bfs.TraversalStats) []labelPair {
	off, tgt := g.CSR()
	n := g.NumVertices()
	unvis := sc.unvis
	unvis.FillOnes(n)
	lSeen, lNext := sc.labelSeen, sc.labelNext
	pSeen, pNext := sc.pruneSeen, sc.pruneNext
	lSeen.ClearAll()
	pSeen.ClearAll()

	var out []labelPair
	labelF := append(sc.labelF[:0], root)
	pruneF := sc.pruneF[:0]
	unvis.Unset(root)
	lSeen.Set(root)
	hwRow[rankOf[root]] = 0
	foundLm := 1

	frontEdges := off[root+1] - off[root]    // Σ deg over both frontiers
	remEdges := int64(len(tgt)) - frontEdges // Σ deg over unvisited vertices
	bottomUp := false

	for d := int32(0); len(labelF) > 0 || (foundLm < k && len(pruneF) > 0); d++ {
		switch dir {
		case DirectionTopDown:
			bottomUp = false
		case DirectionBottomUp:
			bottomUp = true
		default:
			if !bottomUp {
				bottomUp = frontEdges > remEdges/bfs.AlphaDOpt
			} else {
				bottomUp = len(labelF)+len(pruneF) > n/bfs.BetaDOpt
			}
		}
		nextL := sc.nextL[:0]
		nextP := sc.nextP[:0]
		var scanned, nextEdges int64
		if bottomUp {
			switch {
			case len(labelF) == 0:
				// Prune-only phase (labels died out, still completing the
				// highway row): one probe, first hit claims the vertex.
				// These are exactly the heavy saturated levels, so this
				// single-probe loop is the construction hot spot.
				for wi, w := range unvis {
					for w != 0 {
						v := int32(wi<<6 | bits.TrailingZeros64(w))
						w &= w - 1
						lo, hi := off[v], off[v+1]
						for _, u := range tgt[lo:hi] {
							scanned++
							if pSeen.Get(u) {
								unvis.Unset(v)
								pNext.Set(v)
								nextEdges += hi - lo
								if r := rankOf[v]; r >= 0 {
									hwRow[r] = d + 1
									foundLm++
								}
								nextP = append(nextP, v)
								break
							}
						}
					}
				}
			case len(pruneF) == 0:
				// Label-only level (no pruned vertex yet): one probe;
				// hits are labelled unless they are landmarks.
				for wi, w := range unvis {
					for w != 0 {
						v := int32(wi<<6 | bits.TrailingZeros64(w))
						w &= w - 1
						lo, hi := off[v], off[v+1]
						for _, u := range tgt[lo:hi] {
							scanned++
							if lSeen.Get(u) {
								unvis.Unset(v)
								nextEdges += hi - lo
								if r := rankOf[v]; r >= 0 {
									hwRow[r] = d + 1
									foundLm++
									pNext.Set(v)
									nextP = append(nextP, v)
								} else {
									lNext.Set(v)
									nextL = append(nextL, v)
									out = append(out, labelPair{v: v, d: d + 1})
								}
								break
							}
						}
					}
				}
			default:
				for wi, w := range unvis {
					for w != 0 {
						v := int32(wi<<6 | bits.TrailingZeros64(w))
						w &= w - 1
						// hasP dominates: any pruned (or landmark) parent
						// on a shortest path claims v for the prune side,
						// mirroring the prune-first ordering of the
						// top-down level.
						hasP, hasL := false, false
						lo, hi := off[v], off[v+1]
						for _, u := range tgt[lo:hi] {
							scanned++
							if pSeen.Get(u) {
								hasP = true
								break
							}
							if !hasL && lSeen.Get(u) {
								hasL = true
							}
						}
						if !hasP && !hasL {
							continue
						}
						unvis.Unset(v)
						nextEdges += hi - lo
						if r := rankOf[v]; r >= 0 {
							hwRow[r] = d + 1
							foundLm++
							pNext.Set(v)
							nextP = append(nextP, v)
						} else if hasP {
							pNext.Set(v)
							nextP = append(nextP, v)
						} else {
							lNext.Set(v)
							nextL = append(nextL, v)
							out = append(out, labelPair{v: v, d: d + 1})
						}
					}
				}
			}
			// Commit the sweep's claims into the side-membership bitmaps.
			pSeen.Absorb(pNext)
			lSeen.Absorb(lNext)
			if stats != nil {
				stats.BottomUpLevels++
				stats.EdgesBottomUp += scanned
			}
		} else {
			// Prune frontier first: pruned parents capture their children
			// before the label frontier can label them.
			for _, u := range pruneF {
				lo, hi := off[u], off[u+1]
				scanned += hi - lo
				for _, v := range tgt[lo:hi] {
					if !unvis.Get(v) {
						continue
					}
					unvis.Unset(v)
					pSeen.Set(v)
					nextEdges += off[v+1] - off[v]
					if r := rankOf[v]; r >= 0 {
						hwRow[r] = d + 1
						foundLm++
					}
					nextP = append(nextP, v)
				}
			}
			for _, u := range labelF {
				lo, hi := off[u], off[u+1]
				scanned += hi - lo
				for _, v := range tgt[lo:hi] {
					if !unvis.Get(v) {
						continue
					}
					unvis.Unset(v)
					nextEdges += off[v+1] - off[v]
					if r := rankOf[v]; r >= 0 {
						hwRow[r] = d + 1
						foundLm++
						pSeen.Set(v)
						nextP = append(nextP, v)
					} else {
						lSeen.Set(v)
						nextL = append(nextL, v)
						out = append(out, labelPair{v: v, d: d + 1})
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
		// Rotate: the filled next buffers become the frontiers, and the
		// old frontier buffers are handed back to the scratch as spares,
		// keeping all four buffers distinct across iterations and calls.
		labelF, sc.nextL = nextL, labelF[:0]
		pruneF, sc.nextP = nextP, pruneF[:0]
	}
	// Leave scratch fields pointing at the most recently used buffers.
	sc.labelF, sc.pruneF = labelF, pruneF
	return out
}

// Assemble packs the rows into the flat CSR index over g, the graph the
// rows were last run on. Iterating ranks in ascending order makes every
// vertex's label sorted by rank, so sequential and parallel builds produce
// identical indexes. When no rank ran since the last index — a batch that
// changed edges but no landmark's BFS — that index's label arrays are
// attached to g as they are.
func (rw *Rows) Assemble(g *graph.Graph) *Index {
	ix := &Index{
		g:          g,
		landmarks:  rw.landmarks,
		rankOf:     rw.rankOf,
		isLandmark: rw.isLandmark,
		highway:    rw.highway,
	}
	if last := rw.ix; last != nil {
		ix.labelOff, ix.labelRank, ix.labelDist = last.labelOff, last.labelRank, last.labelDist
		rw.ix = ix
		return ix
	}
	n := g.NumVertices()
	off := make([]int64, n+1)
	for _, row := range rw.rows {
		for _, p := range row {
			off[p.v+1]++
		}
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	ix.labelOff = off
	ix.labelRank = make([]int32, off[n])
	ix.labelDist = make([]int32, off[n])
	cursor := make([]int64, n)
	copy(cursor, off[:n])
	for r, row := range rw.rows {
		for _, p := range row {
			pos := cursor[p.v]
			cursor[p.v]++
			ix.labelRank[pos] = int32(r)
			ix.labelDist[pos] = p.d
		}
	}
	rw.ix = ix
	return ix
}
