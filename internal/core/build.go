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

// Options configures index construction.
type Options struct {
	// Workers is the number of goroutines that share each pulled level of
	// the construction traversal: a worker takes blocks of vertices, not a
	// landmark's BFS (all landmarks advance together, see sweep). 0 selects
	// runtime.GOMAXPROCS(0); 1 is the calling goroutine alone. A vertex's
	// outcome at a level depends only on the level before it (and the
	// labelling only on graph and landmarks, Lemma 3.11), so every worker
	// count produces an identical index and identical traversal counters.
	Workers int

	// Progress, when non-nil, is called once per landmark, when its pruned
	// BFS has finished, with the number finished so far (1…total in order)
	// and the landmark count, on the goroutine that called BuildOpts.
	Progress func(done, total int)

	// dir forces every level to be pushed or pulled. Only the in-package
	// differential tests set it: the labelling depends on graph and
	// landmarks alone (Lemma 3.11), so no caller has a use for it.
	dir direction
}

// direction is how a sweep expands its levels: by the measured frontier,
// or, in tests, one way throughout.
type direction uint8

const (
	dirAuto direction = iota
	dirPush
	dirPull
)

// BuildStats describes how an index was constructed: worker count and the
// traversal's work counters — pushed levels and the arcs they walked as
// top-down, pulled levels and the arcs they examined as bottom-up — summed
// over all groups of landmarks and independent of the worker count.
// Available via Index.BuildStats on built (not loaded) indexes.
type BuildStats struct {
	Workers   int
	Traversal bfs.TraversalStats
}

// Build constructs the highway cover distance labelling for the given
// landmark set on the calling goroutine alone (the paper's HL).
func Build(g *graph.Graph, landmarks []int32) (*Index, error) {
	return BuildOpts(context.Background(), g, landmarks, Options{Workers: 1})
}

// BuildParallel constructs the labelling with GOMAXPROCS workers sharing
// each pulled level's vertices (the paper's HL-P, Section 5.1).
func BuildParallel(g *graph.Graph, landmarks []int32) (*Index, error) {
	return BuildOpts(context.Background(), g, landmarks, Options{})
}

// BuildOpts constructs the labelling with full control. The context is
// checked between levels and between groups of landmarks; cancellation
// returns ctx.Err() (how the bench harness reproduces the paper's DNFs).
func BuildOpts(ctx context.Context, g *graph.Graph, landmarks []int32, opt Options) (*Index, error) {
	k := len(landmarks)
	if k == 0 {
		return nil, fmt.Errorf("core: no landmarks")
	}
	if k > MaxLandmarks {
		return nil, fmt.Errorf("core: %d landmarks exceeds MaxLandmarks=%d", k, MaxLandmarks)
	}
	// The index keeps a copy: no more than k ids, and none a caller can
	// still write to.
	landmarks = append(make([]int32, 0, k), landmarks...)
	n := g.NumVertices()
	rw := &Rows{landmarks: landmarks, rankOf: make([]int32, n), isLandmark: make([]bool, n), highway: make([]int32, k*k)}
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
	stats, err := rw.run(ctx, g, all, opt)
	if err != nil {
		return nil, err
	}
	rw.sw = sweep{} // no later run reuses its words, so the layout need not hold them
	ix := rw.assemble(g)
	ix.built = stats
	return ix, nil
}

// Rows is the build state of a labelling: the highway matrix, the last
// index assembled (or read by RowsOf), which IS the label state, and the
// outcome of a run that has not been assembled yet. Algorithm 1 is
// independent per landmark (Lemma 3.11), so after the graph changes,
// re-running any set of ranks that contains every rank whose BFS outcome
// changed and assembling gives exactly the index a from-scratch build on
// the new graph gives. ApplyOps keeps that condition; BuildOpts is the
// case "every rank".
//
// A Rows is not safe for concurrent use. The indexes it assembles are
// immutable and share no array the Rows later writes.
type Rows struct {
	landmarks  []int32
	rankOf     []int32
	isLandmark []bool
	highway    []int32 // k*k; row r is written by the sweep that runs rank r

	// ix holds the label entries of every rank not in runs; nil until
	// BuildOpts assembles. While ixHighway is set its highway is the array
	// above, and run copies before it writes.
	ix        *Index
	ixHighway bool
	runs      []*groupRun // what run produced since ix, ranks ascending
	workers   int         // of that run; assemble packs and merges with as many
	sw        sweep
}

// RowsOf wraps an index as build state. Nothing is copied or derived: the
// index stays valid and unchanged whatever the Rows does next.
func RowsOf(ix *Index) *Rows {
	return &Rows{landmarks: ix.landmarks, rankOf: ix.rankOf, isLandmark: ix.isLandmark,
		highway: ix.highway, ix: ix, ixHighway: true}
}

// run replaces the label entries and highway rows of the given ranks with
// the outcome of their pruned BFSs on g, which must have the vertex count
// the Rows was made for. The ranks run in ascending groups of at most 32,
// each group as one sweep: whatever the number of ranks in a group, the
// graph is traversed once. The result is pending until assemble, which must
// come before the next run. The context is checked between levels and
// between groups; after an error the Rows must be dropped.
func (rw *Rows) run(ctx context.Context, g *graph.Graph, ranks []int, opt Options) (BuildStats, error) {
	rw.workers = opt.Workers
	if rw.workers <= 0 {
		rw.workers = runtime.GOMAXPROCS(0)
	}
	if g.NumVertices() < parallelVertices {
		rw.workers = 1
	}
	stats := BuildStats{Workers: rw.workers}
	if len(ranks) == 0 {
		return stats, nil
	}
	if len(rw.runs) > 0 {
		panic("core: Rows.run called again before assemble")
	}
	if rw.ixHighway {
		rw.highway, rw.ixHighway = slices.Clone(rw.highway), false
	}
	ranks = slices.Compact(slices.Sorted(slices.Values(ranks)))
	done, total := 0, len(ranks)
	finished := func(mask uint32) {
		for ; mask != 0 && opt.Progress != nil; mask &= mask - 1 {
			done++
			opt.Progress(done, total)
		}
	}
	for len(ranks) > 0 {
		group := ranks[:min(groupBits, len(ranks))]
		ranks = ranks[len(group):]
		run, err := rw.sw.run(ctx, rw, g, group, opt.dir, &stats.Traversal, finished)
		if err != nil {
			return stats, err
		}
		rw.runs = append(rw.runs, run)
	}
	return stats, nil
}

// groupRun is what one sweep produced: per vertex, which of its ranks
// labelled it and the codes of the first and last depth they did, and an
// event for each later (vertex, level). The ranks of labelled[v] that no
// event names labelled v at its first depth.
type groupRun struct {
	ranks     []int     // ascending; bit b of every mask is rank ranks[b]
	labelled  []uint32  // per vertex: the ranks that labelled it
	low, high []uint8   // per vertex: the codes, min(d-1, 255), of the first and last depth they did
	events    [][]event // chunks, in no order that matters
}

// event says the ranks in mask labelled vertex v at distance d, a depth
// after v's first or one whose code, min(d-1, 255), does not give it.
type event struct {
	v, d int32
	mask uint32
}

// sweep runs Algorithm 1 for up to groupBits landmarks at once, level by
// level (DESIGN.md, "How the labelling is built"). A landmark's BFS state
// at a vertex is two bits, so per vertex seen holds the ranks whose BFS
// has reached it, and its frontier word, for the level just claimed, those
// ranks in the low half and in the high half the ones for which it sits in
// Qprune rather than Qlabel. To claim level d+1 a vertex v ORs the frontier
// words of its neighbours (pull), or every frontier vertex ORs its word
// into its neighbours' next word (push); either way, with reach and prune
// the two halves of the result restricted to active &^ seen[v]:
//
//	new   = reach                    // v is at distance d+1 from these ranks
//	prune = prune, or new if v is a landmark (which also sets δH)
//	label = new &^ prune             // L(v) gains (rank, d+1)
//
// "a pruned parent wins" (Lemma 3.7) for every rank at once.
type sweep struct {
	// Kept between runs, 20 bytes a vertex; front and next are all zero
	// between runs.
	seen        []uint32
	front, next []uint64
	frontier    [][]int32 // per worker: the vertices a pushed level claimed

	sweepRun // zero between runs, so that no graph or labelling is held
}

// sweepRun is what a sweep knows only while it runs.
type sweepRun struct {
	off       []int64
	tgt       []int32
	rankOf    []int32
	highway   []int32
	k         int
	ranks     []int
	labelled  []uint32
	low, high []uint8 // per vertex: the codes, min(d-1, 255), of its first and last labelling depth
	active    uint32  // ranks still running
	pruning   uint32  // ranks with a non-empty Qprune at the frontier
	depth     int32   // of the level being claimed
}

// levelOut is what one worker produced at one level, padded so that
// neighbours in a slice do not share a cache line.
type levelOut struct {
	events             [][]event // chunks of eventChunk; grown by a chunk, never copied
	list               []int32   // vertices a pushed level claimed
	labelAny, pruneAny uint32    // OR of the label and prune masks claimed
	claimed            int       // vertices claimed
	arcs               int64     // adjacency entries examined
	frontEdges         int64     // Σ degree over the vertices claimed
	_                  [48]byte
}

// groupBits landmarks fit a sweep: one bit each in both halves of a uint64.
// The push/pull switch has Beamer's shape: pull once the frontier's arcs
// exceed 1/pullAlpha of the graph's, push again once the frontier is under
// 1/pushBeta of the vertices. A pulled level and a merge draw pullBlock
// vertices at a time; events come in chunks of eventChunk; on graphs under
// parallelVertices everything stays on the calling goroutine, where starting
// workers costs more than they save. Measured constants (DESIGN.md), not
// options.
const (
	groupBits        = 32
	pullAlpha        = 8
	pushBeta         = 24
	pullBlock        = 512
	eventChunk       = 4096
	parallelVertices = 1 << 13
)

// both spreads a rank mask over the two halves of a frontier word.
func both(mask uint32) uint64 { return uint64(mask) * (1<<32 + 1) }

// run sweeps g for the given ranks of rw. A rank stays active while its
// Qlabel is non-empty, or its Qprune is and some landmark is still unfound
// — Algorithm 1's loop condition; finished reports the ranks that leave.
func (s *sweep) run(ctx context.Context, rw *Rows, g *graph.Graph, ranks []int, dir direction, stats *bfs.TraversalStats, finished func(uint32)) (*groupRun, error) {
	n, k, workers := g.NumVertices(), len(rw.landmarks), rw.workers
	if s.seen == nil {
		s.seen, s.front, s.next = make([]uint32, n), make([]uint64, n), make([]uint64, n)
	}
	clear(s.seen)
	for len(s.frontier) < workers {
		s.frontier = append(s.frontier, nil)
	}
	s.sweepRun = sweepRun{rankOf: rw.rankOf, highway: rw.highway, k: k, ranks: ranks,
		labelled: make([]uint32, n), low: make([]uint8, n), high: make([]uint8, n), active: ^uint32(0) >> (groupBits - len(ranks))}
	defer func() { s.sweepRun = sweepRun{} }()
	s.off, s.tgt = g.CSR()
	outs := make([]levelOut, workers)

	frontEdges, frontCount := int64(0), len(ranks)
	for b, r := range ranks {
		root := rw.landmarks[r]
		row := s.highway[r*k : (r+1)*k]
		for i := range row {
			row[i] = Infinity
		}
		row[r] = 0
		s.seen[root], s.front[root] = 1<<b, 1<<b // the root starts in Qlabel
		outs[0].list = append(outs[0].list, root)
		frontEdges += s.off[root+1] - s.off[root]
	}

	// A pulled level lists no vertex: the level after it clears front whole,
	// and a push reads its frontier from the front words.
	pull, pulled := false, false
	for s.depth = 1; s.active != 0; s.depth++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for w := range outs {
			s.frontier[w], outs[w].list = outs[w].list, s.frontier[w][:0]
		}
		switch {
		case dir == dirPush:
			pull = false
		case dir == dirPull:
			pull = true
		case pull:
			pull = frontCount > n/pushBeta
		default:
			pull = frontEdges > int64(len(s.tgt))/pullAlpha
		}
		if pull {
			// A vertex is read and written only by the goroutine that holds
			// its block; front is read-only until the level ends.
			share(workers, (n+pullBlock-1)/pullBlock, func(w, i int) {
				s.pullBlock(i*pullBlock, min((i+1)*pullBlock, n), &outs[w])
			})
		} else {
			s.push(&outs[0], pulled)
		}
		var labelAny, pruneAny uint32
		var arcs int64
		frontEdges, frontCount = 0, 0
		for w := range outs {
			o := &outs[w]
			labelAny |= o.labelAny
			pruneAny |= o.pruneAny
			arcs += o.arcs
			frontEdges += o.frontEdges
			frontCount += o.claimed
			o.labelAny, o.pruneAny, o.claimed, o.arcs, o.frontEdges = 0, 0, 0, 0, 0
		}
		s.clearFront(pulled)
		s.front, s.next, pulled = s.next, s.front, pull
		if pull {
			stats.BottomUpLevels++
			stats.EdgesBottomUp += arcs
		} else {
			stats.TopDownLevels++
			stats.EdgesTopDown += arcs
		}
		still := labelAny
		for m := pruneAny &^ labelAny; m != 0; m &= m - 1 {
			r := ranks[bits.TrailingZeros32(m)]
			if slices.Contains(s.highway[r*k:(r+1)*k], Infinity) {
				still |= m & -m
			}
		}
		finished(s.active &^ still)
		s.active, s.pruning = still, pruneAny
	}
	for w := range outs {
		s.frontier[w] = outs[w].list
	}
	s.clearFront(pulled)
	run := &groupRun{ranks: ranks, labelled: s.labelled, low: s.low, high: s.high}
	for w := range outs {
		run.events = append(run.events, outs[w].events...)
	}
	return run, nil
}

// clearFront zeroes the front words: all of them after a pulled level,
// which lists no vertex, or those of the vertices frontier lists.
func (s *sweep) clearFront(pulled bool) {
	if pulled {
		clear(s.front)
		return
	}
	for _, list := range s.frontier {
		for _, u := range list {
			s.front[u] = 0
		}
	}
}

// push expands a sparse level: every frontier vertex ORs its word into the
// next word of each neighbour, minus what the neighbour has already seen;
// the vertices touched are then claimed. seen does not change until every
// parent has contributed, so a pruned parent met second still wins. After
// a pulled level the frontier is the vertices whose front word is set.
func (s *sweep) push(o *levelOut, pulled bool) {
	active := both(s.active)
	expand := func(u int32) {
		f := s.front[u] & active
		if f == 0 {
			return
		}
		nb := s.tgt[s.off[u]:s.off[u+1]]
		o.arcs += int64(len(nb))
		for _, v := range nb {
			w := f &^ both(s.seen[v])
			if w == 0 {
				continue
			}
			if s.next[v] == 0 {
				o.list = append(o.list, v)
			}
			s.next[v] |= w
		}
	}
	if pulled {
		for u, f := range s.front {
			if f != 0 {
				expand(int32(u))
			}
		}
	}
	for _, list := range s.frontier {
		for _, u := range list {
			expand(u)
		}
	}
	for _, v := range o.list {
		s.claim(v, s.next[v], o)
	}
}

// pullBlock claims vertices lo..hi: each one some active rank has not
// reached ORs its neighbours' frontier words, and stops looking once every
// rank it wants has reached it through a pruned parent, or through any
// parent when that rank's Qprune is empty — nothing a later neighbour holds
// can change its outcome.
func (s *sweep) pullBlock(lo, hi int, o *levelOut) {
	var arcs int64
	labelOnly := uint64(^s.pruning)
	for v := lo; v < hi; v++ {
		wanted := s.active &^ s.seen[v]
		if wanted == 0 {
			continue
		}
		var acc uint64
		nb := s.tgt[s.off[v]:s.off[v+1]]
		scanned := len(nb)
		for i, u := range nb {
			acc |= s.front[u]
			if uint32(acc>>32|acc&labelOnly)&wanted == wanted {
				scanned = i + 1
				break
			}
		}
		arcs += int64(scanned)
		if acc &= both(wanted); acc != 0 {
			s.claim(int32(v), acc, o)
		}
	}
	o.arcs += arcs
}

// claim settles v at the current depth for the ranks in acc's low half,
// pruned for those in its high half (a subset). The ranks that label v at
// its first depth need no event: it is low[v], and they are the ones of
// labelled[v] that no event names.
func (s *sweep) claim(v int32, acc uint64, o *levelOut) {
	reach, prune := uint32(acc), uint32(acc>>32)
	if col := s.rankOf[v]; col >= 0 {
		prune = reach
		for m := reach; m != 0; m &= m - 1 {
			s.highway[s.ranks[bits.TrailingZeros32(m)]*s.k+int(col)] = s.depth
		}
	}
	s.seen[v] |= reach
	s.next[v] = uint64(reach) | uint64(prune)<<32
	if label := reach &^ prune; label != 0 {
		code, later := uint8(min(s.depth-1, 255)), s.labelled[v] != 0
		if !later {
			s.low[v] = code
		}
		s.high[v], s.labelled[v] = code, s.labelled[v]|label
		if later || code == 255 {
			last := len(o.events) - 1
			if last < 0 || len(o.events[last]) == eventChunk {
				o.events = append(o.events, make([]event, 0, eventChunk))
				last++
			}
			o.events[last] = append(o.events[last], event{v: v, d: s.depth, mask: label})
		}
		o.labelAny |= label
	}
	o.pruneAny |= prune
	o.claimed++
	o.frontEdges += s.off[v+1] - s.off[v]
}

// share runs fn(w, i) for every i in [0, n) on the given number of
// goroutines, which draw items from an atomic counter; w numbers the
// goroutine. With one worker it runs on the calling goroutine.
func share(workers, n int, fn func(w, i int)) {
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}

// assemble packs the label state into the flat CSR index over g, the graph
// the last run was on. A vertex's entries are placed by rank whatever order
// the events come in, so every worker count and direction gives the same
// arrays. When nothing ran since the last index — a batch that changed
// edges but no landmark's BFS — and g elides the leaves that index did,
// its label arrays are attached to g as they are; otherwise its entries of
// the ranks that did not run are merged with the new ones (lay). No index
// handed out earlier is written.
func (rw *Rows) assemble(g *graph.Graph) *Index {
	ix := &Index{g: g, landmarks: rw.landmarks, rankOf: rw.rankOf, isLandmark: rw.isLandmark, highway: rw.highway}
	prev, k := rw.ix, len(rw.landmarks)
	cand := leavesOf(g, rw.isLandmark)
	if len(rw.runs) == 0 && prev.elides(cand) {
		ix.setLeaves(prev.leaves, prev.entries)
		ix.labelMask, ix.labelDist, ix.dist, ix.overflow = prev.labelMask, prev.labelDist, prev.dist, prev.overflow
	} else {
		keep := below(k) // the ranks that did not run
		for _, run := range rw.runs {
			for _, r := range run.ranks {
				keep[r>>6] &^= 1 << (r & 63)
			}
		}
		if keep == (landmarkSet{}) {
			prev = nil
		}
		ix.lay(rw.runs, prev, &keep, cand, rw.workers)
	}
	rw.ix, rw.ixHighway, rw.runs = ix, true, nil
	return ix
}

// elides reports whether ix's labelling, on a graph whose leaves
// (leavesOf) are cand, elides the ones ix does.
func (ix *Index) elides(cand leafSet) bool {
	if !chooseLeaves(len(ix.rankOf), len(ix.landmarks), cand.count()) {
		return ix.leaves.words == nil
	}
	return slices.Equal(cand.words, ix.leaves.words)
}

// below returns the set of the ranks below k.
func below(k int) (m landmarkSet) {
	for r := range k {
		m[r>>6] |= 1 << (r & 63)
	}
	return m
}

// distStats is what choosing the distance widths takes: entries by the
// bits bits.Len(c+1) their label's smallest code needs and by those its
// span needs; w bits hold a code that needs w, a span whose Len is w.
type distStats struct {
	label [10][9]int64
}

// add counts a label of entries entries whose smallest code is low and
// whose largest distance is top, and returns its span, at most 255.
func (st *distStats) add(entries int64, low uint8, top int32) (span uint8) {
	if entries == 0 {
		return 0
	}
	span = uint8(min(top-int32(low)-1, 255))
	st.label[bits.Len16(uint16(low)+1)][bits.Len8(span)] += entries
	return span
}

// escaped returns how many entries sit in labels whose base of w bits or
// excess of wo does not hold them.
func (st *distStats) escaped(w, wo uint8) (n int64) {
	for a, row := range st.label {
		for b, c := range row {
			if a > int(w) || b > int(wo) {
				n += c
			}
		}
	}
	return n
}

// merge adds o's counts to st's.
func (st *distStats) merge(o *distStats) {
	for a := range st.label {
		for b := range st.label[a] {
			st.label[a][b] += o.label[a][b]
		}
	}
}

// posDist is the position and distance of one escaped entry.
type posDist struct {
	p int64
	d int32
}

// deepOf gathers lists of escaped entries, a later list's entry replacing
// an earlier one's at the same position.
func deepOf(lists [][]posDist) map[int64]int32 {
	deep := make(map[int64]int32)
	for _, list := range lists {
		for _, e := range list {
			deep[e.p] = e.d
		}
	}
	return deep
}

// lay makes ix's label arrays the labelling of the runs and of prev's
// entries of the ranks in keep (prev, never ix, is nil when nothing is
// kept): each vertex holds the ranks its labelled words name and prev's in
// keep, and the entry of rank r sits behind those of the lower ranks it
// holds. The leaves cand (leavesOf) keep no label when chooseLeaves says
// so, and the other vertices' labels fill the slots in vertex order.
//
// One pass packs the ranks and counts each label's smallest code and
// largest distance — the sweep's low and high, an event's distance where
// a byte does not hold it, and prev's kept entries —, which choose the
// widths. The events then write the codes of their later depths, and a
// last pass the bases and the codes of the first depths, the ones still
// zero, and of prev's entries: every code once, at its width. Every entry
// owns its bits, but one word of codes may hold the entries of blocks two
// workers take — of any two blocks, where those between them hold no
// entry —, so the events and the last pass alike OR codes in atomically.
func (ix *Index) lay(runs []*groupRun, prev *Index, keep *landmarkSet, cand leafSet, workers int) {
	n, k := len(ix.rankOf), len(ix.landmarks)
	if !chooseLeaves(n, k, cand.count()) {
		cand = leafSet{}
	}
	ix.setLeaves(cand, 0)
	leaves, slots := &ix.leaves, ix.slots()
	var runOf [MaxLandmarks]*groupRun
	deep := make(map[int32]int32) // vertex -> its largest distance past a byte
	for _, run := range runs {
		for _, r := range run.ranks {
			runOf[r] = run
		}
		for c := range run.events {
			for _, e := range run.events[c] {
				if e.d > 255 {
					deep[e.v] = max(deep[e.v], e.d)
				}
			}
		}
	}
	low, span := make([]uint8, slots), make([]uint8, slots)
	parts := make([]distStats, workers)
	ranks, kept := packRanks(slots, k, workers, *leaves, func(w int, s, v int32, m *landmarkSet) {
		small, top := uint8(255), int32(0)
		if prev != nil {
			ps, leaf := prev.slotOf(v)
			q, pl := prev.labelOf(ps, m), prev.distOf(ps, leaf)
			for wd, x := range m {
				for y := x & keep[wd]; y != 0; y &= y - 1 {
					d := prev.distAt(pl, q+int64(bits.OnesCount64(x&(y&-y-1))))
					small, top = min(small, uint8(min(d-1, 255))), max(top, d)
				}
				q, m[wd] = q+int64(bits.OnesCount64(x)), x&keep[wd]
			}
		}
		for _, run := range runs {
			x, r0, last := run.labelled[v], run.ranks[0], run.ranks[len(run.ranks)-1]
			if x == 0 {
				continue
			}
			small, top = min(small, run.low[v]), max(top, int32(run.high[v])+1)
			if last-r0 == len(run.ranks)-1 && r0>>6 == last>>6 { // consecutive, in one word: every BuildOpts run
				m[r0>>6&3] |= uint64(x) << (r0 & 63)
				continue
			}
			for ; x != 0; x &= x - 1 {
				r := run.ranks[bits.TrailingZeros32(x)]
				m[r>>6&3] |= 1 << (r & 63)
			}
		}
		if *m == (landmarkSet{}) {
			small = 0
		}
		if top > 255 { // a code of 255 says only that the distance is past a byte
			top = max(top, deep[v])
		}
		low[s], span[s] = small, parts[w].add(m.size(), small, top)
	})
	ix.labelMask = ranks
	ix.entries = kept + leaves.sum(func(v int32) int64 { return int64(ix.LabelSize(v)) })
	for i := range parts[1:] {
		parts[0].merge(&parts[i+1])
	}
	width, wo := chooseDist(slots, kept, &parts[0])
	sect := make([]byte, 2+(int64(slots)*int64(width)+7)/8+(kept*int64(wo)+7)/8)
	sect[0], sect[1] = width, wo
	ix.setDist(sect)
	escaped := func(s int32) bool { return low[s] >= 1<<width-1 || span[s] >= 1<<wo }
	// The excess codes, as section 16 will hold them, and entry p's word
	// and shift among them.
	words := make([]uint64, (kept*int64(wo)+63)/64)
	at := func(p int64) (*uint64, uint64) {
		bit := uint64(p) * uint64(wo)
		return &words[bit/64], bit % 64
	}
	// An escaped label's entries go to over, a first depth's or prev's in
	// the first half, an event's in the second, which replaces it.
	over := make([][]posDist, 2*workers)
	for _, run := range runs {
		share(workers, len(run.events), func(w, c int) {
			for _, e := range run.events[c] {
				s := e.v
				if leaves.words != nil {
					if leaves.has(s) {
						continue
					}
					s = leaves.slot(s)
				}
				var m landmarkSet // read only where other ranks may precede the run's
				all, start := run.labelled[e.v], ranks.start(s)
				first := start // the entry of the run's first rank
				if run.ranks[0] > 0 || prev != nil {
					ranks.ranksOf(s, &m)
					first += before(m[:], run.ranks[0])
				}
				esc := escaped(s)
				for x := e.mask; x != 0; x &= x - 1 {
					p := first + int64(bits.OnesCount32(all&(x&-x-1)))
					if prev != nil { // kept ranks may sit between the run's
						p = start + before(m[:], run.ranks[bits.TrailingZeros32(x)])
					}
					if esc {
						over[workers+w] = append(over[workers+w], posDist{p, e.d})
					} else if c := e.d - 1 - int32(low[s]); c > 0 { // events come in any order
						word, sh := at(p)
						atomic.OrUint64(word, uint64(c)<<sh)
					}
				}
			}
		})
	}
	bases := ix.dist.bases // a block's fill whole bytes
	eachSlot(*leaves, slots, workers, func(w int, s, v int32, m *landmarkSet) {
		esc, small := escaped(s), low[s]
		if esc {
			small = 1<<width - 1
		}
		bit := uint(s) * uint(width)
		bases[bit/8] |= small << (bit % 8)
		need := esc || prev != nil
		for _, run := range runs {
			need = need || run.labelled[v] != 0 && run.low[v] != small
		}
		if !need {
			return
		}
		var pm landmarkSet
		p, q, pl := ix.labelOf(s, m), int64(0), labelBase{}
		if prev != nil {
			ps, leaf := prev.slotOf(v)
			q, pl = prev.labelOf(ps, &pm), prev.distOf(ps, leaf)
		}
		for wd, x := range m {
			for ; x != 0; x, p = x&(x-1), p+1 {
				var d int32
				if keep[wd]&(x&-x) != 0 {
					d = prev.distAt(pl, q+int64(bits.OnesCount64(pm[wd]&(x&-x-1))))
				} else if d = int32(runOf[wd<<6|bits.TrailingZeros64(x)].low[v]) + 1; !esc && uint8(d-1) == small {
					continue // a first depth coded 0
				}
				if esc {
					over[w] = append(over[w], posDist{p, d})
				} else if d-1 > int32(small) {
					if word, sh := at(p); atomic.LoadUint64(word)>>sh&(1<<wo-1) == 0 { // not a later depth its event wrote
						atomic.OrUint64(word, uint64(d-1-int32(small))<<sh)
					}
				}
			}
			q += int64(bits.OnesCount64(pm[wd]))
		}
	})
	ix.overflow = deepOf(over)
	if out := ix.dist.codes; wo > 0 {
		for i, x := range words {
			for j := 8 * i; j < min(8*i+8, len(out)); j, x = j+1, x>>8 {
				out[j] = byte(x)
			}
		}
	}
}

// setLeaves makes s the leaves ix elides, whose labelling holds entries,
// on a rankOf of its own when s is not empty.
func (ix *Index) setLeaves(s leafSet, entries int64) {
	ix.leaves, ix.entries = s, entries
	if s.words != nil {
		rankOf := make([]int32, len(ix.rankOf))
		s.readRanks(ix.g, ix.rankOf, rankOf)
		ix.rankOf = rankOf
	}
}
