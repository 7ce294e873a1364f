package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"maps"
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
	// and the landmark count, on the goroutine that called BuildOpts or Run.
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
	stats, err := rw.Run(ctx, g, all, opt)
	if err != nil {
		return nil, err
	}
	ix := rw.Assemble(g)
	ix.built = stats
	return ix, nil
}

// Rows is the build state of a labelling: the highway matrix, the last
// index assembled (or read by RowsOf), which IS the label state, and the
// outcome of a Run that has not been assembled yet. Algorithm 1 is
// independent per landmark (Lemma 3.11), so after the graph changes,
// re-running any set of ranks that contains every rank whose BFS outcome
// changed and assembling gives exactly the index a from-scratch build on
// the new graph gives. internal/dynhl keeps that condition; BuildOpts is
// the case "every rank".
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
	// above, and Run copies before it writes.
	ix        *Index
	ixHighway bool
	runs      []*groupRun // what Run produced since ix, ranks ascending
	workers   int         // of that Run; Assemble packs and merges with as many
	sw        sweep
}

// RowsOf wraps an index as build state. Nothing is copied or derived: the
// index stays valid and unchanged whatever the Rows does next.
func RowsOf(ix *Index) *Rows {
	return &Rows{landmarks: ix.landmarks, rankOf: ix.rankOf, isLandmark: ix.isLandmark,
		highway: ix.highway, ix: ix, ixHighway: true}
}

// Run replaces the label entries and highway rows of the given ranks with
// the outcome of their pruned BFSs on g, which must have the vertex count
// the Rows was made for. The ranks run in ascending groups of at most 32,
// each group as one sweep: whatever the number of ranks in a group, the
// graph is traversed once. The result is pending until Assemble, which must
// come before the next Run. The context is checked between levels and
// between groups; after an error the Rows must be dropped.
func (rw *Rows) Run(ctx context.Context, g *graph.Graph, ranks []int, opt Options) (BuildStats, error) {
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
		panic("core: Rows.Run called again before Assemble")
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

// groupRun is what one sweep produced: which of its ranks labelled each
// vertex, and at which depth, as one event per (vertex, level).
type groupRun struct {
	ranks     []int     // ascending; bit b of every mask is rank ranks[b]
	labelled  []uint32  // per vertex: the ranks that labelled it
	low, high []uint8   // per vertex: the codes of the first and last depth they did
	events    [][]event // chunks, in no order that matters
}

// event says the ranks in mask labelled vertex v at distance d.
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
	frontier    [][]int32 // per worker: the vertices with a non-zero front word

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
	list               []int32   // vertices claimed at this level
	labelAny, pruneAny uint32    // OR of the label and prune masks claimed
	arcs               int64     // adjacency entries examined
	frontEdges         int64     // Σ degree over list
	_                  [56]byte
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

	pull := false
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
			s.push(&outs[0])
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
			frontCount += len(o.list)
			o.labelAny, o.pruneAny, o.arcs, o.frontEdges = 0, 0, 0, 0
			for _, u := range s.frontier[w] {
				s.front[u] = 0
			}
		}
		s.front, s.next = s.next, s.front
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
	run := &groupRun{ranks: ranks, labelled: s.labelled, low: s.low, high: s.high}
	for w := range outs {
		for _, u := range outs[w].list {
			s.front[u] = 0
		}
		run.events = append(run.events, outs[w].events...)
	}
	return run, nil
}

// push expands a sparse level: every frontier vertex ORs its word into the
// next word of each neighbour, minus what the neighbour has already seen;
// the vertices touched are then claimed. seen does not change until every
// parent has contributed, so a pruned parent met second still wins.
func (s *sweep) push(o *levelOut) {
	active := both(s.active)
	for _, list := range s.frontier {
		for _, u := range list {
			f := s.front[u] & active
			if f == 0 {
				continue
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
			o.list = append(o.list, int32(v))
			s.claim(int32(v), acc, o)
		}
	}
	o.arcs += arcs
}

// claim settles v at the current depth for the ranks in acc's low half,
// pruned for those in its high half (a subset).
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
		if s.labelled[v] == 0 {
			s.low[v] = uint8(min(s.depth-1, 255))
		}
		s.high[v], s.labelled[v] = uint8(min(s.depth-1, 255)), s.labelled[v]|label
		last := len(o.events) - 1
		if last < 0 || len(o.events[last]) == eventChunk {
			o.events = append(o.events, make([]event, 0, eventChunk))
			last++
		}
		o.events[last] = append(o.events[last], event{v: v, d: s.depth, mask: label})
		o.labelAny |= label
	}
	o.pruneAny |= prune
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

// Assemble packs the label state into the flat CSR index over g, the graph
// the last Run was on. A vertex's entries are placed by rank whatever order
// the events come in, so every worker count and direction gives the same
// arrays. When nothing ran since the last index — a batch that changed
// edges but no landmark's BFS — and g elides the leaves that index did,
// its label arrays are attached to g as they are; otherwise its entries of
// the ranks that did not run are merged with the new ones. The elided set,
// the rank form and the code width come from the whole labelling, so they
// are packed last. No index handed out earlier is written.
func (rw *Rows) Assemble(g *graph.Graph) *Index {
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
		l := layLabels(rw.runs, prev, &keep, cand, g.NumVertices(), k, rw.workers)
		ix.pack(&l, rw.workers)
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

// wideLabels is a labelling before its distances are packed: the vertices
// it elides and the entries of every label; per slot the ranks it holds,
// and the smallest code, min(d-1, 255), and the span, at most 255, of its
// label, and the counts of them all; one byte an entry, its code less its
// label's smallest; and the exact distance of each entry coded 255
// (d ≥ 256) by its position in deep.
type wideLabels struct {
	leaves    leafSet
	entries   int64
	ranks     rankBits
	code      []uint8
	deep      map[int64]int32
	low, span []uint8
	stats     distStats
}

// dist returns the distance of the entry at position p of a label whose
// smallest code is low.
func (l *wideLabels) dist(p int64, low uint8) int32 {
	if c := l.code[p] + low; c < 255 {
		return int32(c) + 1
	}
	return l.deep[p]
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

// posDist is the position and distance of one entry too deep for a byte.
type posDist struct {
	p int64
	d int32
}

// deepOf gathers the workers' lists of entries too deep for a byte.
func deepOf(lists [][]posDist) map[int64]int32 {
	deep := make(map[int64]int32)
	for _, list := range lists {
		for _, e := range list {
			deep[e.p] = e.d
		}
	}
	return deep
}

// layLabels lays out the labelling of n vertices and k landmarks that the
// events of the runs and prev's entries of the ranks in keep make (prev is
// nil when nothing is kept): each vertex holds the ranks its labelled words
// name and prev's in keep, and the entry of rank r sits behind those of the
// lower ranks it holds. The leaves cand (leavesOf) keep no label when
// chooseLeaves says so, and the other vertices' labels fill the slots in
// vertex order. Every entry owns its position, so the workers share the
// chunks and blocks without sharing a write; an entry too deep for a byte
// goes on its worker's own list. prev's labels are read through slotOf.
func layLabels(runs []*groupRun, prev *Index, keep *landmarkSet, cand leafSet, n, k, workers int) wideLabels {
	ranks, entries := packRanks(n, k, workers, func(v int, m *landmarkSet) {
		if prev != nil {
			s, _ := prev.slotOf(int32(v))
			prev.labelOf(s, m)
			for w := range m {
				m[w] &= keep[w]
			}
		}
		for _, run := range runs {
			x, r0, last := run.labelled[v], run.ranks[0], run.ranks[len(run.ranks)-1]
			if last-r0 == len(run.ranks)-1 && r0>>6 == last>>6 { // consecutive, in one word: every BuildOpts run
				m[r0>>6&3] |= uint64(x) << (r0 & 63)
				continue
			}
			for ; x != 0; x &= x - 1 {
				r := run.ranks[bits.TrailingZeros32(x)]
				m[r>>6&3] |= 1 << (r & 63)
			}
		}
	})
	l := wideLabels{entries: entries}
	var verts []int32 // slot -> vertex, when leaves are elided
	if chooseLeaves(n, k, cand.count()) {
		l.leaves, verts = cand, make([]int32, 0, n-cand.count())
		for v := range int32(n) {
			if !cand.has(v) {
				verts = append(verts, v)
			}
		}
		all := ranks
		ranks, entries = packRanks(len(verts), k, workers, func(s int, m *landmarkSet) { all.ranksOf(verts[s], m) })
	}
	// Codes are written less a low no code of their label is below, from the
	// runs and prev's base: a build's label's smallest, a merge's nearly.
	slots := n - l.leaves.count()
	l.ranks, l.code, l.low, l.span = ranks, make([]uint8, entries), make([]uint8, slots), make([]uint8, slots)
	vertex := func(s int) int32 {
		if verts == nil {
			return int32(s)
		}
		return verts[s]
	}
	code, deep := l.code, make([][]posDist, workers)
	share(workers, (slots+pullBlock-1)/pullBlock, func(_, i int) {
		for s := i * pullBlock; s < min((i+1)*pullBlock, slots); s++ {
			v := vertex(s)
			if l.low[s] = 255; prev != nil {
				l.low[s] = uint8(max(prev.distOf(prev.slotOf(v)).base-1, 0))
			}
			for _, run := range runs {
				if run.labelled[v] != 0 { // span: the largest code, for now
					l.low[s], l.span[s] = min(l.low[s], run.low[v]), max(l.span[s], run.high[v])
				}
			}
		}
	})
	for _, run := range runs {
		share(workers, len(run.events), func(w, c int) {
			for _, e := range run.events[c] {
				s := e.v
				if l.leaves.words != nil {
					if l.leaves.has(s) {
						continue
					}
					s = l.leaves.slot(s)
				}
				d := uint8(min(e.d-1, 255)) - l.low[s]
				var m landmarkSet // read only where other ranks may precede the run's
				all, start := run.labelled[e.v], ranks.start(s)
				first := start // the entry of the run's first rank
				if run.ranks[0] > 0 || prev != nil {
					ranks.ranksOf(s, &m)
					first += before(m[:], run.ranks[0])
				}
				for x := e.mask; x != 0; x &= x - 1 {
					p := first + int64(bits.OnesCount32(all&(x&-x-1)))
					if prev != nil { // kept ranks may sit between the run's
						p = start + before(m[:], run.ranks[bits.TrailingZeros32(x)])
					}
					if code[p] = d; e.d > 255 {
						deep[w] = append(deep[w], posDist{p, e.d})
					}
				}
			}
		})
	}
	// Each label's smallest code and largest distance, counted; a merge
	// reads prev's entries in either form.
	l.deep = deepOf(deep)
	parts, deep := make([]distStats, workers), make([][]posDist, workers)
	share(workers, (slots+pullBlock-1)/pullBlock, func(w, i int) {
		lo := ranks.start(int32(i * pullBlock))
		for s := i * pullBlock; s < min((i+1)*pullBlock, slots); s++ {
			hi, low, top := lo+ranks.size(int32(s)), l.low[s], int32(0)
			switch {
			case lo == hi:
				low = 0
			case prev == nil:
				top = int32(l.span[s]) + 1
				for p := lo; p < hi && top > 255; p++ { // the deepest distances are in deep
					top = max(top, l.dist(p, low))
				}
			default:
				var pm, m landmarkSet
				ps, leaf := prev.slotOf(vertex(s))
				q, p, pl, small := prev.labelOf(ps, &pm), lo, prev.distOf(ps, leaf), 255
				ranks.ranksOf(int32(s), &m)
				for wd, x := range m[:] {
					for ; x != 0; x, p = x&(x-1), p+1 {
						d := l.dist(p, low)         // a rank that ran
						if keep[wd&3]&(x&-x) != 0 { // a kept one: its position in prev, after the words before
							d = prev.distAt(pl, q+int64(bits.OnesCount64(pm[wd&3]&(x&-x-1))))
							if code[p] = uint8(min(d-1, 255)) - low; d > 255 {
								deep[w] = append(deep[w], posDist{p, d})
							}
						}
						small, top = min(small, int(code[p])), max(top, d)
					}
					q += int64(bits.OnesCount64(pm[wd&3]))
				}
				for p := lo; p < hi && small > 0; p++ { // the smallest went up
					code[p] -= uint8(small)
				}
				low += uint8(small)
			}
			l.low[s], l.span[s] = low, parts[w].add(hi-lo, low, top)
			lo = hi
		}
	})
	maps.Copy(l.deep, deepOf(deep))
	for i := range parts {
		l.stats.merge(&parts[i])
	}
	return l
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

// packChunk entries are packed at a time: a multiple of the 8 codes a
// byte holds at the narrowest width, so no two chunks share a byte.
const packChunk = 1 << 12

// packCodes writes codes, each clamped to 2^w - 1 (at w = 1, each 0 or 1),
// as codes of w ∈ {1, 2, 4, 8} bits, LSB first, to out, which is zero: a
// byte at a time, so that no byte is written twice but at the end.
func packCodes(out, codes []uint8, w uint8) {
	esc, b := uint8(1<<w-1), 0
	switch w {
	case 8:
		b = copy(out, codes)
	case 4:
		for ; 2*b+2 <= len(codes); b++ {
			c := codes[2*b : 2*b+2 : 2*b+2]
			out[b] = min(c[0], esc) | min(c[1], esc)<<4
		}
	case 2:
		for ; 4*b+4 <= len(codes); b++ {
			c := codes[4*b : 4*b+4 : 4*b+4]
			out[b] = min(c[0], esc) | min(c[1], esc)<<2 | min(c[2], esc)<<4 | min(c[3], esc)<<6
		}
	case 1: // codes of 0 or 1, eight gathered by one multiply
		for ; 8*b+8 <= len(codes); b++ {
			out[b] = uint8(binary.LittleEndian.Uint64(codes[8*b:]) * 0x0102040810204080 >> 56)
		}
	}
	for k, c := range codes[b*8/int(w):] { // the last byte's, when it is not full
		out[b] |= min(c, esc) << (uint(k) * uint(w))
	}
}

// pack makes l ix's label arrays: the leaves it elides, its ranks, its
// distances in the widths chooseDist gives, and the entries that escape
// there its overflow map.
func (ix *Index) pack(l *wideLabels, workers int) {
	n, entries := len(l.low), int64(len(l.code))
	ix.setLeaves(l.leaves, l.entries)
	ix.labelMask = l.ranks
	width, wo := chooseDist(n, entries, &l.stats)
	dist := make([]byte, 2+(int64(n)*int64(width)+7)/8+(entries*int64(wo)+7)/8)
	dist[0], dist[1] = width, wo
	ix.setDist(dist)
	// A label the widths do not hold escapes, its base all ones and its
	// excesses 0, and an entry too deep for a byte takes its excess from deep.
	over := make([][]posDist, workers)
	share(workers, (n+pullBlock-1)/pullBlock, func(w, i int) {
		lo := l.ranks.start(int32(i * pullBlock))
		for v := i * pullBlock; v < min((i+1)*pullBlock, n); v++ {
			hi, low, span := lo+l.ranks.size(int32(v)), l.low[v], l.span[v]
			switch {
			case low >= 1<<width-1 || span >= 1<<wo:
				for p := lo; p < hi; p++ {
					over[w], l.code[p] = append(over[w], posDist{p, l.dist(p, low)}), 0
				}
				l.low[v] = 255
			case int(low)+int(span) >= 255: // the deepest distances are in deep
				for p := lo; p < hi; p++ {
					l.code[p] = uint8(l.dist(p, low) - int32(low) - 1)
				}
			}
			lo = hi
		}
	})
	ix.overflow = deepOf(over)
	share(workers, (n+packChunk-1)/packChunk, func(_, i int) {
		packCodes(ix.dist.bases[i*packChunk*int(width)/8:], l.low[i*packChunk:min((i+1)*packChunk, n)], width)
	})
	if wo > 0 {
		share(workers, int((entries+packChunk-1)/packChunk), func(_, i int) {
			packCodes(ix.dist.codes[i*packChunk*int(wo)/8:], l.code[i*packChunk:min((i+1)*packChunk, int(entries))], wo)
		})
	}
}
