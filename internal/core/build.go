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
	ranks    []int     // ascending; bit b of every mask is rank ranks[b]
	labelled []uint32  // per vertex: the ranks that labelled it
	events   [][]event // chunks, in no order that matters
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
	off      []int64
	tgt      []int32
	rankOf   []int32
	highway  []int32
	k        int
	ranks    []int
	labelled []uint32
	active   uint32 // ranks still running
	pruning  uint32 // ranks with a non-empty Qprune at the frontier
	depth    int32  // of the level being claimed
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
		labelled: make([]uint32, n), active: ^uint32(0) >> (groupBits - len(ranks))}
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
	run := &groupRun{ranks: ranks, labelled: s.labelled}
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
		s.labelled[v] |= label
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
// edges but no landmark's BFS — that index's label arrays are attached to
// g as they are; when only some ranks ran, its entries of the other ranks
// are merged with the new ones. The rank form and the code width come from
// the whole labelling, so they are packed last. No index handed out
// earlier is written.
func (rw *Rows) Assemble(g *graph.Graph) *Index {
	ix := &Index{g: g, landmarks: rw.landmarks, rankOf: rw.rankOf, isLandmark: rw.isLandmark, highway: rw.highway}
	if prev := rw.ix; len(rw.runs) == 0 {
		ix.labelOff, ix.labelRank, ix.labelMask, ix.overflow = prev.labelOff, prev.labelRank, prev.labelMask, prev.overflow
		ix.setDist(prev.labelDist)
	} else {
		k := len(rw.landmarks)
		var keep landmarkSet // the ranks that did not run
		for r := range k {
			keep[r>>6] |= 1 << (r & 63)
		}
		for _, run := range rw.runs {
			for _, r := range run.ranks {
				keep[r>>6] &^= 1 << (r & 63)
			}
		}
		if keep == (landmarkSet{}) {
			prev = nil
		}
		ix.pack(layLabels(rw.runs, prev, &keep, g.NumVertices(), k, rw.workers), rw.workers)
	}
	rw.ix, rw.ixHighway, rw.runs = ix, true, nil
	return ix
}

// wideLabels is a labelling before its distances are packed and its ranks
// take their form: per vertex the ranks it holds, as the mask form holds
// them, one byte an entry, min(d-1, 255), the exact distance of each entry
// at 255 (d ≥ 256) by its position in deep, and how many entries escape at
// each of distWidths.
type wideLabels struct {
	ranks   rankBits
	off     offsets // where the labels start
	code    []uint8
	deep    map[int64]int32
	escaped escapeCounts
}

// escapeCounts holds, for each of distWidths, a number of entries whose
// code escapes at that width.
type escapeCounts [len(distWidths)]int64

// add counts n entries of code c: they escape at the widths w with
// c ≥ 2^w - 1, narrowest first.
func (e *escapeCounts) add(c uint8, n int64) {
	if c < 3 { // escapes at no width, not even 2 bits: the common case
		return
	}
	for i := len(distWidths) - 1; i >= 0 && c >= 1<<distWidths[i]-1; i-- {
		e[i] += n
	}
}

// sum adds up the workers' counts.
func sum(counts []escapeCounts) (total escapeCounts) {
	for _, c := range counts {
		for i := range c {
			total[i] += c[i]
		}
	}
	return total
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
// lower ranks it holds. Every entry owns its position, so the workers share
// the chunks and blocks without sharing a write; an entry too deep for a
// byte goes on its worker's own list.
func layLabels(runs []*groupRun, prev *Index, keep *landmarkSet, n, k, workers int) wideLabels {
	ranks, off := packRanks(n, k, workers, func(v int, m *landmarkSet) {
		if prev != nil {
			prev.labelOf(int32(v), m)
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
	code := make([]uint8, off.at(int32(n)))
	deep, counts := make([][]posDist, workers), make([]escapeCounts, workers)
	for _, run := range runs {
		share(workers, len(run.events), func(w, c int) {
			for _, e := range run.events[c] {
				d := uint8(min(e.d-1, 255))
				counts[w].add(d, int64(bits.OnesCount32(e.mask)))
				var m landmarkSet // read only where other ranks may precede the run's
				all, start := run.labelled[e.v], off.at(e.v)
				first := start // the entry of the run's first rank
				if run.ranks[0] > 0 || prev != nil {
					ranks.labelOf(e.v, &m)
					first += before(m[:], run.ranks[0])
				}
				for x := e.mask; x != 0; x &= x - 1 {
					p := first + int64(bits.OnesCount32(all&(x&-x-1)))
					if prev != nil { // kept ranks may sit between the run's
						p = start + before(m[:], run.ranks[bits.TrailingZeros32(x)])
					}
					if code[p] = d; d == 255 {
						deep[w] = append(deep[w], posDist{p, e.d})
					}
				}
			}
		})
	}
	if prev != nil {
		// The kept entries' codes, unpacked and copied a byte a distance,
		// counting their escapes.
		nPrev := prev.NumEntries()
		prevCode, pw, esc := make([]uint8, nPrev), prev.labelDist[0], prev.distMask
		share(workers, int((nPrev+packChunk-1)/packChunk), func(_, i int) {
			unpackCodes(prevCode[i*packChunk:min((i+1)*packChunk, int(nPrev))], prev.codes[i*packChunk*int(pw)/8:], pw)
		})
		share(workers, (n+pullBlock-1)/pullBlock, func(w, i int) {
			for v := i * pullBlock; v < min((i+1)*pullBlock, n); v++ {
				var pm, m landmarkSet
				q, p := prev.labelOf(int32(v), &pm), ranks.labelOf(int32(v), &m)
				for wd, x := range m[:] {
					for ; x != 0; x, p = x&(x-1), p+1 {
						if keep[wd&3]&(x&-x) == 0 { // a rank that ran
							continue
						}
						// Its position in prev; q counts prev's entries of the words before.
						pq := q + int64(bits.OnesCount64(pm[wd&3]&(x&-x-1)))
						if code[p] = prevCode[pq]; code[p] >= 3 { // it escapes at some width, perhaps at prev's
							if code[p] == esc {
								d := prev.overflow[pq]
								if code[p] = uint8(min(d-1, 255)); d > 255 {
									deep[w] = append(deep[w], posDist{p, d})
								}
							}
							counts[w].add(code[p], 1)
						}
					}
					q += int64(bits.OnesCount64(pm[wd&3]))
				}
			}
		})
	}
	return wideLabels{ranks: ranks, off: off, code: code, deep: deepOf(deep), escaped: sum(counts)}
}

// setRanks makes ranks, laid out in the mask form's bits and as off places
// them, ix's in the form chooseMask picks: the bits as they are, or a byte
// an entry beside off.
func (ix *Index) setRanks(ranks rankBits, off offsets) {
	n, k := len(ix.rankOf), len(ix.landmarks)
	if chooseMask(n, k, off.at(int32(n))) {
		ix.labelOff, ix.labelRank, ix.labelMask = offsets{}, nil, ranks
		return
	}
	labelRank := make([]byte, off.at(int32(n)))
	for v := range int32(n) {
		var m landmarkSet
		ranks.labelOf(v, &m)
		p := off.at(v)
		for w, x := range m[:] {
			for ; x != 0; x &= x - 1 {
				labelRank[p] = uint8(w<<6 | bits.TrailingZeros64(x))
				p++
			}
		}
	}
	ix.labelOff, ix.labelRank, ix.labelMask = off, labelRank, rankBits{}
}

// packChunk entries are packed at a time: a multiple of the 4 codes a
// byte holds at the narrowest width, so no two chunks share a byte.
const packChunk = 1 << 12

// packCodes writes codes, each clamped to 2^w - 1, as codes of w bits, LSB
// first, to out, which is zero: a byte at a time, so that no byte is
// written twice but at the end.
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
	}
	for k, c := range codes[b*8/int(w):] { // the last byte's, when it is not full
		out[b] |= min(c, esc) << (uint(k) * uint(w))
	}
}

// unpackCodes writes the len(dst) codes of w bits src begins with to dst,
// one a byte: packCodes undone.
func unpackCodes(dst []uint8, src []byte, w uint8) {
	mask, j := uint8(1<<w-1), 0
	switch w {
	case 8:
		j = copy(dst, src)
	case 4:
		for ; j+2 <= len(dst); j += 2 {
			x := src[j/2]
			dst[j], dst[j+1] = x&mask, x>>4
		}
	case 2:
		for ; j+4 <= len(dst); j += 4 {
			x, d := src[j/4], dst[j:j+4:j+4]
			d[0], d[1], d[2], d[3] = x&mask, x>>2&mask, x>>4&mask, x>>6
		}
	}
	for ; j < len(dst); j++ { // the last byte's, when it is not full
		bit := uint(j) * uint(w)
		dst[j] = src[bit/8] >> (bit % 8) & mask
	}
}

// pack makes l ix's label arrays: its ranks in the form chooseMask gives,
// its distances packed at the width chooseWidth gives for them, and the
// entries that escape at that width its overflow map.
func (ix *Index) pack(l wideLabels, workers int) {
	entries := len(l.code)
	chunks := (entries + packChunk - 1) / packChunk
	width, nEscaped := chooseWidth(int64(entries), l.escaped)
	dist := make([]byte, distLen(int64(entries), width))
	dist[0] = width
	ix.setDist(dist)
	share(workers, chunks, func(_, i int) {
		packCodes(ix.codes[i*packChunk*int(width)/8:], l.code[i*packChunk:min((i+1)*packChunk, entries)], width)
	})
	ix.setRanks(l.ranks, l.off)
	if nEscaped > 0 {
		ix.overflow = make(map[int64]int32, nEscaped)
		for p := range escapes(dist) {
			d := int32(l.code[p]) + 1
			if l.code[p] == 255 {
				d = l.deep[p]
			}
			ix.overflow[p] = d
		}
	}
}
