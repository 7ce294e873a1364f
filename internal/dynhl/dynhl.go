// Package dynhl extends the highway cover labelling to fully dynamic
// graphs — edge insertions and deletions — the direction the paper's
// authors pursued in follow-up work on dynamic labelling.
//
// The implementation uses *selective landmark rebuild*, which is exact and
// preserves both minimality and order independence. For an undirected
// edge {a,b}, landmark r's pruned-BFS outcome can change if and only if
// d(r,a) ≠ d(r,b) — and the test is the same for both mutation kinds:
//
//   - Insertion: when the endpoint distances are equal, every path through
//     the new edge is strictly longer than an existing one, so neither the
//     distances from r nor the set of shortest paths from r can change.
//   - Deletion: an existing edge with d(r,a) = d(r,b) lies on no shortest
//     path from r (on a shortest path the endpoint distances differ by
//     exactly one), so removing it leaves r's shortest-path DAG intact.
//
// Each mutation batch (Apply, ApplyOps) therefore:
//
//  1. queries d(r,a) and d(r,b) for every landmark (landmark-endpoint
//     queries are answered exactly by labels + highway alone), before the
//     adjacency is touched;
//  2. marks the landmarks with d(r,a) ≠ d(r,b) — including either
//     endpoint changing reachability — as dirty, sharing one dirty set
//     across the whole batch;
//  3. repairs the dirty landmarks only, re-running Algorithm 1's pruned
//     BFS per landmark and splicing the fresh label and highway rows into
//     the index — or, when deletions dirty more than RepairFraction of
//     the landmarks, falls back to one full rebuild through the parallel
//     direction-optimizing builder (internal/bfs engine), which amortizes
//     better than many sequential sweeps.
//
// Because Algorithm 1 is independent per landmark (Lemma 3.11), rebuilding
// a subset of landmarks yields exactly the index a full rebuild would
// produce — this invariant is property-tested against from-scratch builds
// for insertions, deletions and mixed churn (see internal/oracle's churn
// differential harness). Idempotence — inserting a present edge or
// deleting an absent one is an acked no-op — is what makes write-ahead
// log replay (internal/serve) safe against any earlier-or-equal state.
package dynhl

import (
	"fmt"
	"sort"

	"highway/internal/bfs"
	"highway/internal/core"
	"highway/internal/graph"
	"highway/internal/method"
)

// The dynamic labelling implements the method-agnostic index contract
// (and the Inserter mutation surface); see internal/method.
var (
	_ method.DistanceIndex = (*Index)(nil)
	_ method.Inserter      = (*Index)(nil)
)

// Infinity is the distance reported between disconnected vertices.
const Infinity int32 = -1

// Index is a mutable highway cover labelling over a growing graph.
type Index struct {
	n          int
	adj        [][]int32 // mutable adjacency (copied from the build graph)
	landmarks  []int32
	rankOf     []int32
	isLandmark []bool
	highway    []int32 // k*k, Infinity = unreachable

	// labels[v] is v's label sorted by landmark rank; rows[r] lists the
	// vertices labelled by landmark rank r (the pruned-BFS output), used
	// to splice a landmark's entries out on rebuild.
	labels [][]entry
	rows   [][]int32

	// repairFraction is the dirty-landmark fraction above which a batch
	// with deletions abandons per-landmark repair for one full rebuild
	// (0 means DefaultRepairFraction; negative disables the fallback).
	repairFraction float64
	maint          MaintStats

	sc *searchState
}

// DefaultRepairFraction is the dirty-landmark fraction above which
// ApplyOps switches from selective per-landmark repair to a full rebuild
// through the parallel builder. Sequential pruned-BFS sweeps win while
// few landmarks are affected; once most of the highway is dirty the
// batched, direction-optimizing from-scratch build is cheaper (the
// measured crossover is recorded in BENCH_CHURN.json).
const DefaultRepairFraction = 0.5

// SetRepairFraction overrides the repair/rebuild crossover: batches that
// dirty more than frac of the landmarks trigger a full rebuild. Zero
// restores DefaultRepairFraction; a negative value disables the fallback
// so every batch repairs selectively.
func (ix *Index) SetRepairFraction(frac float64) { ix.repairFraction = frac }

// MaintStats counts the maintenance work ApplyOps has performed since
// the index was built or converted.
type MaintStats struct {
	SelectiveRepairs int64 // batches repaired landmark by landmark
	FullRebuilds     int64 // batches that crossed RepairFraction and rebuilt everything
	LandmarksRebuilt int64 // pruned-BFS reruns, across both strategies
}

// Maint returns the cumulative maintenance counters.
func (ix *Index) Maint() MaintStats { return ix.maint }

type entry struct {
	rank int32
	dist int32
}

// Build constructs a dynamic index. The original graph is copied into a
// mutable adjacency; g itself is not retained.
func Build(g *graph.Graph, landmarks []int32) (*Index, error) {
	n := g.NumVertices()
	if len(landmarks) == 0 {
		return nil, fmt.Errorf("dynhl: no landmarks")
	}
	if len(landmarks) > core.MaxLandmarks {
		return nil, fmt.Errorf("dynhl: %d landmarks exceeds MaxLandmarks=%d", len(landmarks), core.MaxLandmarks)
	}
	ix := &Index{
		n:          n,
		adj:        make([][]int32, n),
		landmarks:  append([]int32(nil), landmarks...),
		rankOf:     make([]int32, n),
		isLandmark: make([]bool, n),
		highway:    make([]int32, len(landmarks)*len(landmarks)),
		labels:     make([][]entry, n),
		rows:       make([][]int32, len(landmarks)),
	}
	for v := 0; v < n; v++ {
		nb := g.Neighbors(int32(v))
		ix.adj[v] = append(make([]int32, 0, len(nb)), nb...)
	}
	for i := range ix.rankOf {
		ix.rankOf[i] = -1
	}
	for r, v := range landmarks {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("dynhl: landmark %d out of range [0,%d)", v, n)
		}
		if ix.rankOf[v] >= 0 {
			return nil, fmt.Errorf("dynhl: duplicate landmark %d", v)
		}
		ix.rankOf[v] = int32(r)
		ix.isLandmark[v] = true
	}
	ix.sc = newSearchState(n)
	for r := range landmarks {
		ix.rebuildLandmark(r)
	}
	return ix, nil
}

// FromCore converts a static core.Index into a mutable dynamic index
// without re-running a single BFS. The static index's flat CSR label
// arrays are immutable by contract, so the conversion is an explicit
// copy-on-write boundary: labels are exploded into per-vertex slices this
// index owns outright, the per-landmark rows are reconstructed from them,
// and the adjacency is copied. The source index is never aliased and
// stays valid.
func FromCore(src *core.Index) (*Index, error) {
	g := src.Graph()
	n := g.NumVertices()
	lms := src.Landmarks()
	k := len(lms)
	if k == 0 {
		return nil, fmt.Errorf("dynhl: source index has no landmarks")
	}
	ix := &Index{
		n:          n,
		adj:        make([][]int32, n),
		landmarks:  append([]int32(nil), lms...),
		rankOf:     make([]int32, n),
		isLandmark: make([]bool, n),
		highway:    make([]int32, k*k),
		labels:     make([][]entry, n),
		rows:       make([][]int32, k),
	}
	for v := 0; v < n; v++ {
		nb := g.Neighbors(int32(v))
		ix.adj[v] = append(make([]int32, 0, len(nb)), nb...)
	}
	for i := range ix.rankOf {
		ix.rankOf[i] = -1
	}
	for r, v := range lms {
		ix.rankOf[v] = int32(r)
		ix.isLandmark[v] = true
	}
	for i, vi := range lms {
		for j, vj := range lms {
			ix.highway[i*k+j] = src.Highway(vi, vj)
		}
	}
	for v := int32(0); int(v) < n; v++ {
		ranks, dists := src.LabelView(v)
		if len(ranks) == 0 {
			continue
		}
		l := make([]entry, len(ranks))
		for i := range ranks {
			l[i] = entry{rank: ranks[i], dist: dists[i]}
			r := ranks[i]
			ix.rows[r] = append(ix.rows[r], v)
		}
		ix.labels[v] = l
	}
	ix.sc = newSearchState(n)
	return ix, nil
}

// Freeze materializes the current mutable labelling as an immutable
// snapshot: a CSR graph of the evolved adjacency plus a core.Index in the
// flat CSR label layout (the copy-on-write conversion in the other
// direction). The dynamic index stays usable and future insertions do not
// affect the snapshot, so a server can keep answering from the frozen
// index while this one continues absorbing updates.
func (ix *Index) Freeze() (*graph.Graph, *core.Index, error) {
	g, err := ix.frozenGraph()
	if err != nil {
		return nil, nil, err
	}
	ranks := make([][]int32, ix.n)
	dists := make([][]int32, ix.n)
	for v, l := range ix.labels {
		if len(l) == 0 {
			continue
		}
		r := make([]int32, len(l))
		d := make([]int32, len(l))
		for i, e := range l {
			r[i], d[i] = e.rank, e.dist
		}
		ranks[v], dists[v] = r, d
	}
	frozen, err := core.FromParts(g, ix.landmarks, ix.highway, ranks, dists)
	if err != nil {
		return nil, nil, fmt.Errorf("dynhl: freeze labels: %w", err)
	}
	return g, frozen, nil
}

// frozenGraph copies the mutable adjacency rows into an immutable CSR
// graph: the one place this package builds one, for Freeze and rebuildAll.
func (ix *Index) frozenGraph() (*graph.Graph, error) {
	g, err := graph.FromAdjacency(ix.adj)
	if err != nil {
		return nil, fmt.Errorf("dynhl: freeze adjacency: %w", err)
	}
	return g, nil
}

// Searcher carries per-goroutine bidirectional-search scratch for
// queries against the dynamic index. Searchers read the index's
// mutable labelling: they are only safe to use while no insertion is
// in flight (the serving layer freezes immutable snapshots instead of
// querying the dynamic index concurrently).
type Searcher struct {
	ix *Index
	sc *bfs.Scratch
}

// NewSearcher returns a query searcher bound to the index.
func (ix *Index) NewSearcher() method.Searcher {
	return &Searcher{ix: ix, sc: bfs.NewScratch(ix.n)}
}

// Distance returns the exact current distance between s and t (the
// searcher-scratch form of Index.Distance).
func (sr *Searcher) Distance(s, t int32) int32 {
	ix := sr.ix
	if s == t {
		return 0
	}
	ub := ix.UpperBound(s, t)
	if ix.isLandmark[s] || ix.isLandmark[t] {
		return ub
	}
	bound := ub
	if bound == Infinity {
		bound = bfs.NoBound
	}
	d := bfs.BoundedBiBFS(ix, s, t, bound, ix.isLandmark, sr.sc)
	if d == bfs.Unreachable {
		return ub
	}
	return d
}

// UpperBound returns the label+highway bound (see Index.UpperBound).
func (sr *Searcher) UpperBound(s, t int32) int32 { return sr.ix.UpperBound(s, t) }

// Stats summarizes the current state of the labelling (method-agnostic
// form). The accounting matches the static highway labelling's
// uncompressed measure.
func (ix *Index) Stats() method.Stats {
	var edges int64
	maxLS := 0
	for _, nbs := range ix.adj {
		edges += int64(len(nbs))
	}
	for _, l := range ix.labels {
		if len(l) > maxLS {
			maxLS = len(l)
		}
	}
	entries := ix.NumEntries()
	k := len(ix.landmarks)
	als := 0.0
	if nonLM := ix.n - k; nonLM > 0 {
		als = float64(entries) / float64(nonLM)
	}
	return method.Stats{
		Method:       "dynhl",
		NumVertices:  ix.n,
		NumEdges:     edges / 2,
		NumLandmarks: k,
		NumEntries:   entries,
		AvgLabelSize: als,
		MaxLabelSize: maxLS,
		SizeBytes:    entries*5 + int64(k*k)*4,
	}
}

// NumVertices returns n.
func (ix *Index) NumVertices() int { return ix.n }

// Neighbors exposes the mutable adjacency (bfs.Adjacency).
func (ix *Index) Neighbors(v int32) []int32 { return ix.adj[v] }

// NumEntries returns size(L).
func (ix *Index) NumEntries() int64 {
	var total int64
	for _, l := range ix.labels {
		total += int64(len(l))
	}
	return total
}

// Landmarks returns the landmark vertex ids by rank.
func (ix *Index) Landmarks() []int32 { return ix.landmarks }

// InsertEdge adds {a,b} and repairs the labelling exactly. Self-loops and
// existing edges are no-ops.
func (ix *Index) InsertEdge(a, b int32) error {
	return ix.InsertEdges([][2]int32{{a, b}})
}

// InsertEdges applies a batch of insertions with a single repair pass:
// dirty landmarks are collected across the whole batch and rebuilt once.
func (ix *Index) InsertEdges(edges [][2]int32) error {
	_, err := ix.Apply(edges)
	return err
}

// DeleteEdge removes {a,b} and repairs the labelling exactly. Absent
// edges and self-loops are no-ops.
func (ix *Index) DeleteEdge(a, b int32) error {
	return ix.DeleteEdges([][2]int32{{a, b}})
}

// DeleteEdges applies a batch of deletions with a single repair pass.
func (ix *Index) DeleteEdges(edges [][2]int32) error {
	_, err := ix.ApplyOps(DeleteOps(edges))
	return err
}

// Apply is InsertEdges reporting how many of the edges were actually
// new. Self-loops and already-present edges are skipped (and not
// counted), which makes replaying a write-ahead log against any
// earlier-or-equal state idempotent — the property the serving layer's
// crash recovery builds on.
func (ix *Index) Apply(edges [][2]int32) (int, error) {
	res, err := ix.ApplyOps(InsertOps(edges))
	return res.Inserted, err
}

// Op is one edge mutation in a mixed batch: insert the undirected edge
// {A,B}, or delete it when Del is set.
type Op struct {
	A, B int32
	Del  bool
}

// InsertOps wraps an edge list as a uniform insert-op batch.
func InsertOps(edges [][2]int32) []Op {
	ops := make([]Op, len(edges))
	for i, e := range edges {
		ops[i] = Op{A: e[0], B: e[1]}
	}
	return ops
}

// DeleteOps wraps an edge list as a uniform delete-op batch.
func DeleteOps(edges [][2]int32) []Op {
	ops := make([]Op, len(edges))
	for i, e := range edges {
		ops[i] = Op{A: e[0], B: e[1], Del: true}
	}
	return ops
}

// OpResult reports what a mixed batch actually did.
type OpResult struct {
	Inserted int  // edges added (absent before the op)
	Deleted  int  // edges removed (present before the op)
	Dirty    int  // landmarks invalidated by the batch
	Rebuilt  bool // the batch crossed RepairFraction and rebuilt in full
}

// ApplyOps applies a mixed batch of insertions and deletions with a
// single repair pass: dirty landmarks are collected across the whole
// batch, then either repaired one pruned BFS at a time or — when
// deletions dirty more than the RepairFraction threshold — replaced
// wholesale by one parallel from-scratch build. Self-loops, already
// present insertions and already absent deletions are skipped and not
// counted, so replaying a mixed write-ahead log against any
// earlier-or-equal state is idempotent.
func (ix *Index) ApplyOps(ops []Op) (OpResult, error) {
	var res OpResult
	// Validate the whole batch before touching any state: a mid-batch
	// failure after mutating the adjacency would leave labels stale.
	for _, op := range ops {
		if a, b := op.A, op.B; a < 0 || b < 0 || int(a) >= ix.n || int(b) >= ix.n {
			return res, fmt.Errorf("dynhl: edge {%d,%d} out of range [0,%d)", a, b, ix.n)
		}
	}
	dirty := make([]bool, len(ix.landmarks))
	for _, op := range ops {
		a, b := op.A, op.B
		// An op takes effect iff presence matches its kind: inserts need
		// the edge absent, deletes need it present.
		if a == b || ix.hasEdge(a, b) == !op.Del {
			continue
		}
		// Mark dirty landmarks BEFORE mutating adjacency, using exact
		// landmark-endpoint distances from the current labelling. The
		// test is the same for both kinds (see the package comment): r's
		// shortest-path DAG changes iff d(r,a) ≠ d(r,b) — which also
		// covers an endpoint changing reachability, since Infinity never
		// equals a finite distance.
		for r := range ix.landmarks {
			if !dirty[r] && ix.distFromLandmark(r, a) != ix.distFromLandmark(r, b) {
				dirty[r] = true
			}
		}
		if op.Del {
			ix.removeEdge(a, b)
			res.Deleted++
		} else {
			ix.adj[a] = append(ix.adj[a], b)
			ix.adj[b] = append(ix.adj[b], a)
			res.Inserted++
		}
	}
	for _, d := range dirty {
		if d {
			res.Dirty++
		}
	}
	if res.Dirty == 0 {
		return res, nil
	}
	k := len(ix.landmarks)
	frac := ix.repairFraction
	if frac == 0 {
		frac = DefaultRepairFraction
	}
	if res.Deleted > 0 && frac >= 0 && float64(res.Dirty) > frac*float64(k) {
		if err := ix.rebuildAll(); err != nil {
			return res, err
		}
		res.Rebuilt = true
		ix.maint.FullRebuilds++
		ix.maint.LandmarksRebuilt += int64(k)
		return res, nil
	}
	for r, d := range dirty {
		if d {
			ix.rebuildLandmark(r)
		}
	}
	ix.maint.SelectiveRepairs++
	ix.maint.LandmarksRebuilt += int64(res.Dirty)
	return res, nil
}

// removeEdge drops the undirected edge {a,b} from the mutable adjacency,
// preserving neighbor order (order never affects the labelling; keeping
// it deterministic keeps debugging sane).
func (ix *Index) removeEdge(a, b int32) {
	ix.adj[a] = cutNeighbor(ix.adj[a], b)
	ix.adj[b] = cutNeighbor(ix.adj[b], a)
}

func cutNeighbor(nb []int32, v int32) []int32 {
	for i, w := range nb {
		if w == v {
			return append(nb[:i], nb[i+1:]...)
		}
	}
	return nb
}

// rebuildAll replaces the whole labelling at once: the mutable adjacency
// is frozen to CSR and handed to the parallel direction-optimizing
// builder (the internal/bfs engine behind core.BuildParallel), and the
// fresh labels are imported back over the same landmark set. Above the
// RepairFraction threshold this amortizes strictly better than running
// the per-landmark pruned BFS k times on slice-of-slice adjacency.
func (ix *Index) rebuildAll() error {
	g, err := ix.frozenGraph()
	if err != nil {
		return err
	}
	src, err := core.BuildParallel(g, ix.landmarks)
	if err != nil {
		return fmt.Errorf("dynhl: full rebuild: %w", err)
	}
	ix.importLabels(src)
	return nil
}

// importLabels replaces highway, labels and rows with src's labelling
// (built on the same landmark set in the same rank order); the mutable
// adjacency is untouched.
func (ix *Index) importLabels(src *core.Index) {
	k := len(ix.landmarks)
	for i, vi := range ix.landmarks {
		for j, vj := range ix.landmarks {
			ix.highway[i*k+j] = src.Highway(vi, vj)
		}
	}
	for r := range ix.rows {
		ix.rows[r] = ix.rows[r][:0]
	}
	for v := int32(0); int(v) < ix.n; v++ {
		ranks, dists := src.LabelView(v)
		l := ix.labels[v][:0]
		for i := range ranks {
			l = append(l, entry{rank: ranks[i], dist: dists[i]})
			ix.rows[ranks[i]] = append(ix.rows[ranks[i]], v)
		}
		ix.labels[v] = l
	}
}

func (ix *Index) hasEdge(a, b int32) bool {
	nb := ix.adj[a]
	if len(ix.adj[b]) < len(nb) {
		nb = ix.adj[b]
		b = a
	}
	for _, w := range nb {
		if w == b {
			return true
		}
	}
	return false
}

// distFromLandmark returns the exact current distance from landmark rank
// r to vertex v using only labels + highway (Section 4.2's exactness for
// landmark endpoints).
func (ix *Index) distFromLandmark(r int, v int32) int32 {
	if vr := ix.rankOf[v]; vr >= 0 {
		return ix.highway[r*len(ix.landmarks)+int(vr)]
	}
	k := len(ix.landmarks)
	best := Infinity
	for _, e := range ix.labels[v] {
		h := ix.highway[r*k+int(e.rank)]
		if h < 0 {
			continue
		}
		if d := h + e.dist; best < 0 || d < best {
			best = d
		}
	}
	return best
}

// rebuildLandmark re-runs the pruned BFS (Algorithm 1) for one landmark
// rank on the current adjacency, replacing its label row and highway row.
func (ix *Index) rebuildLandmark(r int) {
	// Splice out the old row.
	for _, v := range ix.rows[r] {
		l := ix.labels[v]
		for i, e := range l {
			if e.rank == int32(r) {
				ix.labels[v] = append(l[:i], l[i+1:]...)
				break
			}
		}
	}
	k := len(ix.landmarks)
	hwRow := ix.highway[r*k : (r+1)*k]
	for i := range hwRow {
		hwRow[i] = Infinity
	}
	newRow := ix.prunedBFS(ix.landmarks[r], int32(r), hwRow)
	// Splice in, keeping per-vertex labels sorted by rank, and mirror the
	// highway row into the column (the matrix is symmetric).
	for _, v := range newRow {
		l := ix.labels[v.vertex]
		pos := sort.Search(len(l), func(i int) bool { return l[i].rank >= int32(r) })
		l = append(l, entry{})
		copy(l[pos+1:], l[pos:])
		l[pos] = entry{rank: int32(r), dist: v.dist}
		ix.labels[v.vertex] = l
	}
	ix.rows[r] = ix.rows[r][:0]
	for _, v := range newRow {
		ix.rows[r] = append(ix.rows[r], v.vertex)
	}
	for j := 0; j < k; j++ {
		ix.highway[j*k+r] = hwRow[j]
	}
}

type rowEntry struct {
	vertex int32
	dist   int32
}

// prunedBFS is Algorithm 1 on the mutable adjacency (prune frontier
// expands before the label frontier at every depth; see internal/core).
func (ix *Index) prunedBFS(root, rank int32, hwRow []int32) []rowEntry {
	sc := ix.sc
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.visited)
		sc.epoch = 1
	}
	ep := sc.epoch
	var out []rowEntry
	labelF := append(sc.bufA[:0], root)
	pruneF := sc.bufB[:0]
	sc.visited[root] = ep
	hwRow[rank] = 0
	found := 1
	k := len(ix.landmarks)
	for d := int32(0); len(labelF) > 0 || (found < k && len(pruneF) > 0); d++ {
		nextL := sc.bufC[:0]
		nextP := sc.bufD[:0]
		for _, u := range pruneF {
			for _, v := range ix.adj[u] {
				if sc.visited[v] == ep {
					continue
				}
				sc.visited[v] = ep
				if rr := ix.rankOf[v]; rr >= 0 {
					hwRow[rr] = d + 1
					found++
				}
				nextP = append(nextP, v)
			}
		}
		for _, u := range labelF {
			for _, v := range ix.adj[u] {
				if sc.visited[v] == ep {
					continue
				}
				sc.visited[v] = ep
				if rr := ix.rankOf[v]; rr >= 0 {
					hwRow[rr] = d + 1
					found++
					nextP = append(nextP, v)
				} else {
					nextL = append(nextL, v)
					out = append(out, rowEntry{vertex: v, dist: d + 1})
				}
			}
		}
		labelF, sc.bufC = nextL, labelF[:0]
		pruneF, sc.bufD = nextP, pruneF[:0]
	}
	sc.bufA, sc.bufB = labelF, pruneF
	return out
}

type searchState struct {
	visited                []uint32
	epoch                  uint32
	bufA, bufB, bufC, bufD []int32
	bi                     *bfs.Scratch
}

func newSearchState(n int) *searchState {
	return &searchState{
		visited: make([]uint32, n),
		bufA:    make([]int32, 0, 1024),
		bufB:    make([]int32, 0, 1024),
		bufC:    make([]int32, 0, 1024),
		bufD:    make([]int32, 0, 1024),
		bi:      bfs.NewScratch(n),
	}
}

// Distance returns the exact current distance between s and t, or
// Infinity. The index is not safe for concurrent use (it is a mutable
// structure); serialize queries with updates.
func (ix *Index) Distance(s, t int32) int32 {
	if s == t {
		return 0
	}
	ub := ix.UpperBound(s, t)
	if ix.isLandmark[s] || ix.isLandmark[t] {
		return ub
	}
	bound := ub
	if bound == Infinity {
		bound = bfs.NoBound
	}
	d := bfs.BoundedBiBFS(ix, s, t, bound, ix.isLandmark, ix.sc.bi)
	if d == bfs.Unreachable {
		return ub
	}
	return d
}

// UpperBound returns d⊤st from labels + highway (Equation 4 with the
// Lemma 5.1 common-landmark shortcut).
func (ix *Index) UpperBound(s, t int32) int32 {
	if s == t {
		return 0
	}
	k := len(ix.landmarks)
	var sVirt, tVirt [1]entry
	ls, lt := ix.labels[s], ix.labels[t]
	if r := ix.rankOf[s]; r >= 0 {
		sVirt[0] = entry{rank: r}
		ls = sVirt[:]
	}
	if r := ix.rankOf[t]; r >= 0 {
		tVirt[0] = entry{rank: r}
		lt = tVirt[:]
	}
	best := Infinity
	relax := func(d int32) {
		if best < 0 || d < best {
			best = d
		}
	}
	common := make(map[int32]bool, 4)
	i, j := 0, 0
	for i < len(ls) && j < len(lt) {
		switch {
		case ls[i].rank == lt[j].rank:
			common[ls[i].rank] = true
			relax(ls[i].dist + lt[j].dist)
			i++
			j++
		case ls[i].rank < lt[j].rank:
			i++
		default:
			j++
		}
	}
	for _, es := range ls {
		if common[es.rank] {
			continue
		}
		row := ix.highway[int(es.rank)*k : (int(es.rank)+1)*k]
		for _, et := range lt {
			if common[et.rank] {
				continue
			}
			if h := row[et.rank]; h >= 0 {
				relax(es.dist + h + et.dist)
			}
		}
	}
	return best
}
