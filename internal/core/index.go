// Package core implements the paper's primary contribution: the highway
// cover distance labelling (Section 3) and the bounded distance querying
// framework built on it (Section 4), including the optimizations of
// Section 5 (parallel construction over landmarks, landmark ranks as a
// per-vertex bitmask beside a label's distances as one base and an excess
// of the bits the labelling needs an entry, and the common-landmark query
// shortcut of Lemma 5.1). A leaf's label is its neighbour's, each distance
// one higher, so the labels of leaves are not kept when that saves more
// bytes than finding the others costs.
//
// # Overview
//
// Given a set R of landmarks, Build runs the pruned BFS of Algorithm 1
// from every landmark. The pruned BFS from landmark r adds the entry
// (r, d(r,v)) to L(v) if and only if no other landmark appears on any
// shortest path between r and v (Lemma 3.7). The landmark-to-landmark
// distances form the highway δH. The resulting labelling is minimal
// (Theorem 3.12) and independent of the order in which landmarks are
// processed (Lemma 3.11).
//
// Construction (build.go) is built on that independence: the BFSs of up
// to 32 landmarks advance together, level by level, as one traversal of
// the graph in which a vertex's state for all of them is one machine word,
// and a "worker" is a goroutine that takes a share of a level's vertices,
// not a landmark's BFS. A vertex's outcome at a level depends only on the
// level before, so any worker count and direction produce a byte-identical
// index; re-running some landmarks after the graph changed (Rows.ApplyOps,
// update.go) is the same traversal with fewer bits set.
//
// A query (s,t) computes the upper bound d⊤ = min over label entries of
// δL(ri,s) + δH(ri,rj) + δL(rj,t) (Equation 4; pairs sharing a landmark
// use δL(r,s)+δL(r,t) per Lemma 5.1), then refines it with a
// distance-bounded bidirectional BFS on the sparsified graph G[V\R]
// (Algorithm 2). The minimum of the two is exact (Theorem 4.6).
package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"highway/internal/graph"
	"highway/internal/method"
)

// The highway cover labelling implements the method-agnostic index
// contract (the root package's DistanceIndex) shared by all five
// labellings; see internal/method.
var _ method.DistanceIndex = (*Index)(nil)

// Infinity is the distance reported between disconnected vertices.
const Infinity int32 = -1

// MaxLandmarks bounds the landmark count so a rank fits the byte an
// overflow record (section 6) gives it, as in the paper's 8-bit compressed
// representation ("usually no more than 100 landmarks", Section 5.2), and a
// label's ranks fit a landmarkSet.
const MaxLandmarks = 255

// Index is a highway cover distance labelling over a graph.
//
// # Label storage
//
// Labels live in a flat structure-of-arrays CSR layout: the label kept in
// slot s occupies positions span(s) of the entries, sorted by landmark rank;
// there are no per-vertex slice headers to chase. A vertex's slot is the
// vertex itself, unless the labelling elides leaves (leaves): a vertex of
// degree one that is not a landmark, whose neighbour u is neither a landmark
// nor of degree one, has every shortest path from a landmark run through u,
// so L(v) is L(u) with each distance one higher (Lemma 3.7) and is not kept
// — Akiba, Sommer and Kawarabayashi's core–fringe split (EDBT 2012) at
// degree one, where no parent needs storing. The elided set is derived from
// the graph, never stored in the file; the labelling elides it when the rank
// sections that saves are more bytes than the set (chooseLeaves): on R-MAT,
// a quarter of whose vertices are such leaves, but on no BA graph, whose
// minimum degree is above one. The rank sections and the distance codes then
// hold the kept vertices only, in vertex order, and slotOf, the one funnel
// every label reader goes through, sends an elided vertex to its neighbour's
// slot with its base one higher. A kept vertex finds its slot with one rank
// query over the set (leaves, 2 bits a vertex, small enough to stay
// cached), and an elided one its neighbour's in rankOf, which a query loads
// anyway to test for a landmark: there an elided vertex's entry is ^slot.
// NumEntries still counts every label, the file's header the kept ones.
// A label's ranks are kept as labelMask, k bits a slot with bit r set iff
// landmark r is in its label (Akiba et al.'s bit-parallel labels, SIGMOD
// 2013), packed end to end beside a rank directory (rankBits) that gives a
// label's start in ≤ 2 B a vertex, 5/8 of one at k = 20: labelOf gives slot
// s's ranks as a landmarkSet, and the entry of rank r sits at its start plus
// the number of s's ranks below r.
//
// An entry (r, d) exists only when no other landmark lies on a shortest
// r–v path, so its distance is tiny, and two entries of a label differ by
// less than their landmarks' highway distance: none on R-MAT, whose hubs
// are pairwise adjacent. labelDist keeps the distances per label (section
// 16): a base code of w bits a slot, its smallest d-1, and an excess code
// of wo ∈ {0, 1, 2, 4} bits an entry, d less that; an all-ones base escapes
// the whole label to overflow, which maps an entry's position to its real
// distance. The widths, w ∈ {2, 4, 8}, are those whose section and records
// take the fewest bytes (chooseDist): w = 2 and wo ≤ 1 on complex networks.
// They are a function of the labelling, which is unique (Lemma 3.11), so
// every index of one graph and landmark set has the same bytes. The query
// hot path is one AND of two rank sets, a walk over their set bits, and a
// multiply, a shift, a mask and a compare per distance.
//
// All are little-endian bytes, because the label arrays are the index
// file's sections 14 and 15 (17 and 18 when leaves are elided) and 16
// themselves: a save writes them as they are and a load keeps the buffers
// it read them into (serialize.go).
//
// The highway matrix stores exact landmark-to-landmark distances
// row-major; Infinity where disconnected.
//
// # Concurrency
//
// An Index is immutable once Build/BuildParallel/Read/Rows.ApplyOps
// returns: label arrays, the highway matrix and the landmark arrays are
// written only until then and never after (build workers write disjoint
// positions and are joined before the index is returned; a Rows copies
// the highway before it writes again, and merges a previous index's
// entries into new arrays). Every method is therefore safe for unlimited
// concurrent readers. Searchers own mutable scratch state: share the
// Index, never a Searcher.
type Index struct {
	g          *graph.Graph
	landmarks  []int32 // rank -> vertex id
	rankOf     []int32 // vertex id -> rank, < 0 for non-landmarks (^slot for an elided one: slotOf)
	isLandmark []bool  // len n; the skip mask for Algorithm 2
	highway    []int32 // k*k, row-major; Infinity = unreachable

	// Flat CSR label storage (structure-of-arrays), one label a slot.
	leaves    leafSet         // the vertices whose label is not kept
	entries   int64           // Σ|L(v)| over every vertex, elided ones included
	labelMask rankBits        // k bits a slot and their directory
	labelDist []byte          // section 16 as written and read
	dist      distCodes       // what reads it
	overflow  map[int64]int32 // position -> distance of each escaped entry

	// built records how BuildOpts constructed this index (zero value for
	// loaded indexes and ones Rows.ApplyOps returned). Written
	// once before BuildOpts returns, immutable after.
	built BuildStats
}

// BuildStats returns the construction statistics of an index built by
// Build/BuildParallel/BuildOpts: worker count and the traversal engine's
// top-down/bottom-up level and edge counters. Indexes obtained by
// loading or from Rows.ApplyOps return the zero value.
func (ix *Index) BuildStats() BuildStats { return ix.built }

// Graph returns the underlying graph.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// Landmarks returns the landmark vertex ids by rank. Callers must not
// modify the returned slice.
func (ix *Index) Landmarks() []int32 { return ix.landmarks }

// NumLandmarks returns |R|.
func (ix *Index) NumLandmarks() int { return len(ix.landmarks) }

// IsLandmark reports whether v is a landmark.
func (ix *Index) IsLandmark(v int32) bool { return ix.isLandmark[v] }

// Highway returns δH(r1, r2) for two landmark *vertex ids*, or Infinity if
// they are disconnected. It panics if either vertex is not a landmark.
func (ix *Index) Highway(r1, r2 int32) int32 {
	i, j := ix.rankOf[r1], ix.rankOf[r2]
	if i < 0 || j < 0 {
		panic(fmt.Sprintf("core: Highway(%d,%d): not landmarks", r1, r2))
	}
	return ix.highway[int(i)*len(ix.landmarks)+int(j)]
}

// overflowRec is one escaped label entry as section 6 records it: the
// entry (rank) of vertex v, whose distance d does not fit its code.
type overflowRec struct {
	v    int32
	rank uint8
	d    int32
}

// cmpOverflow orders overflow records as the label arrays order their
// entries: by vertex, then rank.
func cmpOverflow(a, b overflowRec) int {
	if c := cmp.Compare(a.v, b.v); c != 0 {
		return c
	}
	return cmp.Compare(a.rank, b.rank)
}

// rankBits is the labels' ranks, sections 14 and 15: slot v's ranks
// are bits v·k … v·k+k-1 of bits, a little-endian uint64 string, and dir is
// Jacobson's rank directory over it: one uint64 per 2¹⁶ bits, the set bits
// before them (base), then one uint16 per stride of ⌈k/64⌉ words, those
// from its block's start to the stride's (rel). A label starts at base +
// rel + a popcount of its stride up to v·k, one word whenever k ≤ 64.
type rankBits struct {
	bits, dir []byte
	base, rel []byte // dir's two arrays
	k, stride uint   // bits a vertex; words a stride
}

// maskLens returns the lengths of sections 14 and 15 for n vertices of k
// landmarks.
func maskLens(n, k int) (bitsLen, dirLen int64) {
	words, stride := (int64(n)*int64(k)+63)/64, int64(k+63)/64
	return words * 8, (words+1023)/1024*8 + (words+stride-1)/stride*2
}

// newRankBits returns the ranks of k landmarks a vertex that bits and dir,
// of the lengths maskLens gives, hold.
func newRankBits(bits, dir []byte, k int) rankBits {
	blocks := (len(bits)/8 + 1023) / 1024 * 8
	return rankBits{bits: bits, dir: dir, base: dir[:blocks], rel: dir[blocks:], k: uint(k), stride: uint(k+63) / 64}
}

// near returns the k ≤ 57 bits from bit pos on, which the 8 bytes from
// pos's hold.
func (b *rankBits) near(pos uint) uint64 {
	at := min(pos>>3, uint(len(b.bits))-8)
	return binary.LittleEndian.Uint64(b.bits[at:]) >> (pos - at*8) & (1<<b.k - 1)
}

// word returns word w of the bit string.
func (b *rankBits) word(w uint) uint64 { return binary.LittleEndian.Uint64(b.bits[w*8:]) }

// start returns where the label of slot v starts, for any k: the
// directory's counts and a popcount of v's stride up to v·k.
func (b *rankBits) start(v int32) (lo int64) {
	pos := uint(v) * b.k
	j := pos >> 6 // v's stride
	if b.stride > 1 {
		j /= b.stride
	}
	s := j * b.stride
	lo = int64(binary.LittleEndian.Uint64(b.base[s>>10*8:])) + int64(binary.LittleEndian.Uint16(b.rel[j*2:]))
	for ; s < pos>>6; s++ {
		lo += int64(bits.OnesCount64(b.word(s)))
	}
	return lo + int64(bits.OnesCount64(b.word(s)&(1<<(pos&63)-1)))
}

// size returns how many ranks slot v holds.
func (b *rankBits) size(v int32) int64 {
	if b.k <= 57 {
		return int64(bits.OnesCount64(b.near(uint(v) * b.k)))
	}
	var m landmarkSet
	b.ranksOf(v, &m)
	return m.size()
}

// ranksOf adds v's ranks to m, 64 at a time from the words they straddle.
func (b *rankBits) ranksOf(v int32, m *landmarkSet) {
	pos := uint(v) * b.k
	for i := uint(0); i < b.k; i += 64 { // past the string's end, the second word is garbage the mask drops
		w, off := (pos+i)>>6, (pos+i)&63
		m[i>>6] = (b.word(w)>>off | b.word(min(w+1, uint(len(b.bits))/8-1))<<(64-off)) & (1<<min(b.k-i, 64) - 1)
	}
}

// store writes m as vertex v's ranks into a string of zeros there. It
// writes no word that holds none of them, so vertices whose bits start
// on a word boundary and those after them can be stored concurrently.
func (b *rankBits) store(v int, m *landmarkSet) {
	pos := uint(v) * b.k
	for i := uint(0); i < b.k; i += 64 {
		w, off, x := (pos+i)>>6, (pos+i)&63, m[i>>6&3]
		binary.LittleEndian.PutUint64(b.bits[w*8:], b.word(w)|x<<off)
		if off+min(b.k-i, 64) > 64 {
			binary.LittleEndian.PutUint64(b.bits[w*8+8:], b.word(w+1)|x>>(64-off))
		}
	}
}

// directory holds dir to the counts of b's bits — the set bits before
// each block's first word and from there to each stride's — and returns
// how many ranks the bits hold: one popcount a word. With fill, it writes
// the counts first.
func (b *rankBits) directory(fill bool) (int64, error) {
	var total uint64 // the set bits before word w
	for w, next, j := uint(0), uint(0), 0; w < uint(len(b.bits))/8; w++ {
		base, rel := b.base[w/1024*8:], b.rel[j*2:]
		if fill && w%1024 == 0 {
			binary.LittleEndian.PutUint64(base, total)
		}
		if fill && w == next {
			binary.LittleEndian.PutUint16(rel, uint16(total-binary.LittleEndian.Uint64(base)))
		}
		if w%1024 == 0 && binary.LittleEndian.Uint64(base) != total || w == next && uint64(binary.LittleEndian.Uint16(rel)) != total-binary.LittleEndian.Uint64(base) {
			return 0, fmt.Errorf("before word %d", w)
		}
		if w == next {
			next, j = next+b.stride, j+1
		}
		total += uint64(bits.OnesCount64(b.word(w)))
	}
	return int64(total), nil
}

// packRanks lays out the ranks fill gives each of n vertices and returns
// them and how many there are. The workers take blocks of pullBlock
// vertices, whose bits start on a word boundary, so no two write one word.
func packRanks(n, k, workers int, fill func(v int, m *landmarkSet)) (rankBits, int64) {
	bitsLen, dirLen := maskLens(n, k)
	b := newRankBits(make([]byte, bitsLen), make([]byte, dirLen), k)
	share(workers, (n+pullBlock-1)/pullBlock, func(_, i int) {
		var m landmarkSet // a block's: fill makes it escape
		for v := i * pullBlock; v < min((i+1)*pullBlock, n); v++ {
			m = landmarkSet{}
			fill(v, &m)
			b.store(v, &m)
		}
	})
	entries, _ := b.directory(true) // counts it has just written cannot disagree
	return b, entries
}

// span returns the positions lo..hi of the label in slot s.
func (ix *Index) span(s int32) (lo, hi int64) {
	var m landmarkSet
	lo = ix.labelOf(s, &m)
	return lo, lo + m.size()
}

// leafSet is a set of elided vertices: word v/32's low half has bit v%32
// set iff vertex v is in it, and its high half counts those below v&^31, so
// a kept vertex's slot is one load and one popcount away. The zero value is
// the empty set.
type leafSet struct{ words []uint64 }

// leavesOf returns the vertices of g whose label is their neighbour's,
// each distance one higher: those of degree one that are no landmark and
// whose neighbour is neither a landmark nor of degree one: one pass over
// the offsets, and one over the vertices of degree one.
func leavesOf(g *graph.Graph, isLandmark []bool) leafSet {
	off, tgt := g.CSR()
	n := g.NumVertices()
	var words []uint64 // made at the first vertex of degree one
	for lo := 0; lo < n; lo += 32 {
		var ends uint64 // the block's vertices of degree one, found without a branch
		o := off[lo : min(lo+32, n)+1]
		for i := range len(o) - 1 {
			d := uint64(o[i+1] - o[i] - 1) // 0 at degree one
			ends |= ((d|-d)>>63 ^ 1) << (i & 31)
		}
		if ends != 0 && words == nil {
			words = make([]uint64, (n+31)/32)
		}
		if ends != 0 {
			words[lo/32] = ends << 32 // in the high half until the counts go there
		}
	}
	count := 0
	for w, x := range words { // those that are leaves, in the low halves
		for ends := x >> 32; ends != 0; ends &= ends - 1 {
			v := w*32 + bits.TrailingZeros64(ends)
			if u := tgt[off[v]]; !isLandmark[v] && !isLandmark[u] && words[u/32]>>(32+u%32)&1 == 0 {
				words[w] |= 1 << (v % 32)
				count++
			}
		}
	}
	if count == 0 {
		return leafSet{}
	}
	count = 0
	for w, x := range words { // and the counts before each block in the high halves
		words[w] = uint64(count)<<32 | x&(1<<32-1)
		count += bits.OnesCount32(uint32(x))
	}
	return leafSet{words}
}

// has reports whether v is in the set.
func (s *leafSet) has(v int32) bool { return s.words[v>>5]>>(v&31)&1 != 0 }

// slot returns the slot of a vertex not in the set: v less the vertices
// of the set below it (up to it, for one in the set).
func (s *leafSet) slot(v int32) int32 {
	x := s.words[v>>5]
	return v - int32(x>>32) - int32(bits.OnesCount32(uint32(x)<<(31-v&31)))
}

// count returns the size of the set.
func (s *leafSet) count() int {
	if len(s.words) == 0 {
		return 0
	}
	x := s.words[len(s.words)-1]
	return int(x>>32) + bits.OnesCount32(uint32(x))
}

// readRanks writes rankOf to out, as Index.rankOf, with the entry of every
// vertex of the set made ^s, s the slot of its neighbour, whose label it
// reads once the set is elided. out may be rankOf.
func (s *leafSet) readRanks(g *graph.Graph, rankOf, out []int32) {
	copy(out, rankOf)
	off, tgt := g.CSR()
	for w, x := range s.words {
		for low := uint32(x); low != 0; low &= low - 1 {
			v := w*32 + bits.TrailingZeros32(low)
			out[v] = ^s.slot(tgt[off[v]])
		}
	}
}

// vertex returns the vertex in slot i, the inverse of slot: the first
// whose slot, v less the vertices of the set up to it, reaches i.
func (s *leafSet) vertex(i int32) int32 {
	if s.words == nil {
		return i
	}
	return int32(sort.Search(len(s.words)*32, func(v int) bool { return s.slot(int32(v)) >= i }))
}

// sum returns Σ size(v) over the vertices of the set.
func (s *leafSet) sum(size func(v int32) int64) (total int64) {
	for w, x := range s.words {
		for low := uint32(x); low != 0; low &= low - 1 {
			total += size(int32(w)*32 + int32(bits.TrailingZeros32(low)))
		}
	}
	return total
}

// slots returns how many labels the index keeps.
func (ix *Index) slots() int { return len(ix.rankOf) - ix.leaves.count() }

// slotOf is the funnel every reader of a vertex's label goes through: it
// returns the slot that keeps v's label, and 1 when that is v's
// neighbour's, whose distances distOf then reads one higher, or 0. A kept
// vertex's slot is one rank query over the set; an elided one's, its
// neighbour's, is in rankOf (readRanks).
func (ix *Index) slotOf(v int32) (s, leaf int32) {
	if ix.leaves.words == nil {
		return v, 0
	}
	if x := ix.leaves.words[v>>5]; x>>(v&31)&1 == 0 {
		return v - int32(x>>32) - int32(bits.OnesCount32(uint32(x)<<(31-v&31))), 0
	}
	return ^ix.rankOf[v], 1
}

// landmarkSet is a set of landmark ranks, rank r at bit r%64 of word r/64:
// four words hold MaxLandmarks.
type landmarkSet [4]uint64

// size returns how many ranks m holds.
func (m *landmarkSet) size() int64 {
	return int64(bits.OnesCount64(m[0]) + bits.OnesCount64(m[1]) + bits.OnesCount64(m[2]) + bits.OnesCount64(m[3]))
}

// before returns how many ranks below r the words of a set hold, more than
// r/64 of them: where the entry of rank r sits in a label of those ranks.
func before(words []uint64, r int) int64 {
	n := bits.OnesCount64(words[r>>6] & (1<<(r&63) - 1))
	for _, x := range words[:r>>6] {
		n += bits.OnesCount64(x)
	}
	return int64(n)
}

// nth returns the (i+1)-th lowest rank the words of a set hold, or -1 when
// they hold no more than i.
func nth(words []uint64, i int64) int {
	for w, x := range words {
		for ; x != 0; x, i = x&(x-1), i-1 {
			if i == 0 {
				return w<<6 | bits.TrailingZeros64(x)
			}
		}
	}
	return -1
}

// labelOf returns where the label in slot v starts and adds its ranks to
// m, which must be empty: every reader of a label goes through it, after
// slotOf. (m is not a result: a 32-byte result is copied out in halves that
// stall on the callee's word stores.)
func (ix *Index) labelOf(v int32, m *landmarkSet) (lo int64) {
	if b := &ix.labelMask; b.k <= 57 { // inline: v's stride is its word
		pos := uint(v) * b.k
		m[0] = b.near(pos)
		return int64(binary.LittleEndian.Uint64(b.base[pos>>16*8:])) + int64(binary.LittleEndian.Uint16(b.rel[pos>>6*2:])) +
			int64(bits.OnesCount64(b.word(pos>>6)<<(63-pos&63)<<1))
	}
	ix.labelMask.ranksOf(v, m)
	return ix.labelMask.start(v)
}

// entryAt returns the vertex and landmark rank of the entry at position p.
func (ix *Index) entryAt(p int64) (v int32, rank uint8) {
	s := int32(sort.Search(ix.slots(), func(s int) bool { _, hi := ix.span(int32(s)); return hi > p }))
	var m landmarkSet
	return ix.leaves.vertex(s), uint8(nth(m[:], p-ix.labelOf(s, &m)))
}

// chooseLeaves reports whether a labelling of n vertices and k landmarks
// keeps no label for its count leaves (leavesOf): when the rank sections
// that saves are more bytes than the leafSet. A path's two ends or one new
// leaf on a large graph are not.
func chooseLeaves(n, k, count int) bool {
	allBits, allDir := maskLens(n, k)
	keptBits, keptDir := maskLens(n-count, k)
	return count > 0 && allBits+allDir-keptBits-keptDir > int64(n+31)/32*8
}

// distWidths are the widths of a base code, widest first, and
// excessWidths those of an excess code, narrowest first.
var (
	distWidths   = [...]uint8{8, 4, 2}
	excessWidths = [...]uint8{0, 1, 2, 4}
)

// chooseDist returns the widths of the base codes of n labels and the
// excess codes of their entries entries, with stats st: those whose section
// and overflow records (9 bytes each) are fewest, the wider w, then the
// narrower wo, on a tie.
func chooseDist(n int, entries int64, st *distStats) (w, wo uint8) {
	best := int64(math.MaxInt64)
	for _, bw := range distWidths {
		for _, ow := range excessWidths {
			if s := 2 + (int64(n)*int64(bw)+7)/8 + (entries*int64(ow)+7)/8 + 9*st.escaped(bw, ow); s < best {
				best, w, wo = s, bw, ow
			}
		}
	}
	return w, wo
}

// distCodes reads the distances out of section 16: slot v's base code at
// bit v·baseW of bases, entry p's excess code at bit p·codeW of codes, the
// base escaping when all ones. With no excess, codes is the section itself,
// read under a zero mask.
type distCodes struct {
	bases, codes    []byte
	baseW, baseMask uint8
	codeW, codeMask uint8
}

// setDist makes sect, section 16, ix's distances, once ix.leaves is.
func (ix *Index) setDist(sect []byte) {
	wb, wo := sect[0], sect[1]
	split := 2 + (ix.slots()*int(wb)+7)/8
	ix.labelDist = sect
	ix.dist = distCodes{bases: sect[2:split], baseW: wb, baseMask: 1<<wb - 1, codes: sect[split:], codeW: wo, codeMask: 1<<wo - 1}
	if wo == 0 {
		ix.dist.codes = sect
	}
}

// labelBase is what reading a label's distances takes: its base, the code
// that escapes to overflow — 0 in an escaped label, whose codes are 0, and
// 0xFF, which no excess code is, in any other —, and what an escaped
// distance gains: 1 read by an elided vertex.
type labelBase struct {
	base, leaf int32
	esc        uint8
}

// distOf returns the labelBase of the label in slot v read by a vertex
// leaf hops farther from every landmark than the slot's (slotOf).
func (ix *Index) distOf(v, leaf int32) labelBase {
	d := &ix.dist
	bit := uint(v) * uint(d.baseW)
	if c := d.bases[bit/8] >> (bit % 8) & d.baseMask; c != d.baseMask {
		return labelBase{base: int32(c) + 1 + leaf, esc: 0xFF, leaf: leaf}
	}
	return labelBase{leaf: leaf}
}

// distAt returns the distance of the entry at position p of the label l is
// of: a map lookup for an escape, which does not count against inlining
// into the query loops as a call would.
func (ix *Index) distAt(l labelBase, p int64) int32 {
	bit := uint64(p) * uint64(ix.dist.codeW)
	if c := ix.dist.codes[bit/8] >> (bit % 8) & ix.dist.codeMask; c != l.esc {
		return l.base + int32(c)
	}
	return ix.overflow[p] + l.leaf
}

// Label returns vertex v's label, sorted by rank, as freshly allocated
// parallel slices of landmark ranks and decoded distances.
func (ix *Index) Label(v int32) (ranks []int32, dists []int32) {
	var m landmarkSet
	s, leaf := ix.slotOf(v)
	lo, l := ix.labelOf(s, &m), ix.distOf(s, leaf)
	ranks, dists = make([]int32, 0, m.size()), make([]int32, 0, m.size())
	for w, x := range m[:] {
		for ; x != 0; x &= x - 1 {
			ranks = append(ranks, int32(w<<6|bits.TrailingZeros64(x)))
			dists = append(dists, ix.distAt(l, lo))
			lo++
		}
	}
	return ranks, dists
}

// LabelSize returns |L(v)|, the number of entries in v's label.
// Landmarks have empty labels (labels are defined on V\R).
func (ix *Index) LabelSize(v int32) int {
	s, _ := ix.slotOf(v)
	return int(ix.labelMask.size(s))
}

// NumEntries returns size(L) = Σ_v |L(v)|, the labelling size measure of
// the paper (LS in Figure 3), elided labels included.
func (ix *Index) NumEntries() int64 { return ix.entries }

// kept returns the entries of the labels kept, which the index file's
// header counts.
func (ix *Index) kept() int64 {
	_, hi := ix.span(int32(ix.slots()) - 1)
	return hi
}

// numOverflow counts entries whose distance does not fit their code
// (≥ 2^w).
func (ix *Index) numOverflow() int64 { return int64(len(ix.overflow)) }

// AvgLabelSize returns the average number of entries per label (Table 2's
// ALS column), over non-landmark vertices.
func (ix *Index) AvgLabelSize() float64 {
	n := ix.g.NumVertices() - len(ix.landmarks)
	if n <= 0 {
		return 0
	}
	return float64(ix.NumEntries()) / float64(n)
}

// SizeBytes32 reports the labelling size under the paper's uncompressed
// accounting (Table 3's "HL"): 32 bits per landmark id + 8 bits per
// distance per entry, plus the highway matrix.
func (ix *Index) SizeBytes32() int64 {
	return ix.NumEntries()*5 + int64(len(ix.highway))*4
}

// SizeBytes8 reports the labelling size under the paper's compressed
// accounting (Table 3's "HL(8)"): 8 bits per landmark id + 8 bits per
// distance per entry, plus the highway matrix. The label arrays take less:
// their distance codes have the w ≤ 8 bits the labelling needs (see
// ActualBytes).
func (ix *Index) SizeBytes8() int64 {
	return ix.NumEntries()*2 + int64(len(ix.highway))*4
}

// overflowSlot is what an escaped entry costs in the overflow map: its
// key and value, and its share of the map's control bytes and free slots.
const overflowSlot = 24

// ActualBytes reports the real in-memory footprint of the index
// structures (flat label arrays — rank bits and their directory, and
// distance codes —, overflow table, highway, landmark arrays and the
// elided set).
func (ix *Index) ActualBytes() int64 {
	return int64(len(ix.leaves.words))*8 +
		int64(len(ix.labelMask.bits)) +
		int64(len(ix.labelMask.dir)) +
		int64(len(ix.labelDist)) +
		int64(len(ix.overflow))*overflowSlot +
		int64(len(ix.highway))*4 +
		int64(len(ix.landmarks))*4 +
		int64(len(ix.rankOf))*4 +
		int64(len(ix.isLandmark))
}

// Stats is the method-agnostic index summary (see internal/method);
// the alias keeps core.Stats call sites compiling.
type Stats = method.Stats

// Stats returns summary statistics of the index.
func (ix *Index) Stats() Stats {
	maxLS := 0
	for v := 0; v < ix.g.NumVertices(); v++ {
		if ls := ix.LabelSize(int32(v)); ls > maxLS {
			maxLS = ls
		}
	}
	return Stats{
		Method:       "hl",
		NumVertices:  ix.g.NumVertices(),
		NumEdges:     ix.g.NumEdges(),
		NumLandmarks: len(ix.landmarks),
		NumEntries:   ix.NumEntries(),
		AvgLabelSize: ix.AvgLabelSize(),
		MaxLabelSize: maxLS,
		SizeBytes:    ix.SizeBytes32(),
		Bytes32:      ix.SizeBytes32(),
		Bytes8:       ix.SizeBytes8(),
	}
}
