// Package core implements the paper's primary contribution: the highway
// cover distance labelling (Section 3) and the bounded distance querying
// framework built on it (Section 4), including the optimizations of
// Section 5 (parallel construction over landmarks, landmark ranks of 8
// bits or a per-vertex bitmask, whichever is smaller, beside distance codes
// of the bits the labelling needs, an entry's or a label's, and the
// common-landmark query shortcut of Lemma 5.1).
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
// index; re-running some landmarks after the graph changed (Rows, used by
// internal/dynhl) is the same traversal with fewer bits set.
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
	"sync"

	"highway/internal/graph"
	"highway/internal/method"
)

// The highway cover labelling implements the method-agnostic index
// contract (the root package's DistanceIndex) shared by all five
// labellings; see internal/method.
var _ method.DistanceIndex = (*Index)(nil)

// Infinity is the distance reported between disconnected vertices.
const Infinity int32 = -1

// MaxLandmarks bounds the landmark count so ranks fit the paper's 8-bit
// compressed representation ("usually no more than 100 landmarks",
// Section 5.2).
const MaxLandmarks = 255

// Index is a highway cover distance labelling over a graph.
//
// # Label storage
//
// Labels live in a flat structure-of-arrays CSR layout: vertex v's label
// occupies positions span(v) of the entries, sorted by landmark rank; there
// are no per-vertex slice headers to chase.
// Its ranks are kept as labelRank, a byte an entry as in the paper's HL(8)
// (Section 5.2), beside offsets, or as labelMask, k bits a vertex with bit
// r set iff landmark r is in L(v) (Akiba et al.'s bit-parallel labels,
// SIGMOD 2013) packed end to end beside a rank directory, whichever is
// fewer bytes, rank bytes on a tie (chooseMask): the mask on complex
// networks, rank bytes on a grid or a path. Either way labelOf gives v's
// ranks as a landmarkSet, and the entry of rank r sits at span(v)'s start
// plus the number of v's ranks below r.
//
// An entry (r, d) exists only when no other landmark lies on a shortest
// r–v path, so its distance is tiny, and two entries of a label differ by
// less than their landmarks' highway distance: none on R-MAT, whose hubs
// are pairwise adjacent. labelDist keeps the distances per entry (section
// 12: a code of w bits, d-1) or per label (section 16: a base code of w
// bits a vertex, its smallest d-1, and an excess code of wo ∈ {0, 1, 2, 4}
// bits an entry, d less that), an all-ones code escaping the entry, or the
// whole label, to overflow, which maps an entry's position to its real
// distance. Form and widths, w ∈ {2, 4, 8}, are those whose section and
// records take the fewest bytes (chooseDist): per label, w = 2 and wo ≤ 1
// on complex networks, per entry, w = 8, on a long path or a grid. Both
// rank and distance forms are functions of the labelling, which is unique
// (Lemma 3.11), so every index of one graph and landmark set has the same
// bytes. The query hot path is one AND of two rank sets, a walk over their
// set bits, and a multiply, a shift, a mask and a compare per distance.
//
// The rank bytes' offsets take their width from the same limit as the
// ranks: a label has at most MaxLandmarks entries, so prefix sums
// restarted every offBlock vertices stay ≤ 255·255 < 2¹⁶. labelOff holds
// one uint64 per block, the offset of its first vertex, and one uint16 per
// vertex, its offset past that: at(v) = base[v>>8] + rel[v], 2.03 B a
// vertex with no cap on the total. The mask needs none: its directory
// (rankBits) gives a label's start in ≤ 2 B a vertex, 5/8 of one at k = 20.
// All are little-endian bytes, because all the label arrays are the index
// file's sections 7, 8 and 4, or 14 and 15, and 12 or 16 themselves: a save
// writes them as they are and a load keeps the buffers it read them into
// (serialize.go).
//
// The highway matrix stores exact landmark-to-landmark distances
// row-major; Infinity where disconnected.
//
// # Concurrency
//
// An Index is immutable once Build/BuildParallel/Read/Rows.Assemble
// returns: label arrays, the highway matrix and the landmark arrays are
// written only until then and never after (build workers write disjoint
// positions and are joined before the index is returned; a Rows copies
// the highway before it writes again, and merges a previous index's
// entries into new arrays). Every method is therefore safe for unlimited
// concurrent readers. The one mutable field, the internal searcher pool, is a
// sync.Pool touched only by the pooled conveniences Distance, UpperBound
// and Path. Searchers own mutable scratch state: share the Index, never a
// Searcher.
type Index struct {
	g          *graph.Graph
	landmarks  []int32 // rank -> vertex id
	rankOf     []int32 // vertex id -> rank, -1 for non-landmarks
	isLandmark []bool  // len n; the skip mask for Algorithm 2
	highway    []int32 // k*k, row-major; Infinity = unreachable

	// Flat CSR label storage (structure-of-arrays).
	labelOff  offsets         // rank bytes: n+1 prefix sums of label sizes
	labelRank []uint8         // rank bytes: ranks ascending per vertex; or nil
	labelMask rankBits        // mask: k bits a vertex and their directory; or zero
	labelDist []byte          // section 12 or 16 as written and read
	dist      distCodes       // what reads it
	overflow  map[int64]int32 // position -> distance of each escaped entry

	// built records how BuildOpts constructed this index (zero value for
	// loaded indexes and ones Rows.Assemble returned directly). Written
	// once before BuildOpts returns, immutable after.
	built BuildStats

	pool sync.Pool // of *Searcher, for the concurrency-safe conveniences
}

// BuildStats returns the construction statistics of an index built by
// Build/BuildParallel/BuildOpts: worker count and the traversal engine's
// top-down/bottom-up level and edge counters. Indexes obtained by
// loading or from Rows.Assemble return the zero value.
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

// offsets is the prefix sums of the label sizes in the rank-byte form, n+1
// of them, as the index file's sections 7 and 8 hold them: base is one
// little-endian uint64 per block of offBlock vertices, the offset of the
// block's first vertex, and rel one uint16 per vertex, its offset past that.
type offsets struct{ base, rel []byte }

const offBlock = 256

// at returns the position of vertex v's first entry; at(n) is the number
// of entries.
func (o offsets) at(v int32) int64 {
	return int64(binary.LittleEndian.Uint64(o.base[uint(v)/offBlock*8:])) +
		int64(binary.LittleEndian.Uint16(o.rel[uint(v)*2:]))
}

// newOffsets returns the offsets of labels of the given sizes, one per
// vertex — a byte holds any, a label having at most MaxLandmarks entries —
// and their sum.
func newOffsets(sizes []uint8) (o offsets, entries int64) {
	n := len(sizes)
	o = offsets{base: make([]byte, (n+offBlock)/offBlock*8), rel: make([]byte, (n+1)*2)}
	var base int64
	for v := 0; ; v++ {
		if v%offBlock == 0 {
			base = entries
			binary.LittleEndian.PutUint64(o.base[v/offBlock*8:], uint64(base))
		}
		binary.LittleEndian.PutUint16(o.rel[v*2:], uint16(entries-base))
		if v == n {
			return o, entries
		}
		entries += int64(sizes[v])
	}
}

// rankBits is the mask form's ranks, sections 14 and 15: vertex v's ranks
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

// labelOf is Index.labelOf in the mask form, for any k: the directory's
// counts, a popcount of v's stride up to v·k, and v's ranks 64 at a time
// from the words they straddle.
func (b *rankBits) labelOf(v int32, m *landmarkSet) (lo int64) {
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
	lo += int64(bits.OnesCount64(b.word(s) & (1<<(pos&63) - 1)))
	for i := uint(0); i < b.k; i += 64 { // past the string's end, the second word is garbage the mask drops
		w, off := (pos+i)>>6, (pos+i)&63
		m[i>>6] = (b.word(w)>>off | b.word(min(w+1, uint(len(b.bits))/8-1))<<(64-off)) & (1<<min(b.k-i, 64) - 1)
	}
	return lo
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
			return 0, fmt.Errorf("core: section %d does not count the ranks of section %d before word %d", sectLabelDir, sectLabelBits, w)
		}
		if w == next {
			next, j = next+b.stride, j+1
		}
		total += uint64(bits.OnesCount64(b.word(w)))
	}
	return int64(total), nil
}

// packRanks lays out the ranks fill gives each of n vertices as the mask
// form holds them, and as the offsets of rank bytes would place their
// labels. The workers take blocks of pullBlock vertices, whose bits start
// on a word boundary, so no two write one word.
func packRanks(n, k, workers int, fill func(v int, m *landmarkSet)) (rankBits, offsets) {
	bitsLen, dirLen := maskLens(n, k)
	b, sizes := newRankBits(make([]byte, bitsLen), make([]byte, dirLen), k), make([]uint8, n)
	share(workers, (n+pullBlock-1)/pullBlock, func(_, i int) {
		var m landmarkSet // a block's: fill makes it escape
		for v := i * pullBlock; v < min((i+1)*pullBlock, n); v++ {
			m = landmarkSet{}
			fill(v, &m)
			b.store(v, &m)
			sizes[v] = uint8(m.size())
		}
	})
	_, _ = b.directory(true) // counts it has just written cannot disagree
	off, _ := newOffsets(sizes)
	return b, off
}

// span returns the positions lo..hi of vertex v's label.
func (ix *Index) span(v int32) (lo, hi int64) {
	var m landmarkSet
	lo = ix.labelOf(v, &m)
	return lo, lo + m.size()
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

// labelOf returns where vertex v's label starts and adds its ranks to m,
// which must be empty: every reader of a label goes through it. (m is not a
// result: a 32-byte result is copied out in halves that stall on the
// callee's word stores.)
func (ix *Index) labelOf(v int32, m *landmarkSet) (lo int64) {
	if b := &ix.labelMask; b.k-1 < 57 { // the mask at k ≤ 57, inline (k = 0, the rank bytes, wraps)
		pos := uint(v) * b.k // v's stride is its word
		m[0] = b.near(pos)
		return int64(binary.LittleEndian.Uint64(b.base[pos>>16*8:])) + int64(binary.LittleEndian.Uint16(b.rel[pos>>6*2:])) +
			int64(bits.OnesCount64(b.word(pos>>6)<<(63-pos&63)<<1))
	}
	if ix.labelMask.bits != nil {
		return ix.labelMask.labelOf(v, m)
	}
	lo = ix.labelOff.at(v)
	var low uint64 // m[0], kept out of memory while it fills
	for _, r := range ix.labelRank[lo:ix.labelOff.at(v+1)] {
		if r < 64 {
			low |= 1 << r
		} else {
			m[r>>6] |= 1 << (r & 63)
		}
	}
	m[0] = low
	return lo
}

// entryAt returns the vertex and landmark rank of the entry at position p.
func (ix *Index) entryAt(p int64) (v int32, rank uint8) {
	v = int32(sort.Search(len(ix.rankOf), func(v int) bool { _, hi := ix.span(int32(v)); return hi > p }))
	var m landmarkSet
	return v, uint8(nth(m[:], p-ix.labelOf(v, &m)))
}

// chooseMask reports whether a labelling of n vertices, k landmarks and
// entries entries keeps its ranks in the mask form, sections 14 and 15,
// rather than a byte an entry beside its offsets, sections 4, 7 and 8: when
// those are fewer bytes, rank bytes on a tie.
func chooseMask(n, k int, entries int64) bool {
	bitsLen, dirLen := maskLens(n, k)
	return bitsLen+dirLen < entries+int64(n/offBlock+1)*8+int64(n+1)*2
}

// distWidths are the widths of a per-entry code or a base code, widest
// first, and excessWidths those of an excess code, narrowest first.
var (
	distWidths   = [...]uint8{8, 4, 2}
	excessWidths = [...]uint8{0, 1, 2, 4}
)

// chooseDist returns the distance form of a labelling of n vertices and
// entries entries with stats st: per-entry codes of w bits, or (perLabel)
// base codes of w bits and excess codes of wo, whichever section and
// overflow records (9 bytes each) are fewest, the wider w, then the
// narrower wo, then per-entry codes on a tie.
func chooseDist(n int, entries int64, st *distStats) (perLabel bool, w, wo uint8) {
	best := int64(math.MaxInt64)
	for _, bw := range distWidths {
		var esc int64
		for _, c := range st.entry[bw+1:] {
			esc += c
		}
		if s := distLen(entries, bw) + 9*esc; s < best {
			best, w = s, bw
		}
	}
	for _, bw := range distWidths {
		for _, ow := range excessWidths {
			if s := 2 + (int64(n)*int64(bw)+7)/8 + (entries*int64(ow)+7)/8 + 9*st.escaped(bw, ow); s < best {
				best, perLabel, w, wo = s, true, bw, ow
			}
		}
	}
	return perLabel, w, wo
}

// distLen is the length of section 12 for entries codes of w bits.
func distLen(entries int64, w uint8) int64 { return 1 + (entries*int64(w)+7)/8 }

// distCodes reads the distances out of section 12, where every label's base
// is 1, or 16: vertex v's base code at bit v·baseW of bases, entry p's code
// at bit p·codeW of codes, each escaping at its esc. An unused array is the
// section itself, read under a zero mask.
type distCodes struct {
	bases, codes             []byte
	baseW, baseMask, baseEsc uint8
	codeW, codeMask, codeEsc uint8
}

// setDist makes sect, section 12 or (perLabel) 16, ix's distances.
func (ix *Index) setDist(sect []byte, perLabel bool) {
	ix.labelDist = sect
	if w := sect[0]; !perLabel {
		ix.dist = distCodes{bases: sect, baseEsc: 0xFF, codes: sect[1:], codeW: w, codeMask: 1<<w - 1, codeEsc: 1<<w - 1}
		return
	}
	wb, wo := sect[0], sect[1]
	split := 2 + (len(ix.rankOf)*int(wb)+7)/8
	ix.dist = distCodes{bases: sect[2:split], baseW: wb, baseMask: 1<<wb - 1, baseEsc: 1<<wb - 1,
		codes: sect[split:], codeW: wo, codeMask: 1<<wo - 1, codeEsc: 0xFF}
	if wo == 0 {
		ix.dist.codes = sect
	}
}

// labelBase is what reading a label's distances takes: its base, and the
// code that escapes to overflow — 0 in an escaped label, whose codes are 0.
type labelBase struct {
	base int32
	esc  uint8
}

// distOf returns vertex v's labelBase, which distAt reads its entries with.
func (ix *Index) distOf(v int32) labelBase {
	d := &ix.dist
	bit := uint(v) * uint(d.baseW)
	if c := d.bases[bit/8] >> (bit % 8) & d.baseMask; c != d.baseEsc {
		return labelBase{base: int32(c) + 1, esc: d.codeEsc}
	}
	return labelBase{}
}

// distAt returns the distance of the entry at position p of the label l is
// of: a map lookup for an escape, which does not count against inlining
// into the query loops as a call would.
func (ix *Index) distAt(l labelBase, p int64) int32 {
	bit := uint64(p) * uint64(ix.dist.codeW)
	if c := ix.dist.codes[bit/8] >> (bit % 8) & ix.dist.codeMask; c != l.esc {
		return l.base + int32(c)
	}
	return ix.overflow[p]
}

// Label returns vertex v's label, sorted by rank, as freshly allocated
// parallel slices of landmark ranks and decoded distances.
func (ix *Index) Label(v int32) (ranks []int32, dists []int32) {
	var m landmarkSet
	lo, l := ix.labelOf(v, &m), ix.distOf(v)
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
	lo, hi := ix.span(v)
	return int(hi - lo)
}

// NumEntries returns size(L) = Σ_v |L(v)|, the labelling size measure of
// the paper (LS in Figure 3).
func (ix *Index) NumEntries() int64 {
	_, hi := ix.span(int32(len(ix.rankOf)) - 1)
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
// structures (flat label arrays — rank bytes and offsets, or rank bits and
// their directory, and distance codes —, overflow table, highway, landmark
// arrays).
func (ix *Index) ActualBytes() int64 {
	return int64(len(ix.labelOff.base)) +
		int64(len(ix.labelOff.rel)) +
		int64(len(ix.labelRank)) +
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
