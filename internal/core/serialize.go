package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"iter"
	"maps"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"slices"

	"highway/internal/bfs"
	"highway/internal/container"
	"highway/internal/graph"
)

// Format names an index file layout. FormatV2 is the only one; the type,
// WriteFormat, SaveAs and LoadFormat are kept for benchmark/ until ROADMAP
// item 1(c) renames its calls to Write, Save and Load.
type Format int

// FormatV2 is the "HWLIDX02" section container of internal/container
// carrying the sections below: the one layout written and read. Kept for
// benchmark/ until ROADMAP item 1(c) renames its calls.
const FormatV2 Format = 2

// An index file is an HWLIDX02 container (layout: see
// internal/container/container.go) whose header carries n, k, Aux1 =
// entries and Aux2 = nOverflow, with these sections (little-endian), where
// the labels are those of the s slots, the vertices the labelling keeps a
// label for (Index, "Label storage"), and entries counts theirs:
//
//	1  landmarks  [k]uint32
//	2  highway    [k*k]int32           (-1 = Infinity)
//	7  labelBase  [⌈(s+1)/256⌉]uint64  labelOff of every 256th slot
//	8  labelRel   [s+1]uint16          labelOff[v] - labelBase[v/256]
//	4  labelRank  [entries]uint8       ranks ascending per slot; or, in their place,
//	14 labelBits  [⌈s·k/64⌉]uint64     bit v·k+r set iff rank r is in slot v's label, the padding bits 0
//	15 labelDir   [⌈s·k/2¹⁶⌉]uint64    the set bits of 14 before each block of 2¹⁶, then
//	              [⌈s·k/S⌉]uint16      from its block to each stride of S = 64·⌈k/64⌉
//	12 labelDist  w uint8, then entries codes of w bits, LSB first, the
//	              padding bits 0: d-1, or 2^w-1 = see overflow; or
//	16 labelDist  w, wo uint8, then s codes of w bits, each label's
//	              smallest d-1 (2^w-1: see overflow for all its entries;
//	              0 for an empty label), then entries codes of wo bits,
//	              d less that smallest (0 in an escaped label), each part
//	              LSB first and its padding bits 0
//	6  overflow   nOverflow × (vertex uint32, rank uint8, dist uint32), CSR order
//	11 graph      uint32               the graph's Fingerprint
//
// A labelling that keeps every label has s = n. One that elides leaves
// (chooseLeaves) writes sections 7, 8, 14 and 15 as 19, 20, 17 and 18, so
// that a reader from before the elided set refuses it for want of its rank
// sections; the set itself is derived from the graph, by writer and reader
// alike, and not written. A file holds the rank form and the distance form
// of fewer bytes, rank bytes and section 12 on a tie (chooseMask,
// chooseDist); a reader takes any, and lays out again a file with another
// rank form, with section 12, or eliding other leaves than a build would.
// w is 2, 4 or 8 and wo 0, 1, 2 or 4, so section 12 is 1 + ⌈entries·w/8⌉
// bytes long and 16 2 + ⌈s·w/8⌉ + ⌈entries·wo/8⌉, and every other
// section's exact length follows from the header and s: the reader bounds
// each allocation by n before making it.
//
// Sections 7, 8 and 4, or 14 and 15, and 12 or 16 are Index.labelOff and
// labelRank, or labelMask, and labelDist: Write hands the arrays to the
// container as they are, and a reader, once it has checked them, keeps
// the buffers. Only the small sections are translated: the landmarks and
// highway between their integer types and little-endian bytes, and the
// overflow table — a few hundred records on a complex network — between
// its records and section 6's 9-byte rows.
//
// An index is meaningful only beside the graph it was built on: section 11
// names that graph (graph.Fingerprint), and Read refuses a file that lacks
// it or names another. A snapshot holds the graph itself, with sections 1,
// 2, the ranks, the distances and 6 in one container and no section 11.
//
// This is the one layout read. The older ones — v1 "HWLIDX01", v2 with the
// offsets as uint64 in section 3, v2 without section 11, v2 with one
// distance byte an entry in section 5 where section 12 is now, and v2 with
// masks of ⌈k/8⌉ bytes a vertex beside offsets in section 13 where
// sections 14 and 15 are now, index files and snapshots alike — are refused
// with one line naming `hlbuild migrate`, which reads them
// (internal/legacy).
const (
	sectLandmarks   uint32 = 1
	sectHighway     uint32 = 2
	sectLabelRank   uint32 = 4
	sectByteDist    uint32 = 5 // retired: one distance byte an entry
	sectOverflow    uint32 = 6
	sectLabelBase   uint32 = 7
	sectLabelRel    uint32 = 8
	sectGraph       uint32 = 11
	sectLabelDist   uint32 = 12
	sectByteMask    uint32 = 13 // retired: ⌈k/8⌉ mask bytes a vertex beside offsets
	sectLabelBits   uint32 = 14
	sectLabelDir    uint32 = 15
	sectLabelExcess uint32 = 16
	sectLeafBits    uint32 = 17 // 14, 15, 7 and 8 of a labelling that elides leaves
	sectLeafDir     uint32 = 18
	sectLeafBase    uint32 = 19
	sectLeafRel     uint32 = 20
)

// Write serializes the index (without the graph) as an index file. Output
// is deterministic: the same index always produces identical bytes, which
// the golden-file test pins down.
func (ix *Index) Write(w io.Writer) error { return ix.WriteFormat(w, FormatV2) }

// WriteFormat is Write, refusing any f but FormatV2. Kept for benchmark/
// until ROADMAP item 1(c) renames its calls.
func (ix *Index) WriteFormat(w io.Writer, f Format) error {
	if f != FormatV2 {
		return fmt.Errorf("core: cannot write format %d: only v2 is written", int(f))
	}
	h, sections := ix.Sections()
	fp := binary.LittleEndian.AppendUint32(nil, ix.g.Fingerprint())
	return container.WriteContainer(w, h, append(sections, container.Section{ID: sectGraph, Payload: fp}))
}

// Sections returns the container header and sections 1, 2, the ranks, the
// distances and 6 of ix: an index file is these and section 11, a snapshot
// these beside the graph's.
func (ix *Index) Sections() (container.Header, []container.Section) {
	over := make([]byte, 0, 9*len(ix.overflow))
	for _, p := range slices.Sorted(maps.Keys(ix.overflow)) {
		v, rank := ix.entryAt(p)
		over = binary.LittleEndian.AppendUint32(over, uint32(v))
		over = append(over, rank)
		over = binary.LittleEndian.AppendUint32(over, uint32(ix.overflow[p]))
	}
	landmarks, _ := binary.Append(nil, binary.LittleEndian, ix.landmarks) // cannot fail: fixed-size values
	highway, _ := binary.Append(nil, binary.LittleEndian, ix.highway)
	h := container.Header{N: uint64(ix.g.NumVertices()), K: uint32(len(ix.landmarks)), Aux1: uint64(ix.kept()), Aux2: uint64(len(ix.overflow))}
	sections := []container.Section{{ID: sectLandmarks, Payload: landmarks}, {ID: sectHighway, Payload: highway}}
	ids := rankIDs(ix.leaves.words != nil)
	if ix.labelMask.bits != nil {
		sections = append(sections, container.Section{ID: ids[0], Payload: ix.labelMask.bits}, container.Section{ID: ids[1], Payload: ix.labelMask.dir})
	} else {
		sections = append(sections, container.Section{ID: ids[2], Payload: ix.labelOff.base},
			container.Section{ID: ids[3], Payload: ix.labelOff.rel}, container.Section{ID: sectLabelRank, Payload: ix.labelRank})
	}
	dist := sectLabelDist
	if ix.dist.baseW != 0 { // per label
		dist = sectLabelExcess
	}
	return h, append(sections, container.Section{ID: dist, Payload: ix.labelDist}, container.Section{ID: sectOverflow, Payload: over})
}

// rankIDs returns the ids of the bits and directory of the mask form and
// the block offsets and relative offsets of rank bytes, in a file that
// elides leaves or in one that does not.
func rankIDs(elided bool) [4]uint32 {
	if elided {
		return [4]uint32{sectLeafBits, sectLeafDir, sectLeafBase, sectLeafRel}
	}
	return [4]uint32{sectLabelBits, sectLabelDir, sectLabelBase, sectLabelRel}
}

// Read deserializes an index file and attaches it to g, which must be the
// graph the index was built on: the fingerprint in section 11 is checked.
func Read(r io.Reader, g *graph.Graph) (*Index, error) {
	h, sec, err := container.ReadContainer(r, true, func(h container.Header) (map[uint32]uint64, error) {
		if h.N != uint64(g.NumVertices()) {
			return nil, fmt.Errorf("core: index built for n=%d, graph has n=%d", h.N, g.NumVertices())
		}
		return Bounds(h)
	})
	if err != nil {
		return nil, err
	}
	// Every file from before section 11, section-3 files among them, lacks
	// it; so does one whose section 11 id, which no checksum covers, was
	// corrupted.
	fp := sec[sectGraph].Payload
	if fp == nil {
		return nil, fmt.Errorf("core: index file has no section %d (the graph's fingerprint): a layout from before it, rewrite the file with `hlbuild migrate -graph G -in FILE`", sectGraph)
	}
	if want := binary.LittleEndian.AppendUint32(nil, g.Fingerprint()); !bytes.Equal(fp, want) {
		return nil, fmt.Errorf("core: index was built on another graph of %d vertices (graph fingerprint %x, this graph's %x)", h.N, fp, want)
	}
	return FromSections(h, sec, g)
}

func (ix *Index) setLandmark(rank int, v int32) error {
	if v < 0 || int(v) >= ix.g.NumVertices() {
		return fmt.Errorf("core: landmark %d out of range", v)
	}
	if ix.rankOf[v] >= 0 {
		return fmt.Errorf("core: duplicate landmark %d", v)
	}
	ix.landmarks[rank] = v
	ix.rankOf[v] = int32(rank)
	ix.isLandmark[v] = true
	return nil
}

// adoptRanks makes a file's rank bytes, beside the offsets already in
// ix.labelOff, the index's ranks, after the checks that make them safe to
// query: the offsets start at 0, never step back or by more than k,
// restart their uint16 at every block and end at the header's entries,
// and the ranks of every label stay below k and ascend strictly, which is
// what labelOf stands on. Every label's ranks ascend when the only ranks
// at or below the one before them are first in their label: the walk
// counts the labels that start so, the pass after it every such rank, and
// the two must agree. (A loop over each label's ranks mispredicts its exit
// once a vertex, which doubled the time of a load.)
func (ix *Index) adoptRanks(ranks []byte, entries int64, k uint32) error {
	n, off := ix.slots(), ix.labelOff
	ix.labelRank = ranks
	var base, lo int64 // of v's block; where label v-1 starts
	var startsDown uint64
	for v := 0; v <= n; v++ {
		rel := int64(binary.LittleEndian.Uint16(off.rel[v*2:]))
		if v%offBlock == 0 {
			if base = int64(binary.LittleEndian.Uint64(off.base[v/offBlock*8:])); rel != 0 {
				return fmt.Errorf("core: label offset of vertex %d does not restart its block", v)
			}
		}
		hi := base + rel
		if v == 0 && hi != 0 {
			return fmt.Errorf("core: label offsets do not start at 0")
		}
		if hi < lo || hi-lo > int64(k) {
			return fmt.Errorf("core: label offsets not monotone or label of %d entries at vertex %d, k=%d", hi-lo, v-1, k)
		}
		if hi > entries {
			return fmt.Errorf("core: offsets pass the header's %d entries at vertex %d", entries, v-1)
		}
		if lo < hi {
			if uint32(ranks[hi-1]) >= k { // the label's highest, given that its ranks ascend
				return fmt.Errorf("core: label rank %d out of range [0,%d)", ranks[hi-1], k)
			}
			if lo > 0 {
				startsDown += stepsDown(ranks[lo-1], ranks[lo])
			}
		}
		lo = hi
	}
	if lo != entries {
		return fmt.Errorf("core: offsets claim %d entries, header says %d", lo, entries)
	}
	var down uint64
	for p := 1; p < len(ranks); p++ {
		down += stepsDown(ranks[p-1], ranks[p])
	}
	if down != startsDown {
		return fmt.Errorf("core: %d label ranks not ascending within their label", down-startsDown)
	}
	return nil
}

// adoptBits makes sections 14 and 15 the index's ranks once the directory
// counts the bits, the padding bits past n·k are 0 and the bits number the
// header's entries. (A field of k bits holds no rank of k or more.)
func (ix *Index) adoptBits(words, dir []byte, entries int64, k uint32) error {
	b := newRankBits(words, dir, int(k))
	ids := rankIDs(ix.leaves.words != nil)
	if pad := uint(ix.slots()) * uint(k) % 64; pad != 0 && b.word(uint(len(words))/8-1)>>pad != 0 {
		return fmt.Errorf("core: section %d has padding bits set", ids[0])
	}
	total, err := b.directory(false)
	switch {
	case err != nil:
		err = fmt.Errorf("core: section %d does not count the ranks of section %d %w", ids[1], ids[0], err)
	case total != entries:
		err = fmt.Errorf("core: section %d holds %d ranks, the header says %d entries", ids[0], total, entries)
	}
	ix.labelMask = b
	return err
}

// adoptDist makes a file's section 12 and overflow records the index's,
// once its ranks are: the section is a width of distWidths and the codes of
// that width, no more, no fewer and no padding bit set; no record is of a
// distance the code holds; and the escaped entries and the records pair up
// one to one (adoptRecords).
func (ix *Index) adoptDist(entries int64, dist []byte, over []overflowRec) error {
	if len(dist) == 0 {
		return fmt.Errorf("core: section %d is empty", sectLabelDist)
	}
	w := dist[0]
	if !slices.Contains(distWidths[:], w) {
		return fmt.Errorf("core: section %d has distance width %d, not 2, 4 or 8", sectLabelDist, w)
	}
	if want := distLen(entries, w); int64(len(dist)) != want {
		return fmt.Errorf("core: section %d has length %d, want %d for %d entries of %d bits", sectLabelDist, len(dist), want, entries, w)
	}
	if pad := entries * int64(w) % 8; pad != 0 && dist[len(dist)-1]>>pad != 0 {
		return fmt.Errorf("core: section %d has padding bits set", sectLabelDist)
	}
	for _, o := range over {
		if o.d < 1<<w {
			return fmt.Errorf("core: overflow record (v=%d rank=%d) of distance %d, which a %d-bit code holds", o.v, o.rank, o.d, w)
		}
	}
	ix.setDist(dist, false)
	return ix.adoptRecords(over, func(yield func(int64) bool) { // the all-ones codes
		for p := range entries {
			if bit := p * int64(w); dist[1+bit/8]>>(bit%8)&ix.dist.codeMask == ix.dist.codeMask && !yield(p) {
				return
			}
		}
	})
}

// adoptExcess makes a file's section 16 and overflow records the index's,
// once its ranks are: the section is a base width of distWidths and an
// excess width of excessWidths, then the codes of those widths, no more, no
// fewer and no padding bit set; every empty label's base code is 0, and
// every excess code in an escaped label is; and the entries of the escaped
// labels and the records pair up one to one (adoptRecords).
func (ix *Index) adoptExcess(entries int64, sect []byte, over []overflowRec) error {
	if len(sect) < 2 || !slices.Contains(distWidths[:], sect[0]) || !slices.Contains(excessWidths[:], sect[1]) {
		return fmt.Errorf("core: section %d has widths %v, not a base of 2, 4 or 8 bits and an excess of 0, 1, 2 or 4", sectLabelExcess, sect[:min(len(sect), 2)])
	}
	n, wb, wo := int64(ix.slots()), int64(sect[0]), int64(sect[1])
	baseLen := (n*wb + 7) / 8
	if want := 2 + baseLen + (entries*wo+7)/8; int64(len(sect)) != want {
		return fmt.Errorf("core: section %d has length %d, want %d for %d bases of %d bits and %d excesses of %d", sectLabelExcess, len(sect), want, n, wb, entries, wo)
	}
	if pad := n * wb % 8; pad != 0 && sect[1+baseLen]>>pad != 0 || entries*wo%8 != 0 && sect[len(sect)-1]>>(entries*wo%8) != 0 {
		return fmt.Errorf("core: section %d has padding bits set", sectLabelExcess)
	}
	ix.setDist(sect, true)
	// A code of 0 is right for any label, so only the others are looked at:
	// those a word of codes holds, found a word at a time.
	var escaped []int64
	bases, mask := ix.dist.bases, &ix.labelMask
	for at := 0; at < len(bases); at += 8 {
		var word [8]byte
		copy(word[:], bases[at:])
		nonzero := binary.LittleEndian.Uint64(word[:])
		for shift := 1; shift < int(wb); shift <<= 1 {
			nonzero |= nonzero >> shift
		}
		for nonzero &= fieldLows[wb]; nonzero != 0; nonzero &= nonzero - 1 {
			v := int32((at*8 + bits.TrailingZeros64(nonzero)) / int(wb))
			b := ix.distOf(v, 0)
			if mask.k-1 < 57 && b.base != 0 && mask.near(uint(v)*mask.k) != 0 { // a label's, held
				continue
			}
			var m landmarkSet
			lo := ix.labelOf(v, &m)
			switch {
			case m.size() == 0:
				return fmt.Errorf("core: section %d has a base code other than 0 for the empty label of vertex %d", sectLabelExcess, ix.leaves.vertex(v))
			case b.base != 0: // not escaped
				continue
			}
			for p := lo; p < lo+m.size(); p++ {
				if ix.distAt(labelBase{esc: 0xFF}, p) != 0 {
					return fmt.Errorf("core: section %d has an excess code that is not 0 in the escaped label of vertex %d", sectLabelExcess, ix.leaves.vertex(v))
				}
				escaped = append(escaped, p)
			}
		}
	}
	return ix.adoptRecords(over, slices.Values(escaped))
}

// fieldLows has, for each width w of a base code, the lowest bit of every
// field of w bits of a word set.
var fieldLows = [9]uint64{2: 0x5555555555555555, 4: 0x1111111111111111, 8: 0x0101010101010101}

// adoptRecords makes over the overflow map of the escaped entries, which
// escaped yields in CSR order. Our writers emit records in CSR order, but
// any order is accepted; a record for an entry that is not escaped, an
// escaped entry without a record and two records for one entry are
// corruption and rejected.
func (ix *Index) adoptRecords(over []overflowRec, escaped iter.Seq[int64]) error {
	slices.SortFunc(over, cmpOverflow)
	for i := 1; i < len(over); i++ {
		if cmpOverflow(over[i-1], over[i]) == 0 {
			return fmt.Errorf("core: duplicate overflow record (v=%d rank=%d)", over[i].v, over[i].rank)
		}
	}
	stray := func(o overflowRec) error {
		return fmt.Errorf("core: overflow record (v=%d rank=%d) for an entry that is not escaped", o.v, o.rank)
	}
	var found map[int64]int32
	if len(over) > 0 {
		found = make(map[int64]int32, len(over))
	}
	for p := range escaped {
		v, rank := ix.entryAt(p)
		entry, used := overflowRec{v: v, rank: rank}, len(found)
		switch {
		case used == len(over) || cmpOverflow(over[used], entry) > 0:
			return fmt.Errorf("core: missing overflow record for vertex %d rank %d", v, rank)
		case cmpOverflow(over[used], entry) < 0:
			return stray(over[used])
		}
		found[p] = over[used].d
	}
	if len(found) < len(over) {
		return stray(over[len(found)])
	}
	ix.overflow = found
	return nil
}

// stepsDown is 1 if b ≤ a and 0 otherwise, without a branch to mispredict.
func stepsDown(a, b uint8) uint64 { return uint64(int64(b)-int64(a)-1) >> 63 }

func parseOverflowRecs(buf []byte, n uint64, k uint32) ([]overflowRec, error) {
	if len(buf)%9 != 0 {
		return nil, fmt.Errorf("core: overflow section length %d not a multiple of 9", len(buf))
	}
	recs := make([]overflowRec, len(buf)/9)
	for i := range recs {
		rec := buf[i*9 : i*9+9]
		v := int32(binary.LittleEndian.Uint32(rec[0:4]))
		rank := rec[4]
		d := int32(binary.LittleEndian.Uint32(rec[5:9]))
		if v < 0 || uint64(v) >= n || uint32(rank) >= k {
			return nil, fmt.Errorf("core: bad overflow record (v=%d rank=%d d=%d)", v, rank, d)
		}
		recs[i] = overflowRec{v: v, rank: rank, d: d}
	}
	return recs, nil
}

// Bounds returns the exact length of each of sections 1, 2, 4, 6–8, 11,
// 14 and 15 under header h, the longest sections 17–20 (those of 14, 15, 7
// and 8 over fewer vertices), 12 (one width byte and a byte an entry) and
// 16 (two width bytes, a byte a vertex and half one an entry), after the
// checks that need only h.
func Bounds(h container.Header) (map[uint32]uint64, error) {
	n, k, entries, nOver := h.N, h.K, h.Aux1, h.Aux2
	switch {
	case n > math.MaxInt32 || k == 0 || k > MaxLandmarks:
		return nil, fmt.Errorf("core: index claims n=%d, k=%d", n, k)
	case entries > n*uint64(k):
		return nil, fmt.Errorf("core: implausible entry count %d", entries)
	case nOver > entries:
		return nil, fmt.Errorf("core: %d overflow records for %d entries", nOver, entries)
	}
	bitsLen, dirLen := maskLens(int(n), int(k))
	return map[uint32]uint64{
		sectLandmarks:   uint64(k) * 4,
		sectHighway:     uint64(k) * uint64(k) * 4,
		sectLabelRank:   entries,
		sectLabelBits:   uint64(bitsLen),
		sectLabelDir:    uint64(dirLen),
		sectLabelDist:   1 + entries,
		sectLabelExcess: 2 + n + (entries+1)/2,
		sectOverflow:    nOver * 9,
		sectLabelBase:   (n/offBlock + 1) * 8,
		sectLabelRel:    (n + 1) * 2,
		sectGraph:       4,
		sectLeafBits:    uint64(bitsLen),
		sectLeafDir:     uint64(dirLen),
		sectLeafBase:    (n/offBlock + 1) * 8,
		sectLeafRel:     (n + 1) * 2,
	}, nil
}

// FromSections decodes the labelling sections a container reader returned
// under header h, checking what they mean, and attaches them to g.
func FromSections(h container.Header, sec map[uint32]container.Section, g *graph.Graph) (*Index, error) {
	want, err := Bounds(h)
	if err != nil {
		return nil, err
	}
	if h.N != uint64(g.NumVertices()) {
		return nil, fmt.Errorf("core: index built for n=%d, graph has n=%d", h.N, g.NumVertices())
	}
	migrate := "rewrite the file with `hlbuild migrate -graph G -in FILE` (an index file) or `hlbuild migrate -in FILE` (a checkpoint)"
	if _, old := sec[sectByteDist]; old {
		return nil, fmt.Errorf("core: labels keep one distance byte an entry (section %d), a layout from before section %d: %s", sectByteDist, sectLabelDist, migrate)
	}
	if _, old := sec[sectByteMask]; old {
		return nil, fmt.Errorf("core: label ranks are masks of ⌈k/8⌉ bytes a vertex beside offsets (section %d), a layout from before sections %d and %d: %s", sectByteMask, sectLabelBits, sectLabelDir, migrate)
	}
	_, rankBytes := sec[sectLabelRank]
	_, mask := sec[sectLabelBits]
	_, leafMask := sec[sectLeafBits]
	_, leafOff := sec[sectLeafBase]
	_, perEntry := sec[sectLabelDist]
	_, perLabel := sec[sectLabelExcess]
	switch {
	case rankBytes && mask:
		return nil, fmt.Errorf("core: both section %d and section %d hold the label ranks", sectLabelRank, sectLabelBits)
	case leafMask && (rankBytes || mask):
		return nil, fmt.Errorf("core: both section %d and section %d or %d hold the label ranks", sectLeafBits, sectLabelRank, sectLabelBits)
	case !rankBytes && !mask && !leafMask:
		return nil, fmt.Errorf("core: required section %d or %d (the label ranks) missing", sectLabelRank, sectLabelBits)
	case perEntry && perLabel:
		return nil, fmt.Errorf("core: both section %d and section %d hold the label distances", sectLabelDist, sectLabelExcess)
	case !perEntry && !perLabel:
		return nil, fmt.Errorf("core: required section %d missing, and no section %d in its place", sectLabelDist, sectLabelExcess)
	}
	elided, mask := leafMask || rankBytes && leafOff, mask || leafMask
	ids := rankIDs(elided)
	rankSects := []uint32{ids[2], ids[3], sectLabelRank}
	if mask {
		rankSects = ids[:2]
	}
	for _, id := range append(rankSects, sectLandmarks, sectHighway, sectOverflow) {
		if s, ok := sec[id]; !ok {
			return nil, fmt.Errorf("core: required section %d missing", id)
		} else if !slices.Contains(ids[:], id) && uint64(len(s.Payload)) != want[id] {
			return nil, fmt.Errorf("core: section %d has length %d, want %d", id, len(s.Payload), want[id])
		}
	}
	// The label arrays are the buffers the sections were read into.
	ix := &Index{g: g, landmarks: make([]int32, h.K), rankOf: make([]int32, h.N), isLandmark: make([]bool, h.N), highway: make([]int32, h.K*h.K)}
	for i := range ix.rankOf {
		ix.rankOf[i] = -1
	}
	for i := range ix.landmarks {
		if err := ix.setLandmark(i, int32(binary.LittleEndian.Uint32(sec[sectLandmarks].Payload[i*4:]))); err != nil {
			return nil, err
		}
	}
	binary.Decode(sec[sectHighway].Payload, binary.LittleEndian, ix.highway) // cannot fail: the length is checked
	over, err := parseOverflowRecs(sec[sectOverflow].Payload, h.N, h.K)
	if err != nil {
		return nil, err
	}
	// The rank sections hold the labels of the vertices a file that elides
	// leaves keeps, which the graph and landmarks give.
	n, k, entries := int(h.N), int(h.K), int64(h.Aux1)
	cand := leavesOf(g, ix.isLandmark)
	if elided {
		ix.leaves = cand
		cand.readRanks(g, ix.rankOf, ix.rankOf)
	}
	bitsLen, dirLen := maskLens(ix.slots(), k)
	exact := map[uint32]int64{ids[0]: bitsLen, ids[1]: dirLen, ids[2]: int64(ix.slots()/offBlock+1) * 8, ids[3]: int64(ix.slots()+1) * 2}
	for _, id := range rankSects {
		if l, ok := exact[id]; ok && int64(len(sec[id].Payload)) != l {
			return nil, fmt.Errorf("core: section %d has length %d, want %d", id, len(sec[id].Payload), l)
		}
	}
	if mask {
		err = ix.adoptBits(sec[ids[0]].Payload, sec[ids[1]].Payload, entries, h.K)
	} else {
		ix.labelOff = offsets{base: sec[ids[2]].Payload, rel: sec[ids[3]].Payload}
		err = ix.adoptRanks(sec[sectLabelRank].Payload, entries, h.K)
	}
	switch {
	case err != nil:
	case perLabel:
		err = ix.adoptExcess(entries, sec[sectLabelExcess].Payload, over)
	default:
		err = ix.adoptDist(entries, sec[sectLabelDist].Payload, over)
	}
	if err != nil {
		return nil, err
	}
	leafEntries := cand.sum(func(v int32) int64 { return int64(ix.LabelSize(v)) })
	if ix.entries = entries; ix.leaves.words != nil {
		ix.entries += leafEntries
	}
	if perEntry || mask != chooseMask(ix.slots(), k, entries) || chooseLeaves(n, k, ix.entries, cand.count(), leafEntries) != (ix.leaves.words != nil) {
		// Rank bytes of a labelling the mask holds in fewer, as writers
		// before section 13 wrote every one, or the other way round,
		// per-entry codes, which writers before section 16 wrote for every
		// labelling, or every label of a graph whose leaves a build elides,
		// as writers before sections 17 to 20 wrote them: laid out again,
		// it is held in the chosen forms and writes what a build writes.
		all := below(k)
		l := layLabels(nil, ix, &all, cand, n, k, 1)
		ix.pack(&l, 1)
	}
	return ix, nil
}

// Save writes the index to a file.
func (ix *Index) Save(path string) error { return ix.SaveAs(path, FormatV2) }

// SaveAs is Save, refusing any f but FormatV2. Kept for benchmark/ until
// ROADMAP item 1(c) renames its calls.
func (ix *Index) SaveAs(path string, f Format) error {
	return container.SaveFile(path, false, func(w io.Writer) error { return ix.WriteFormat(w, f) })
}

// Load reads an index file and attaches it to g; see Read.
func Load(path string, g *graph.Graph) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, g)
}

// LoadFormat is Load, always reporting FormatV2. Kept for benchmark/ until
// ROADMAP item 1(c) renames its calls.
func LoadFormat(path string, g *graph.Graph) (*Index, Format, error) {
	ix, err := Load(path, g)
	return ix, FormatV2, err
}

// Verify cross-checks the index against ground-truth BFS on sample vertex
// pairs; it returns an error describing the first mismatch. Used by
// cmd/hlbuild --verify and tests.
func (ix *Index) Verify(samples int, seed int64) error {
	n := ix.g.NumVertices()
	if n == 0 {
		return nil
	}
	sr := ix.NewSearcher()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < samples; i++ {
		s := int32(rng.Intn(n))
		t := int32(rng.Intn(n))
		want := bfs.Dist(ix.g, s, t)
		if want == bfs.Unreachable {
			want = Infinity
		}
		if got := sr.Distance(s, t); got != want {
			return fmt.Errorf("core: verify: Distance(%d,%d) = %d, want %d", s, t, got, want)
		}
	}
	return nil
}
