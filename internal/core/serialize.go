package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
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
//	14 labelBits  [⌈s·k/64⌉]uint64     bit v·k+r set iff rank r is in slot v's label, the padding bits 0
//	16 labelDist  w, wo uint8, then s codes of w bits, each label's
//	              smallest d-1 (2^w-1: see overflow for all its entries;
//	              0 for an empty label), then entries codes of wo bits,
//	              d less that smallest (0 in an escaped label), each part
//	              LSB first and its padding bits 0
//	6  overflow   nOverflow × (vertex uint32, rank uint8, dist uint32), CSR order
//	11 graph      uint32               the graph's Fingerprint
//
// A labelling that keeps every label has s = n. One that elides leaves
// (chooseLeaves) writes section 14 as 17, so that a reader from before the
// elided set refuses it for want of its rank sections; the set itself is
// derived from the graph, by writer and reader alike, and not written. A
// reader lays out again a file eliding other leaves than a build would, as
// every writer before section 17 did. w is 2, 4 or 8 and wo 0, 1, 2 or 4,
// so section 16 is 2 + ⌈s·w/8⌉ + ⌈entries·wo/8⌉ bytes long, and every other
// section's exact length follows from the header and s: the reader bounds
// each allocation by n before making it.
//
// Section 14 (or 17) and 16 are Index.labelMask's bits and labelDist:
// Write hands the arrays to the container as they are, and a reader, once
// it has checked them, keeps the buffers. The rank directory beside the
// bits (rankBits) is a function of them, so it is not written: the reader
// derives it in the pass that counts the bits, once their length is
// checked. Files written before that store it, as
//
//	15 labelDir   [⌈s·k/2¹⁶⌉]uint64    the set bits of 14 before each block of 2¹⁶, then
//	              [⌈s·k/S⌉]uint16      from its block to each stride of S = 64·⌈k/64⌉
//
// (18 beside 17), and are read as they are: the directory is checked
// against the bits and kept. A reader from before it was derived refuses a
// file without it ("required section 15 missing", 18 for one that elides
// leaves), so readers are upgraded first. Only the small sections are
// translated: the landmarks and highway between their integer types and
// little-endian bytes, and the overflow table — a few hundred records on a
// complex network — between its records and section 6's 9-byte rows.
//
// An index is meaningful only beside the graph it was built on: section 11
// names that graph (graph.Fingerprint), and Read refuses a file that lacks
// it or names another. A snapshot holds the graph itself, with sections 1,
// 2, the ranks, 16 and 6 in one container and no section 11.
//
// This layout, with its directory stored or not, is the one read. The
// older ones are refused with one line naming `hlbuild migrate`: v2 whose labels kept a rank byte an entry
// beside offsets (4, with 7 and 8 or 19 and 20) or a distance code an
// entry (12), index files and snapshots alike, which it reads
// (internal/legacy); and, naming the release whose migrate reads them
// (container.OldRelease), v2 without section 11, v2 whose labels kept one
// distance byte an entry (5) or masks of ⌈k/8⌉ bytes a vertex (13), and v1
// "HWLIDX01" (the container's magic) and v2 with the offsets as uint64 in
// section 3, neither of which has section 11. A file without section 11
// but with a section first written after it (12, or 14 to 20) is neither:
// it is damaged, and refused in one line that names no migrate.
const (
	sectLandmarks   uint32 = 1
	sectHighway     uint32 = 2
	sectLabelRank   uint32 = 4 // retired: a rank byte an entry, beside 7 and 8 or 19 and 20
	sectByteDist    uint32 = 5 // retired: one distance byte an entry
	sectOverflow    uint32 = 6
	sectLabelBase   uint32 = 7 // retired: the offsets of section 4
	sectLabelRel    uint32 = 8
	sectGraph       uint32 = 11
	sectLabelDist   uint32 = 12 // retired: a distance code an entry
	sectByteMask    uint32 = 13 // retired: ⌈k/8⌉ mask bytes a vertex beside offsets
	sectLabelBits   uint32 = 14
	sectLabelDir    uint32 = 15 // read, no longer written: the directory of 14
	sectLabelExcess uint32 = 16
	sectLeafBits    uint32 = 17 // 14 and 15 of a labelling that elides leaves
	sectLeafDir     uint32 = 18
	sectLeafBase    uint32 = 19 // retired: 7 and 8 of a labelling that elides leaves
	sectLeafRel     uint32 = 20
)

// retired are the sections of the layouts only `hlbuild migrate` reads,
// what their labels kept there, and the release whose migrate reads them
// (none named: today's).
var retired = []struct {
	ids       []uint32
	what, rel string
}{
	{[]uint32{sectByteDist}, "labels keep one distance byte an entry (section 5), a layout from before section 12", " " + container.OldRelease},
	{[]uint32{sectByteMask}, "label ranks are masks of ⌈k/8⌉ bytes a vertex beside offsets (section 13), a layout from before sections 14 and 15", " " + container.OldRelease},
	{[]uint32{sectLabelRank, sectLabelBase, sectLabelRel, sectLeafBase, sectLeafRel}, "label ranks are a byte an entry beside offsets (sections 4, 7 and 8, or 19 and 20), a layout this reader does not read", ""},
	{[]uint32{sectLabelDist}, "labels keep a distance code an entry (section 12), a layout this reader does not read", ""},
}

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
	return h, append(sections, container.Section{ID: rankIDs(ix.leaves.words != nil)[0], Payload: ix.labelMask.bits},
		container.Section{ID: sectLabelExcess, Payload: ix.labelDist}, container.Section{ID: sectOverflow, Payload: over})
}

// rankIDs returns the ids of the bits and the directory of the ranks in a
// file that elides leaves or in one that does not; only files from before
// the reader derived the directory hold the second.
func rankIDs(elided bool) [2]uint32 {
	if elided {
		return [2]uint32{sectLeafBits, sectLeafDir}
	}
	return [2]uint32{sectLabelBits, sectLabelDir}
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
	// it. So does one whose section 11 id, which no checksum covers, was
	// corrupted: a file with a section first written after 11 existed is
	// that, and no migrate reads it.
	fp := sec[sectGraph].Payload
	if fp == nil {
		for _, id := range slices.Sorted(maps.Keys(sec)) {
			if id == sectLabelDist || sectLabelBits <= id && id <= sectLeafRel {
				return nil, fmt.Errorf("core: index file is damaged: it has section %d but not section %d (the graph's fingerprint), which every writer of section %d wrote", id, sectGraph, id)
			}
		}
		return nil, fmt.Errorf("core: index file has no section %d (the graph's fingerprint): a layout from before it, rewrite the file with `hlbuild migrate -graph G -in FILE` %s", sectGraph, container.OldRelease)
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

// adoptBits makes section 14 the index's ranks once the padding bits past
// n·k are 0 and the bits number the header's entries, beside dir, their
// directory: with derive, zeros it fills in the pass that counts the bits;
// else a file's section 15, once it counts them. (A field of k bits holds
// no rank of k or more.)
func (ix *Index) adoptBits(words, dir []byte, derive bool, entries int64, k uint32) error {
	b := newRankBits(words, dir, int(k))
	ids := rankIDs(ix.leaves.words != nil)
	if pad := uint(ix.slots()) * uint(k) % 64; pad != 0 && b.word(uint(len(words))/8-1)>>pad != 0 {
		return fmt.Errorf("core: section %d has padding bits set", ids[0])
	}
	total, err := b.directory(derive)
	switch {
	case err != nil:
		err = fmt.Errorf("core: section %d does not count the ranks of section %d %w", ids[1], ids[0], err)
	case total != entries:
		err = fmt.Errorf("core: section %d holds %d ranks, the header says %d entries", ids[0], total, entries)
	}
	ix.labelMask = b
	return err
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
	ix.setDist(sect)
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
			if mask.k <= 57 && b.base != 0 && mask.near(uint(v)*mask.k) != 0 { // a label's, held
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
	return ix.adoptRecords(over, escaped)
}

// fieldLows has, for each width w of a base code, the lowest bit of every
// field of w bits of a word set.
var fieldLows = [9]uint64{2: 0x5555555555555555, 4: 0x1111111111111111, 8: 0x0101010101010101}

// adoptRecords makes over the overflow map of the escaped entries, whose
// positions escaped lists in CSR order. Our writers emit records in CSR
// order, but any order is accepted; a record for an entry that is not
// escaped, an escaped entry without a record and two records for one entry
// are corruption and rejected.
func (ix *Index) adoptRecords(over []overflowRec, escaped []int64) error {
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
	for _, p := range escaped {
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

// Bounds returns the exact length of each of sections 1, 2, 6, 11 and 14
// under header h, and of 15, which only files from before the reader
// derived the directory hold, the longest sections 17 and 18 (those of 14
// and 15 over fewer vertices) and 16 (two width bytes, a byte a vertex and
// half one an entry), after the checks that need only h.
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
		sectLabelBits:   uint64(bitsLen),
		sectLabelDir:    uint64(dirLen),
		sectLabelExcess: 2 + n + (entries+1)/2,
		sectOverflow:    nOver * 9,
		sectGraph:       4,
		sectLeafBits:    uint64(bitsLen),
		sectLeafDir:     uint64(dirLen),
	}, nil
}

// FromSections decodes the labelling sections a container reader returned
// under header h, checking what they mean, and attaches them to g. A
// section of a retired layout is refused before any is read.
func FromSections(h container.Header, sec map[uint32]container.Section, g *graph.Graph) (*Index, error) {
	want, err := Bounds(h)
	if err != nil {
		return nil, err
	}
	if h.N != uint64(g.NumVertices()) {
		return nil, fmt.Errorf("core: index built for n=%d, graph has n=%d", h.N, g.NumVertices())
	}
	for _, old := range retired {
		if slices.ContainsFunc(old.ids, func(id uint32) bool { _, ok := sec[id]; return ok }) {
			return nil, fmt.Errorf("core: %s: rewrite the file with `hlbuild migrate -graph G -in FILE` (an index file) or `hlbuild migrate -in FILE` (a checkpoint)%s", old.what, old.rel)
		}
	}
	_, mask := sec[sectLabelBits]
	_, elided := sec[sectLeafBits]
	switch {
	case mask && elided:
		return nil, fmt.Errorf("core: both section %d and section %d hold the label ranks", sectLabelBits, sectLeafBits)
	case !mask && !elided:
		return nil, fmt.Errorf("core: required section %d or %d (the label ranks) missing", sectLabelBits, sectLeafBits)
	}
	ids, other := rankIDs(elided), rankIDs(!elided)
	if _, ok := sec[other[1]]; ok {
		return nil, fmt.Errorf("core: section %d, the directory of section %d, beside section %d", other[1], other[0], ids[0])
	}
	for _, id := range []uint32{ids[0], sectLabelExcess, sectLandmarks, sectHighway, sectOverflow} {
		if _, ok := sec[id]; !ok {
			return nil, fmt.Errorf("core: required section %d missing", id)
		}
	}
	for _, id := range []uint32{sectLandmarks, sectHighway, sectOverflow} { // the lengths the header gives
		if got := uint64(len(sec[id].Payload)); got != want[id] {
			return nil, fmt.Errorf("core: section %d has length %d, want %d", id, got, want[id])
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
	// A file from before the reader derived the directory holds it too. The
	// directory is allocated only once the bits' length, which bounds it,
	// is checked.
	bitsLen, dirLen := maskLens(ix.slots(), k)
	dir, stored := sec[ids[1]]
	if got := int64(len(sec[ids[0]].Payload)); got != bitsLen {
		return nil, fmt.Errorf("core: section %d has length %d, want %d", ids[0], got, bitsLen)
	}
	if got := int64(len(dir.Payload)); stored && got != dirLen {
		return nil, fmt.Errorf("core: section %d has length %d, want %d", ids[1], got, dirLen)
	} else if !stored {
		dir.Payload = make([]byte, dirLen)
	}
	if err = ix.adoptBits(sec[ids[0]].Payload, dir.Payload, !stored, entries, h.K); err == nil {
		err = ix.adoptExcess(entries, sec[sectLabelExcess].Payload, over)
	}
	if err != nil {
		return nil, err
	}
	if ix.entries = entries; elided {
		ix.entries += cand.sum(func(v int32) int64 { return int64(ix.LabelSize(v)) })
	}
	if chooseLeaves(n, k, cand.count()) != elided {
		// Every label of a graph whose leaves a build elides, as writers
		// before sections 17 and 18 wrote them, or the other way round: laid
		// out again, it is held as a build holds it and writes what a build
		// writes.
		all, read := below(k), *ix
		ix.lay(nil, &read, &all, cand, 1)
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
