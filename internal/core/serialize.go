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
// entries and Aux2 = nOverflow, with these sections (little-endian):
//
//	1  landmarks  [k]uint32
//	2  highway    [k*k]int32           (-1 = Infinity)
//	7  labelBase  [⌈(n+1)/256⌉]uint64  labelOff of every 256th vertex
//	8  labelRel   [n+1]uint16          labelOff[v] - labelBase[v/256]
//	4  labelRank  [entries]uint8       ranks ascending per vertex; or, in their place,
//	14 labelBits  [⌈n·k/64⌉]uint64     bit v·k+r set iff rank r is in L(v), the padding bits 0
//	15 labelDir   [⌈n·k/2¹⁶⌉]uint64    the set bits of 14 before each block of 2¹⁶, then
//	              [⌈n·k/S⌉]uint16      from its block to each stride of S = 64·⌈k/64⌉
//	12 labelDist  w uint8, then entries codes of w bits, LSB first, the
//	              padding bits 0: d-1, or 2^w-1 = see overflow
//	6  overflow   nOverflow × (vertex uint32, rank uint8, dist uint32), CSR order
//	11 graph      uint32               the graph's Fingerprint
//
// A file holds the rank form of fewer bytes, rank bytes on a tie
// (chooseMask); a reader takes either. The width w is 2, 4 or 8 (chooseWidth), so section
// 12 is 1 + ⌈entries·w/8⌉ bytes long, and every other section's exact
// length follows from the header: the reader bounds each allocation before
// making it.
//
// Sections 7, 8 and 4, or 14 and 15, and 12 are Index.labelOff and
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
// 2, the ranks, 6 and 12 in one container and no section 11.
//
// This is the one layout read. The older ones — v1 "HWLIDX01", v2 with the
// offsets as uint64 in section 3, v2 without section 11, v2 with one
// distance byte an entry in section 5 where section 12 is now, and v2 with
// masks of ⌈k/8⌉ bytes a vertex beside offsets in section 13 where
// sections 14 and 15 are now, index files and snapshots alike — are refused
// with one line naming `hlbuild migrate`, which reads them
// (internal/legacy).
const (
	sectLandmarks uint32 = 1
	sectHighway   uint32 = 2
	sectLabelRank uint32 = 4
	sectByteDist  uint32 = 5 // retired: one distance byte an entry
	sectOverflow  uint32 = 6
	sectLabelBase uint32 = 7
	sectLabelRel  uint32 = 8
	sectGraph     uint32 = 11
	sectLabelDist uint32 = 12
	sectByteMask  uint32 = 13 // retired: ⌈k/8⌉ mask bytes a vertex beside offsets
	sectLabelBits uint32 = 14
	sectLabelDir  uint32 = 15
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

// Sections returns the container header and sections 1, 2, the ranks, 6
// and 12 of ix: an index file is these and section 11, a snapshot these
// beside the graph's.
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
	h := container.Header{N: uint64(ix.g.NumVertices()), K: uint32(len(ix.landmarks)), Aux1: uint64(ix.NumEntries()), Aux2: uint64(len(ix.overflow))}
	sections := []container.Section{{ID: sectLandmarks, Payload: landmarks}, {ID: sectHighway, Payload: highway}}
	if ix.labelMask.bits != nil {
		sections = append(sections, container.Section{ID: sectLabelBits, Payload: ix.labelMask.bits}, container.Section{ID: sectLabelDir, Payload: ix.labelMask.dir})
	} else {
		sections = append(sections, container.Section{ID: sectLabelBase, Payload: ix.labelOff.base},
			container.Section{ID: sectLabelRel, Payload: ix.labelOff.rel}, container.Section{ID: sectLabelRank, Payload: ix.labelRank})
	}
	return h, append(sections, container.Section{ID: sectLabelDist, Payload: ix.labelDist}, container.Section{ID: sectOverflow, Payload: over})
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
	n, off := ix.g.NumVertices(), ix.labelOff
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
	if pad := uint(ix.g.NumVertices()) * uint(k) % 64; pad != 0 && b.word(uint(len(words))/8-1)>>pad != 0 {
		return fmt.Errorf("core: section %d has padding bits set", sectLabelBits)
	}
	total, err := b.directory(false)
	if err == nil && total != entries {
		err = fmt.Errorf("core: section %d holds %d ranks, the header says %d entries", sectLabelBits, total, entries)
	}
	ix.labelMask = b
	return err
}

// adoptDist makes a file's distance section and overflow records the
// index's, once its ranks are: the distance section is a width of
// distWidths and the codes of that width, no more, no fewer and no padding
// bit set; and the escaped entries and the records pair up one to one. Our
// writers emit records in CSR order, but any order is accepted; a record
// for a non-escaped entry, an escaped entry without a record and two
// records for one entry are corruption and rejected.
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
	slices.SortFunc(over, cmpOverflow)
	for i := 1; i < len(over); i++ {
		if cmpOverflow(over[i-1], over[i]) == 0 {
			return fmt.Errorf("core: duplicate overflow record (v=%d rank=%d)", over[i].v, over[i].rank)
		}
	}
	for _, o := range over {
		if o.d < 1<<w {
			return fmt.Errorf("core: overflow record (v=%d rank=%d) of distance %d, which a %d-bit code holds", o.v, o.rank, o.d, w)
		}
	}
	// The escaped entries, met in CSR order, must be exactly the records.
	stray := func(o overflowRec) error {
		return fmt.Errorf("core: overflow record (v=%d rank=%d) for an entry that is not escaped", o.v, o.rank)
	}
	var escaped map[int64]int32
	if len(over) > 0 {
		escaped = make(map[int64]int32, len(over))
	}
	for p := range escapes(dist) {
		v, rank := ix.entryAt(p)
		entry, used := overflowRec{v: v, rank: rank}, len(escaped)
		switch {
		case used == len(over) || cmpOverflow(over[used], entry) > 0:
			return fmt.Errorf("core: missing overflow record for vertex %d rank %d", v, rank)
		case cmpOverflow(over[used], entry) < 0:
			return stray(over[used])
		}
		escaped[p] = over[used].d
	}
	if len(escaped) < len(over) {
		return stray(over[len(escaped)])
	}
	ix.overflow = escaped
	ix.setDist(dist)
	return nil
}

// escapes yields, ascending, the positions of the all-ones codes of a
// distance section whose padding bits are 0, eight bytes at a time: in a
// word x, the code at bit i is all ones when bits i…i+w-1 are, which the
// ANDs of x with its shifts by 1, 2 and 4 gather at bit i.
func escapes(dist []byte) iter.Seq[int64] {
	w, codes := uint(dist[0]), dist[1:]
	var lowBits uint64 // bit 0 of every code in a word
	for b := uint(0); b < 64; b += w {
		lowBits |= 1 << b
	}
	return func(yield func(int64) bool) {
		for i := 0; i < len(codes); i += 8 {
			var x uint64
			if i+8 <= len(codes) {
				x = binary.LittleEndian.Uint64(codes[i:])
			} else {
				var tail [8]byte
				copy(tail[:], codes[i:])
				x = binary.LittleEndian.Uint64(tail[:])
			}
			for s := uint(1); s < w; s *= 2 {
				x &= x >> s
			}
			for x &= lowBits; x != 0; x &= x - 1 {
				if !yield(int64(i)*8/int64(w) + int64(bits.TrailingZeros64(x))/int64(w)) {
					return
				}
			}
		}
	}
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
// 14 and 15 under header h, and the longest section 12 (one width byte and
// a byte an entry), after the checks that need only h.
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
		sectLandmarks: uint64(k) * 4,
		sectHighway:   uint64(k) * uint64(k) * 4,
		sectLabelRank: entries,
		sectLabelBits: uint64(bitsLen),
		sectLabelDir:  uint64(dirLen),
		sectLabelDist: 1 + entries,
		sectOverflow:  nOver * 9,
		sectLabelBase: (n/offBlock + 1) * 8,
		sectLabelRel:  (n + 1) * 2,
		sectGraph:     4,
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
	ids := []uint32{sectLabelBase, sectLabelRel, sectLabelRank}
	switch {
	case rankBytes && mask:
		return nil, fmt.Errorf("core: both section %d and section %d hold the label ranks", sectLabelRank, sectLabelBits)
	case !rankBytes && !mask:
		return nil, fmt.Errorf("core: required section %d or %d (the label ranks) missing", sectLabelRank, sectLabelBits)
	case mask:
		ids = []uint32{sectLabelBits, sectLabelDir}
	}
	for _, id := range append(ids, sectLandmarks, sectHighway, sectLabelDist, sectOverflow) {
		if s, ok := sec[id]; !ok {
			return nil, fmt.Errorf("core: required section %d missing", id)
		} else if uint64(len(s.Payload)) != want[id] && id != sectLabelDist { // its width sets its length: see adoptDist
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
	n, k, entries := int(h.N), int(h.K), int64(h.Aux1)
	if mask {
		err = ix.adoptBits(sec[sectLabelBits].Payload, sec[sectLabelDir].Payload, entries, h.K)
	} else {
		ix.labelOff = offsets{base: sec[sectLabelBase].Payload, rel: sec[sectLabelRel].Payload}
		err = ix.adoptRanks(sec[sectLabelRank].Payload, entries, h.K)
	}
	if err == nil {
		err = ix.adoptDist(entries, sec[sectLabelDist].Payload, over)
	}
	if err != nil {
		return nil, err
	}
	if mask != chooseMask(n, k, entries) {
		// Rank bytes of a labelling the mask holds in fewer, as writers
		// before section 13 wrote every one, or the other way round: held
		// in the chosen form, it writes what a build writes.
		ix.setRanks(packRanks(n, k, 1, func(v int, m *landmarkSet) { ix.labelOf(int32(v), m) }))
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
