package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"sort"

	"highway/internal/bfs"
	"highway/internal/graph"
	"highway/internal/method"
)

// Format identifies an on-disk index layout version.
type Format int

const (
	// FormatV1 is the original streaming layout ("HWLIDX01"): header,
	// landmarks, highway, offsets, 8-bit labels, overflow records, all
	// concatenated with no checksums. Read-only: every v1 file keeps
	// loading, none is written (`hlbuild migrate` rewrites one as v2).
	FormatV1 Format = 1
	// FormatV2 is the "HWLIDX02" section container of internal/method
	// (checksummed header and sections, unknown section ids skipped on
	// read) carrying the seven sections below. The only format written.
	FormatV2 Format = 2
)

func (f Format) String() string {
	switch f {
	case FormatV1:
		return "v1"
	case FormatV2:
		return "v2"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// Index binary format v1 (little-endian, "HWLIDX01"):
//
//	magic     [8]byte "HWLIDX01"
//	n         uint64
//	k         uint32
//	landmarks [k]uint32
//	highway   [k*k]int32      (-1 = Infinity)
//	labelOff  [n+1]uint64
//	labelRank [entries]uint8
//	labelDist [entries]uint8  (0xFF = see overflow)
//	nOverflow uint32
//	overflow  nOverflow × (vertex uint32, rank uint8, dist uint32), CSR order
//
// Format v2 is an HWLIDX02 container (layout: see
// internal/method/container.go) whose header carries n, k, Aux1 = entries
// and Aux2 = nOverflow, with these sections (same element encodings as v1):
//
//	1 landmarks  [k]uint32
//	2 highway    [k*k]int32
//	7 labelBase  [⌈(n+1)/256⌉]uint64  labelOff of every 256th vertex
//	8 labelRel   [n+1]uint16          labelOff[v] - labelBase[v/256]
//	4 labelRank  [entries]uint8
//	5 labelDist  [entries]uint8
//	6 overflow   nOverflow × (vertex uint32, rank uint8, dist uint32)
//
// Every section's exact length follows from the header, so the reader
// bounds each allocation before making it.
//
// Files written before sections 7 and 8 existed carry the offsets as v1
// does, in section 3 (labelOff [n+1]uint64). Like v1 they are read, never
// written: the reader converts either to base + rel once, and `hlbuild
// migrate` rewrites the file.
//
// Sections 7, 8, 4 and 5 are Index.labelOff, labelRank and labelDist:
// WriteFormat hands the four arrays to the container as they are, and a
// reader, once adoptLabels has checked them, keeps the buffers it read them
// into. Only the small sections are translated: the landmarks and highway
// between their integer types and little-endian bytes, and the overflow
// table — empty on every complex network — between its records and
// section 6's 9-byte rows.
//
// The graph itself is not embedded: an index is only meaningful together
// with the graph it was built on, and callers load/store the graph
// separately (cmd/hlbuild writes both files side by side). Read verifies
// the vertex count matches.
var indexMagicV1 = [8]byte{'H', 'W', 'L', 'I', 'D', 'X', '0', '1'}

const (
	sectLandmarks uint32 = 1
	sectHighway   uint32 = 2
	sectLabelOff  uint32 = 3 // read-only, see above
	sectLabelRank uint32 = 4
	sectLabelDist uint32 = 5
	sectOverflow  uint32 = 6
	sectLabelBase uint32 = 7
	sectLabelRel  uint32 = 8
)

// Write serializes the index (without the graph) in format v2.
func (ix *Index) Write(w io.Writer) error { return ix.WriteFormat(w, FormatV2) }

// WriteFormat serializes the index; FormatV2 is the only format written
// (v1 is read-only). Output is deterministic: the same index always
// produces identical bytes, which the golden-file test pins down.
func (ix *Index) WriteFormat(w io.Writer, f Format) error {
	if f != FormatV2 {
		return fmt.Errorf("core: cannot write format %v: only v2 is written", f)
	}
	over := make([]byte, 0, 9*len(ix.overflow))
	for _, o := range ix.overflow {
		over = binary.LittleEndian.AppendUint32(over, uint32(o.v))
		over = append(over, o.rank)
		over = binary.LittleEndian.AppendUint32(over, uint32(o.d))
	}
	h := method.Header{
		N:    uint64(ix.g.NumVertices()),
		K:    uint32(len(ix.landmarks)),
		Aux1: uint64(len(ix.labelRank)),
		Aux2: uint64(len(ix.overflow)),
	}
	return method.WriteContainer(w, h, []method.Section{
		{ID: sectLandmarks, Payload: method.AppendI32s(nil, ix.landmarks)},
		{ID: sectHighway, Payload: method.AppendI32s(nil, ix.highway)},
		{ID: sectLabelBase, Payload: ix.labelOff.base},
		{ID: sectLabelRel, Payload: ix.labelOff.rel},
		{ID: sectLabelRank, Payload: ix.labelRank},
		{ID: sectLabelDist, Payload: ix.labelDist},
		{ID: sectOverflow, Payload: over},
	})
}

// Read deserializes an index written in either format (the magic selects
// the decoder) and attaches it to g, which must be the graph the index
// was built on (the vertex count is checked; deeper mismatches surface as
// wrong distances, which Verify can detect).
func Read(r io.Reader, g *graph.Graph) (*Index, error) {
	ix, _, err := ReadFormat(r, g)
	return ix, err
}

// ReadFormat is Read, also reporting which format the stream was in.
func ReadFormat(r io.Reader, g *graph.Graph) (*Index, Format, error) {
	// Same size as method.ReadContainer's reader, which therefore reuses
	// this one and the peeked magic is not lost.
	br := bufio.NewReaderSize(r, 64<<10)
	if magic, _ := br.Peek(len(indexMagicV1)); bytes.Equal(magic, indexMagicV1[:]) {
		br.Discard(len(indexMagicV1)) // cannot fail: those bytes were just peeked
		ix, err := readV1(br, g)
		return ix, FormatV1, err
	}
	ix, err := readV2(br, g)
	return ix, FormatV2, err
}

// newIndexShell allocates an index with validated landmark bookkeeping;
// shared by both decoders. The label arrays are the buffers the caller
// reads the label sections into (adoptLabels).
func newIndexShell(g *graph.Graph, n uint64, k uint32) (*Index, error) {
	if int(n) != g.NumVertices() {
		return nil, fmt.Errorf("core: index built for n=%d, graph has n=%d", n, g.NumVertices())
	}
	if k == 0 || k > MaxLandmarks {
		return nil, fmt.Errorf("core: index claims k=%d landmarks", k)
	}
	ix := &Index{
		g:          g,
		landmarks:  make([]int32, k),
		rankOf:     make([]int32, n),
		isLandmark: make([]bool, n),
		highway:    make([]int32, int(k)*int(k)),
	}
	for i := range ix.rankOf {
		ix.rankOf[i] = -1
	}
	return ix, nil
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

// legacyOffsets converts the n+1 uint64 offsets of a v1 file or of a v2
// file's section 3 to ix.labelOff, rejecting a label of more than k entries
// (a descending pair wraps to one), which is what bounds every allocation
// sized by the total it returns.
func (ix *Index) legacyOffsets(buf []byte, k uint32) (entries int64, err error) {
	if binary.LittleEndian.Uint64(buf) != 0 {
		return 0, fmt.Errorf("core: label offsets do not start at 0")
	}
	sizes := make([]uint8, ix.g.NumVertices())
	for v := range sizes {
		size := binary.LittleEndian.Uint64(buf[v*8+8:]) - binary.LittleEndian.Uint64(buf[v*8:])
		if size > uint64(k) {
			return 0, fmt.Errorf("core: label offsets not monotone or label of %d entries at vertex %d, k=%d", size, v, k)
		}
		sizes[v] = uint8(size)
	}
	ix.labelOff, entries = newOffsets(sizes)
	return entries, nil
}

// adoptLabels makes the offsets already in ix.labelOff, the two label
// sections of a file and its overflow records the index's label storage,
// after the checks that make them safe to query. The offsets start at 0,
// never step back or by more than k, restart their uint16 at every block
// and end at the length of the label sections; the ranks of every label
// ascend strictly and stay below k, which the merge in UpperBound stands on;
// and the escaped entries and the records pair up one to one. Our
// writers emit records in CSR order, but any order is accepted (the original
// v1 reader was order-agnostic, and "v1 stays readable" includes third-party
// writers); a record for a non-escaped entry, an escaped entry without a
// record and two records for one entry are corruption and rejected.
func (ix *Index) adoptLabels(rank8, dist8 []uint8, k uint32, over []overflowRec) error {
	// The offsets, block by block. Every label's ranks ascend when the only
	// ranks at or below the one before them are first in their label: the
	// walk counts the labels that start so, the pass after it every such
	// rank, and the two must agree. (A loop over each label's ranks
	// mispredicts its exit once a vertex, which doubled the time of a load.)
	n, off := ix.g.NumVertices(), ix.labelOff
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
		if hi > int64(len(rank8)) {
			return fmt.Errorf("core: offsets pass the header's %d entries at vertex %d", len(rank8), v-1)
		}
		if lo < hi {
			if uint32(rank8[hi-1]) >= k { // the label's highest, given that its ranks ascend
				return fmt.Errorf("core: label rank %d out of range [0,%d)", rank8[hi-1], k)
			}
			if lo > 0 {
				startsDown += stepsDown(rank8[lo-1], rank8[lo])
			}
		}
		lo = hi
	}
	if lo != int64(len(rank8)) {
		return fmt.Errorf("core: offsets claim %d entries, header says %d", lo, len(rank8))
	}
	var down uint64
	for p := 1; p < len(rank8); p++ {
		down += stepsDown(rank8[p-1], rank8[p])
	}
	if down != startsDown {
		return fmt.Errorf("core: %d label ranks not ascending within their label", down-startsDown)
	}
	slices.SortFunc(over, cmpOverflow)
	for i := 1; i < len(over); i++ {
		if cmpOverflow(over[i-1], over[i]) == 0 {
			return fmt.Errorf("core: duplicate overflow record (v=%d rank=%d)", over[i].v, over[i].rank)
		}
	}
	// The escaped entries, met in CSR order, must be exactly the records.
	stray := func(o overflowRec) error {
		return fmt.Errorf("core: overflow record (v=%d rank=%d) for an entry that is not escaped", o.v, o.rank)
	}
	used := 0
	for p := 0; ; p++ {
		i := bytes.IndexByte(dist8[p:], distOverflow)
		if i < 0 {
			break
		}
		p += i
		v := sort.Search(n, func(v int) bool { return ix.labelOff.at(int32(v+1)) > int64(p) })
		entry := overflowRec{v: int32(v), rank: rank8[p]}
		switch {
		case used == len(over) || cmpOverflow(over[used], entry) > 0:
			return fmt.Errorf("core: missing overflow record for vertex %d rank %d", v, rank8[p])
		case cmpOverflow(over[used], entry) < 0:
			return stray(over[used])
		}
		used++
	}
	if used < len(over) {
		return stray(over[used])
	}
	ix.labelRank, ix.labelDist, ix.overflow = rank8, dist8, over
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
		if v < 0 || uint64(v) >= n || uint32(rank) >= k || d < int32(distOverflow) {
			return nil, fmt.Errorf("core: bad overflow record (v=%d rank=%d d=%d)", v, rank, d)
		}
		recs[i] = overflowRec{v: v, rank: rank, d: d}
	}
	return recs, nil
}

func readV1(br *bufio.Reader, g *graph.Graph) (*Index, error) {
	var b8 [8]byte
	if _, err := io.ReadFull(br, b8[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(b8[:])
	if _, err := io.ReadFull(br, b8[:4]); err != nil {
		return nil, err
	}
	k := binary.LittleEndian.Uint32(b8[:4])
	ix, err := newIndexShell(g, n, k)
	if err != nil {
		return nil, err
	}
	for i := range ix.landmarks {
		if _, err := io.ReadFull(br, b8[:4]); err != nil {
			return nil, err
		}
		if err := ix.setLandmark(i, int32(binary.LittleEndian.Uint32(b8[:4]))); err != nil {
			return nil, err
		}
	}
	for i := range ix.highway {
		if _, err := io.ReadFull(br, b8[:4]); err != nil {
			return nil, err
		}
		ix.highway[i] = int32(binary.LittleEndian.Uint32(b8[:4]))
	}
	offBuf := make([]byte, (n+1)*8)
	if _, err := io.ReadFull(br, offBuf); err != nil {
		return nil, err
	}
	entries, err := ix.legacyOffsets(offBuf, k)
	if err != nil {
		return nil, err
	}
	rank8 := make([]uint8, entries)
	dist8 := make([]uint8, entries)
	if _, err := io.ReadFull(br, rank8); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(br, dist8); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(br, b8[:4]); err != nil {
		return nil, err
	}
	nOv := binary.LittleEndian.Uint32(b8[:4])
	if int64(nOv) > entries {
		return nil, fmt.Errorf("core: %d overflow records for %d entries", nOv, entries)
	}
	ovBuf := make([]byte, int64(nOv)*9)
	if _, err := io.ReadFull(br, ovBuf); err != nil {
		return nil, err
	}
	over, err := parseOverflowRecs(ovBuf, n, k)
	if err != nil {
		return nil, err
	}
	if err := ix.adoptLabels(rank8, dist8, k, over); err != nil {
		return nil, err
	}
	return ix, nil
}

// readV2 decodes an HWLIDX02 container: the container layer checks
// framing, checksums and the per-section allocation bounds; what is left
// are the checks that need to know what the sections mean.
func readV2(br *bufio.Reader, g *graph.Graph) (*Index, error) {
	var ix *Index
	var want map[uint32]uint64 // exact byte length of every section
	h, sec, err := method.ReadContainer(br, func(h method.Header) (map[uint32]uint64, error) {
		n, k, entries, nOver := h.N, h.K, h.Aux1, h.Aux2
		var err error
		if ix, err = newIndexShell(g, n, k); err != nil {
			return nil, err
		}
		if entries > n*uint64(k) {
			return nil, fmt.Errorf("core: implausible entry count %d", entries)
		}
		if nOver > entries {
			return nil, fmt.Errorf("core: %d overflow records for %d entries", nOver, entries)
		}
		want = map[uint32]uint64{
			sectLandmarks: uint64(k) * 4,
			sectHighway:   uint64(k) * uint64(k) * 4,
			sectLabelOff:  (n + 1) * 8,
			sectLabelRank: entries,
			sectLabelDist: entries,
			sectOverflow:  nOver * 9,
			sectLabelBase: (n/offBlock + 1) * 8,
			sectLabelRel:  (n + 1) * 2,
		}
		return want, nil
	})
	if err != nil {
		return nil, err
	}
	ids := []uint32{sectLandmarks, sectHighway, sectLabelBase, sectLabelRel, sectLabelRank, sectLabelDist, sectOverflow}
	legacy, isLegacy := sec[sectLabelOff]
	if isLegacy {
		ids = []uint32{sectLandmarks, sectHighway, sectLabelOff, sectLabelRank, sectLabelDist, sectOverflow}
	}
	for _, id := range ids {
		if buf, ok := sec[id]; !ok {
			return nil, fmt.Errorf("core: required section %d missing", id)
		} else if uint64(len(buf)) != want[id] {
			return nil, fmt.Errorf("core: section %d has length %d, want %d", id, len(buf), want[id])
		}
	}
	for i := range ix.landmarks {
		if err := ix.setLandmark(i, int32(binary.LittleEndian.Uint32(sec[sectLandmarks][i*4:]))); err != nil {
			return nil, err
		}
	}
	if err := method.DecodeI32s(sec[sectHighway], ix.highway); err != nil {
		return nil, err
	}
	if !isLegacy {
		ix.labelOff = offsets{base: sec[sectLabelBase], rel: sec[sectLabelRel]}
	} else if _, err := ix.legacyOffsets(legacy, h.K); err != nil {
		return nil, err
	}
	over, err := parseOverflowRecs(sec[sectOverflow], h.N, h.K)
	if err != nil {
		return nil, err
	}
	if err := ix.adoptLabels(sec[sectLabelRank], sec[sectLabelDist], h.K, over); err != nil {
		return nil, err
	}
	return ix, nil
}

// Save writes the index to a file in format v2.
func (ix *Index) Save(path string) error { return ix.SaveAs(path, FormatV2) }

// SaveAs is Save with the format spelled out; see WriteFormat.
func (ix *Index) SaveAs(path string, f Format) error {
	return method.SaveFile(path, func(w io.Writer) error { return ix.WriteFormat(w, f) })
}

// Load reads an index file in either format and attaches it to g.
func Load(path string, g *graph.Graph) (*Index, error) {
	ix, _, err := LoadFormat(path, g)
	return ix, err
}

// LoadFormat is Load, also reporting the file's format (for tooling that
// surfaces or migrates it).
func LoadFormat(path string, g *graph.Graph) (*Index, Format, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return ReadFormat(f, g)
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
