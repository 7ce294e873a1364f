package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"

	"highway/internal/bfs"
	"highway/internal/container"
	"highway/internal/graph"
)

// Format identifies an on-disk index layout version.
type Format int

const (
	// FormatV1 is the original streaming layout ("HWLIDX01"): header,
	// landmarks, highway, offsets, 8-bit labels, overflow records, all
	// concatenated with no checksums. Read-only: every v1 file keeps
	// loading, none is written (`hlbuild migrate` rewrites one as v2).
	FormatV1 Format = 1
	// FormatV2 is the "HWLIDX02" section container of internal/container
	// (checksummed header and sections, unknown section ids skipped on
	// read) carrying the eight sections below. The only format written.
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
// internal/container/container.go) whose header carries n, k, Aux1 =
// entries and Aux2 = nOverflow, with these sections (same element
// encodings as v1):
//
//	1  landmarks  [k]uint32
//	2  highway    [k*k]int32
//	7  labelBase  [⌈(n+1)/256⌉]uint64  labelOff of every 256th vertex
//	8  labelRel   [n+1]uint16          labelOff[v] - labelBase[v/256]
//	4  labelRank  [entries]uint8
//	5  labelDist  [entries]uint8
//	6  overflow   nOverflow × (vertex uint32, rank uint8, dist uint32)
//	11 graph      uint32               the graph's Fingerprint
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
// An index is meaningful only beside the graph it was built on: section 11
// names that graph (graph.Fingerprint), and Read refuses the file beside
// any other; a file from before section 11 is held to the vertex count. A
// snapshot holds the graph itself, with sections 1–8 in one container.
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
	sectGraph     uint32 = 11
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
	h, sections := ix.Sections()
	fp := binary.LittleEndian.AppendUint32(nil, ix.g.Fingerprint())
	return container.WriteContainer(w, h, append(sections, container.Section{ID: sectGraph, Payload: fp}))
}

// Sections returns the container header and sections 1–8 of ix: an index
// file is these and section 11, a snapshot these beside the graph's.
func (ix *Index) Sections() (container.Header, []container.Section) {
	over := make([]byte, 0, 9*len(ix.overflow))
	for _, o := range ix.overflow {
		over = binary.LittleEndian.AppendUint32(over, uint32(o.v))
		over = append(over, o.rank)
		over = binary.LittleEndian.AppendUint32(over, uint32(o.d))
	}
	landmarks, _ := binary.Append(nil, binary.LittleEndian, ix.landmarks) // cannot fail: fixed-size values
	highway, _ := binary.Append(nil, binary.LittleEndian, ix.highway)
	h := container.Header{N: uint64(ix.g.NumVertices()), K: uint32(len(ix.landmarks)), Aux1: uint64(len(ix.labelRank)), Aux2: uint64(len(ix.overflow))}
	return h, []container.Section{
		{ID: sectLandmarks, Payload: landmarks},
		{ID: sectHighway, Payload: highway},
		{ID: sectLabelBase, Payload: ix.labelOff.base},
		{ID: sectLabelRel, Payload: ix.labelOff.rel},
		{ID: sectLabelRank, Payload: ix.labelRank},
		{ID: sectLabelDist, Payload: ix.labelDist},
		{ID: sectOverflow, Payload: over},
	}
}

// Read deserializes an index written in either format (the magic selects
// the decoder) and attaches it to g, which must be the graph the index
// was built on: its fingerprint is checked where the file records one (see
// above), and its vertex count always.
func Read(r io.Reader, g *graph.Graph) (*Index, error) {
	ix, _, err := ReadFormat(r, g)
	return ix, err
}

// ReadFormat is Read, also reporting which format the stream was in.
func ReadFormat(r io.Reader, g *graph.Graph) (*Index, Format, error) {
	// Same size as container.ReadContainer's reader, which therefore
	// reuses this one and the peeked magic is not lost.
	br := bufio.NewReaderSize(r, 64<<10)
	if magic, _ := br.Peek(len(indexMagicV1)); bytes.Equal(magic, indexMagicV1[:]) {
		br.Discard(len(indexMagicV1)) // cannot fail: those bytes were just peeked
		ix, err := readV1(br, g)
		return ix, FormatV1, err
	}
	ix, err := readV2(br, g)
	return ix, FormatV2, err
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
// (a descending pair wraps to one).
func (ix *Index) legacyOffsets(buf []byte, k uint32) error {
	if binary.LittleEndian.Uint64(buf) != 0 {
		return fmt.Errorf("core: label offsets do not start at 0")
	}
	sizes := make([]uint8, ix.g.NumVertices())
	for v := range sizes {
		size := binary.LittleEndian.Uint64(buf[v*8+8:]) - binary.LittleEndian.Uint64(buf[v*8:])
		if size > uint64(k) {
			return fmt.Errorf("core: label offsets not monotone or label of %d entries at vertex %d, k=%d", size, v, k)
		}
		sizes[v] = uint8(size)
	}
	ix.labelOff, _ = newOffsets(sizes)
	return nil
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

// readV1 reads a v1 stream — n and k, the arrays of sections 1 to 5, the
// overflow count and section 6 — as those sections, each bounded by the
// header read before it, and decodes them as v2's.
func readV1(br *bufio.Reader, g *graph.Graph) (*Index, error) {
	var head struct {
		N uint64
		K uint32
	}
	if err := binary.Read(br, binary.LittleEndian, &head); err != nil {
		return nil, err
	}
	if head.N != uint64(g.NumVertices()) {
		return nil, fmt.Errorf("core: index built for n=%d, graph has n=%d", head.N, g.NumVertices())
	}
	h := container.Header{N: head.N, K: head.K}
	sec := map[uint32]container.Section{}
	for _, id := range []uint32{sectLandmarks, sectHighway, sectLabelOff, sectLabelRank, sectLabelDist, sectOverflow} {
		switch id {
		case sectLabelRank: // the entry count is where the offsets end
			h.Aux1 = binary.LittleEndian.Uint64(sec[sectLabelOff].Payload[h.N*8:])
		case sectOverflow:
			var nOver uint32
			if err := binary.Read(br, binary.LittleEndian, &nOver); err != nil {
				return nil, err
			}
			h.Aux2 = uint64(nOver)
		}
		want, err := Bounds(h)
		if err != nil {
			return nil, err
		}
		sec[id] = container.Section{ID: id, Payload: make([]byte, want[id])}
		if _, err := io.ReadFull(br, sec[id].Payload); err != nil {
			return nil, err
		}
	}
	return FromSections(h, sec, g)
}

// readV2 decodes an HWLIDX02 container beside g, whose vertex count
// vouches for every section's length.
func readV2(br *bufio.Reader, g *graph.Graph) (*Index, error) {
	h, sec, err := container.ReadContainer(br, true, func(h container.Header) (map[uint32]uint64, error) {
		if h.N != uint64(g.NumVertices()) {
			return nil, fmt.Errorf("core: index built for n=%d, graph has n=%d", h.N, g.NumVertices())
		}
		return Bounds(h)
	})
	if err != nil {
		return nil, err
	}
	// Only files from before section 11 lack it, and no writer of those
	// wrote a section this reader skips: a skipped one is section 11 whose
	// id, which no checksum covers, was corrupted.
	for id, s := range sec {
		if _, bound := sec[sectGraph]; !bound && s.Payload == nil {
			return nil, fmt.Errorf("core: section %d unknown and section %d (the graph's fingerprint) missing", id, sectGraph)
		}
	}
	return FromSections(h, sec, g)
}

// Bounds returns the exact length of each of sections 1–8 and 11 under
// header h, after the checks that need only h.
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
	return map[uint32]uint64{
		sectLandmarks: uint64(k) * 4,
		sectHighway:   uint64(k) * uint64(k) * 4,
		sectLabelOff:  (n + 1) * 8,
		sectLabelRank: entries,
		sectLabelDist: entries,
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
	ids := []uint32{sectLandmarks, sectHighway, sectLabelBase, sectLabelRel, sectLabelRank, sectLabelDist, sectOverflow}
	legacy, isLegacy := sec[sectLabelOff]
	if isLegacy {
		ids = []uint32{sectLandmarks, sectHighway, sectLabelOff, sectLabelRank, sectLabelDist, sectOverflow}
	}
	for _, id := range ids {
		if s, ok := sec[id]; !ok {
			return nil, fmt.Errorf("core: required section %d missing", id)
		} else if uint64(len(s.Payload)) != want[id] {
			return nil, fmt.Errorf("core: section %d has length %d, want %d", id, len(s.Payload), want[id])
		}
	}
	if fp, ok := sec[sectGraph]; ok {
		if want := binary.LittleEndian.AppendUint32(nil, g.Fingerprint()); !bytes.Equal(fp.Payload, want) {
			return nil, fmt.Errorf("core: index was built on another graph of %d vertices (graph fingerprint %x, this graph's %x)", h.N, fp.Payload, want)
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
	if !isLegacy {
		ix.labelOff = offsets{base: sec[sectLabelBase].Payload, rel: sec[sectLabelRel].Payload}
	} else if err := ix.legacyOffsets(legacy.Payload, h.K); err != nil {
		return nil, err
	}
	over, err := parseOverflowRecs(sec[sectOverflow].Payload, h.N, h.K)
	if err != nil {
		return nil, err
	}
	if err := ix.adoptLabels(sec[sectLabelRank].Payload, sec[sectLabelDist].Payload, h.K, over); err != nil {
		return nil, err
	}
	return ix, nil
}

// Save writes the index to a file in format v2.
func (ix *Index) Save(path string) error { return ix.SaveAs(path, FormatV2) }

// SaveAs is Save with the format spelled out; see WriteFormat.
func (ix *Index) SaveAs(path string, f Format) error {
	return container.SaveFile(path, false, func(w io.Writer) error { return ix.WriteFormat(w, f) })
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
