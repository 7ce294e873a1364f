package core

import (
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
//	4  labelRank  [entries]uint8
//	5  labelDist  [entries]uint8       (0xFF = see overflow)
//	6  overflow   nOverflow × (vertex uint32, rank uint8, dist uint32), CSR order
//	11 graph      uint32               the graph's Fingerprint
//
// Every section's exact length follows from the header, so the reader
// bounds each allocation before making it.
//
// Sections 7, 8, 4 and 5 are Index.labelOff, labelRank and labelDist:
// Write hands the four arrays to the container as they are, and a reader,
// once adoptLabels has checked them, keeps the buffers it read them into.
// Only the small sections are translated: the landmarks and highway
// between their integer types and little-endian bytes, and the overflow
// table — empty on every complex network — between its records and
// section 6's 9-byte rows.
//
// An index is meaningful only beside the graph it was built on: section 11
// names that graph (graph.Fingerprint), and Read refuses a file that lacks
// it or names another. A snapshot holds the graph itself, with sections 1,
// 2 and 4–8 in one container and no section 11.
//
// This is the one layout read. The older ones — v1 "HWLIDX01", v2 with the
// offsets as uint64 in section 3, v2 without section 11 — are refused with
// one line naming `hlbuild migrate`, which reads them (internal/legacy).
const (
	sectLandmarks uint32 = 1
	sectHighway   uint32 = 2
	sectLabelRank uint32 = 4
	sectLabelDist uint32 = 5
	sectOverflow  uint32 = 6
	sectLabelBase uint32 = 7
	sectLabelRel  uint32 = 8
	sectGraph     uint32 = 11
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

// Sections returns the container header and sections 1, 2 and 4–8 of ix:
// an index file is these and section 11, a snapshot these beside the
// graph's.
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

// adoptLabels makes the offsets already in ix.labelOff, the two label
// sections of a file and its overflow records the index's label storage,
// after the checks that make them safe to query. The offsets start at 0,
// never step back or by more than k, restart their uint16 at every block
// and end at the length of the label sections; the ranks of every label
// ascend strictly and stay below k, which the merge in UpperBound stands on;
// and the escaped entries and the records pair up one to one. Our
// writers emit records in CSR order, but any order is accepted; a record
// for a non-escaped entry, an escaped entry without a record and two
// records for one entry are corruption and rejected.
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

// Bounds returns the exact length of each of sections 1, 2, 4–8 and 11 under
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
	for _, id := range []uint32{sectLandmarks, sectHighway, sectLabelBase, sectLabelRel, sectLabelRank, sectLabelDist, sectOverflow} {
		if s, ok := sec[id]; !ok {
			return nil, fmt.Errorf("core: required section %d missing", id)
		} else if uint64(len(s.Payload)) != want[id] {
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
	ix.labelOff = offsets{base: sec[sectLabelBase].Payload, rel: sec[sectLabelRel].Payload}
	over, err := parseOverflowRecs(sec[sectOverflow].Payload, h.N, h.K)
	if err != nil {
		return nil, err
	}
	if err := ix.adoptLabels(sec[sectLabelRank].Payload, sec[sectLabelDist].Payload, h.K, over); err != nil {
		return nil, err
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
