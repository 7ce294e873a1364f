// Package legacy reads the layouts no server reads any more: the index
// layouts before today's (see ReadIndex), the snapshots whose labels kept
// their ranks or distances in one of them, and the HWGRAPH1 graph file and
// HWLSNAP1 checkpoint snapshot that framed a graph before it became
// container sections 9 and 10. `hlbuild migrate`, this package's one
// importer, rewrites them.
package legacy

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/bits"
	"slices"

	"highway/internal/container"
	"highway/internal/core"
	"highway/internal/graph"
)

// The magics the retired layouts of their own framing begin with.
const (
	GraphMagic    = "HWGRAPH1"
	SnapshotMagic = "HWLSNAP1"
	IndexMagicV1  = "HWLIDX01"
)

// ReadGraph decodes an HWGRAPH1 stream: the magic, n and 2m as uint64,
// then the arrays as sections 9 and 10 encode them, so their decoder
// decodes them. It reads nothing past the targets.
func ReadGraph(r io.Reader) (*graph.Graph, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("legacy: reading graph header: %w", err)
	}
	if string(hdr[:8]) != GraphMagic {
		return nil, fmt.Errorf("legacy: bad magic %q (not a %s file)", hdr[:8], GraphMagic)
	}
	n, len2m := binary.LittleEndian.Uint64(hdr[8:]), binary.LittleEndian.Uint64(hdr[16:])
	off, oerr := readArray(r, (n+1)*8) // a lying n or 2m costs what arrives, then fails FromSections
	tgt, terr := readArray(r, len2m*4)
	if err := errors.Join(oerr, terr); err != nil {
		return nil, fmt.Errorf("legacy: reading the arrays: %w", err)
	}
	return graph.FromSections(n, map[uint32]container.Section{graph.SectOffsets: off, graph.SectTargets: tgt})
}

func readArray(r io.Reader, size uint64) (container.Section, error) {
	payload, err := container.ReadN(r, size)
	return container.Section{CRC: container.Checksum(0, payload), Payload: payload}, err
}

// ReadSnapshot decodes a snapshot of a retired layout (see SnapshotLayout):
// an HWLSNAP1 stream — the magic, an HWGRAPH1 graph, then the index file of
// its labelling — or a container of the graph's sections 9 and 10 beside
// labels of a retired index layout.
func ReadSnapshot(r io.Reader) (*graph.Graph, *core.Index, error) {
	br := bufio.NewReader(r)
	if magic, _ := br.Peek(len(SnapshotMagic)); string(magic) != SnapshotMagic {
		h, sec, err := container.ReadContainer(br, false, func(h container.Header) (map[uint32]uint64, error) {
			want, err := bounds(h, h.N)
			if err == nil {
				maps.Copy(want, graph.Bounds(h.N))
			}
			return want, err
		})
		if err != nil {
			return nil, nil, fmt.Errorf("legacy: snapshot: %w", err)
		}
		if !slices.ContainsFunc(retiredLabels, func(id uint32) bool { _, ok := sec[id]; return ok }) {
			return nil, nil, fmt.Errorf("legacy: snapshot has none of sections %v: not a retired layout", retiredLabels)
		}
		g, err := graph.FromSections(h.N, sec)
		if err != nil {
			return nil, nil, err
		}
		ix, err := rebuild(h, sec, g)
		return g, ix, err
	}
	br.Discard(len(SnapshotMagic)) // cannot fail: the bytes were peeked
	g, err := ReadGraph(br)
	if err != nil {
		return nil, nil, err
	}
	ix, err := ReadIndex(br, g)
	return g, ix, err
}

// The index sections this package names: section 3 held the n+1 label
// offsets as uint64 before sections 7 and 8 (19 and 20 of a labelling that
// elides leaves) held them, one base per 256 vertices and a uint16 a
// vertex past it, beside the ranks a byte an entry in section 4 or, before
// sections 14 and 15, masks of ⌈k/8⌉ bytes a vertex in section 13; section
// 5 held one distance byte an entry before section 12 held a code of w
// bits an entry and section 16 the codes of a label; section 11, the
// graph's fingerprint, is what an index file has from the last layout with
// section 5 on.
const (
	sectLabelOff    uint32 = 3
	sectLabelRank   uint32 = 4
	sectByteDist    uint32 = 5
	sectOverflow    uint32 = 6
	sectLabelBase   uint32 = 7
	sectLabelRel    uint32 = 8
	sectGraph       uint32 = 11
	sectLabelDist   uint32 = 12
	sectLabelMask   uint32 = 13
	sectLabelBits   uint32 = 14
	sectLabelDir    uint32 = 15
	sectLabelExcess uint32 = 16
	sectLeafBits    uint32 = 17
	sectLeafDir     uint32 = 18
	sectLeafBase    uint32 = 19
	sectLeafRel     uint32 = 20
)

// retiredLabels are the label sections of which a container beside the
// graph's sections 9 and 10 holds one in a retired snapshot layout.
var retiredLabels = []uint32{sectLabelRank, sectByteDist, sectLabelDist, sectLabelMask}

// peekTable returns the first bytes of br and, when they are a container's,
// whether its table lists a section of each id asked.
func peekTable(br *bufio.Reader) (head []byte, has func(id uint32) bool) {
	head, _ = br.Peek(8 + 44 + 64*16) // the longest magic, header and table
	_, rows, err := container.ReadTable(bytes.NewReader(head))
	return head, func(id uint32) bool {
		return err == nil && slices.ContainsFunc(rows, func(r container.Row) bool { return r.ID == id })
	}
}

// IndexLayout names the retired index layout br begins with, peeking at its
// magic and section table, or returns "" for anything else: today's index
// file, a snapshot (see SnapshotLayout), or bytes that are no index file at
// all, which core.Read refuses.
func IndexLayout(br *bufio.Reader) string {
	head, has := peekTable(br)
	switch {
	case bytes.HasPrefix(head, []byte(IndexMagicV1)):
		return "format v1"
	case has(graph.SectOffsets):
		return ""
	case has(sectLabelMask):
		return "format v2, masks in section 13"
	case has(sectLabelOff):
		return "format v2, 64-bit offsets"
	case has(sectLabelRank) && !has(sectGraph):
		return "format v2, no section 11"
	case has(sectByteDist):
		return "format v2, byte distances"
	case has(sectLabelRank):
		return "format v2, rank bytes in section 4"
	case has(sectLabelDist):
		return "format v2, distance codes in section 12"
	}
	return ""
}

// SnapshotLayout names the retired snapshot layout br begins with — an
// HWLSNAP1 stream, or a container of the graph's sections beside labels
// with one of retiredLabels — or returns "".
func SnapshotLayout(br *bufio.Reader) string {
	head, has := peekTable(br)
	switch {
	case bytes.HasPrefix(head, []byte(SnapshotMagic)):
		return SnapshotMagic
	case !has(graph.SectOffsets):
		return ""
	case has(sectByteDist):
		return "snapshot, byte distances"
	case has(sectLabelMask):
		return "snapshot, masks in section 13"
	case has(sectLabelRank):
		return "snapshot, rank bytes in section 4"
	case has(sectLabelDist):
		return "snapshot, distance codes in section 12"
	}
	return ""
}

// ReadIndex reads an index file of a retired layout beside g, the graph it
// was built on, and returns the index a fresh build of its landmarks on g
// gives. Each layout holds today's sections 1, 2 and 6 in another frame,
// beside the labels in one of its forms (see frame): v1 "HWLIDX01" (the
// magic, n u64 and k u32, then sections 1, 2, 3, 4 and 5 bare, the
// overflow count u32 and section 6, with no checksums); an HWLIDX02
// container with the offsets in section 3; one with sections 7 and 8 but
// no section 11, held to its graph by n alone; one with section 11 — all
// four with one distance byte an entry (0xFF and a record for d ≥ 255) in
// section 5; one with section 12 and the ranks as masks in section 13; and
// those whose ranks are a byte an entry in section 4 or whose distances are
// codes an entry in section 12, every label kept or the leaves' elided.
// The file is accepted only if each of its sections holds what the fresh
// build's does in that layout (the overflow records in any order). By
// Lemma 3.11 the labelling of a graph and its landmarks is unique, so this
// accepts exactly g's valid files and refuses a damaged one or one built
// on another graph of the same n, at the cost of one build.
func ReadIndex(r io.Reader, g *graph.Graph) (*core.Index, error) {
	br, n := bufio.NewReader(r), uint64(g.NumVertices())
	var h container.Header
	var sec map[uint32]container.Section
	var err error
	if magic, _ := br.Peek(len(IndexMagicV1)); string(magic) == IndexMagicV1 {
		h, sec, err = readV1(br, n)
	} else {
		h, sec, err = container.ReadContainer(br, false, func(h container.Header) (map[uint32]uint64, error) { return bounds(h, n) })
	}
	if err != nil {
		return nil, err
	}
	return rebuild(h, sec, g)
}

// bounds is core.Bounds under h, with the longest sections 3, 4, 5, 7, 8,
// 12, 13, 19 and 20, beside a graph of n vertices.
func bounds(h container.Header, n uint64) (map[uint32]uint64, error) {
	if h.N != n {
		return nil, fmt.Errorf("legacy: index built for n=%d, graph has n=%d", h.N, n)
	}
	want, err := core.Bounds(h)
	if err == nil {
		maps.Copy(want, map[uint32]uint64{
			sectLabelOff: (n + 1) * 8, sectLabelRank: h.Aux1, sectByteDist: h.Aux1, sectLabelDist: 1 + h.Aux1,
			sectLabelMask: n * uint64((h.K+7)/8), sectLabelBase: (n/256 + 1) * 8, sectLabelRel: (n + 1) * 2,
			sectLeafBase: (n/256 + 1) * 8, sectLeafRel: (n + 1) * 2,
		})
	}
	return want, err
}

// readV1 reads a v1 stream section by section, each bounded by the header
// read before it: the entry count is where the offsets end, and the
// overflow count precedes section 6.
func readV1(r io.Reader, n uint64) (container.Header, map[uint32]container.Section, error) {
	var head [20]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return container.Header{}, nil, fmt.Errorf("legacy: reading v1 header: %w", err)
	}
	h := container.Header{N: binary.LittleEndian.Uint64(head[8:]), K: binary.LittleEndian.Uint32(head[16:])}
	sec := map[uint32]container.Section{}
	for _, id := range []uint32{1, 2, sectLabelOff, sectLabelRank, sectByteDist, sectOverflow} {
		switch id {
		case sectLabelRank:
			h.Aux1 = binary.LittleEndian.Uint64(sec[sectLabelOff].Payload[n*8:])
		case sectOverflow:
			var count [4]byte
			if _, err := io.ReadFull(r, count[:]); err != nil {
				return h, nil, fmt.Errorf("legacy: reading v1 overflow count: %w", err)
			}
			h.Aux2 = uint64(binary.LittleEndian.Uint32(count[:]))
		}
		want, err := bounds(h, n)
		if err != nil {
			return h, nil, err
		}
		payload, err := container.ReadN(r, want[id])
		if err != nil {
			return h, nil, fmt.Errorf("legacy: reading v1 section %d: %w", id, err)
		}
		sec[id] = container.Section{ID: id, Payload: payload}
	}
	return h, sec, nil
}

// rebuild builds the labelling of the landmarks in sec on g and returns it
// if the file of header old and sections sec holds exactly that labelling
// (see ReadIndex).
func rebuild(old container.Header, sec map[uint32]container.Section, g *graph.Graph) (*core.Index, error) {
	landmarks := make([]int32, len(sec[1].Payload)/4)
	for i := range landmarks {
		landmarks[i] = int32(binary.LittleEndian.Uint32(sec[1].Payload[i*4:]))
	}
	fresh, err := core.BuildParallel(g, landmarks)
	if err != nil {
		return nil, err
	}
	has := func(id uint32) bool { _, ok := sec[id]; return ok }
	h, sections := frame(fresh, has)
	if h != old {
		return nil, fmt.Errorf("legacy: header %+v is not a fresh build's %+v: %s", old, h, notThisIndex)
	}
	if has(sectGraph) {
		sections = append(sections, container.Section{ID: sectGraph, Payload: binary.LittleEndian.AppendUint32(nil, g.Fingerprint())})
	}
	for _, want := range sections {
		got, ok := sec[want.ID]
		if want.ID == sectOverflow && len(got.Payload)%9 == 0 { // records in CSR order, as a build writes them
			recs := slices.Collect(slices.Chunk(got.Payload, 9))
			slices.SortFunc(recs, func(a, b []byte) int {
				return cmp.Or(cmp.Compare(binary.LittleEndian.Uint32(a), binary.LittleEndian.Uint32(b)), cmp.Compare(a[4], b[4]))
			})
			got.Payload = slices.Concat(recs...)
		}
		if !ok || !bytes.Equal(got.Payload, want.Payload) {
			return nil, fmt.Errorf("legacy: section %d is missing or not a fresh build's: %s", want.ID, notThisIndex)
		}
	}
	for id := range sec { // a snapshot's graph aside, no more sections than the layout's
		if id != graph.SectOffsets && id != graph.SectTargets && !slices.ContainsFunc(sections, func(s container.Section) bool { return s.ID == id }) {
			return nil, fmt.Errorf("legacy: section %d is not one of its layout's: %s", id, notThisIndex)
		}
	}
	return fresh, nil
}

// ByteSections returns the header and sections of ix as the last writer of
// section 5 laid them out: a rank byte an entry in section 4 beside the
// offsets of sections 7 and 8, and one distance byte an entry in section 5.
func ByteSections(ix *core.Index) (container.Header, []container.Section) {
	return frame(ix, func(id uint32) bool { return id == sectLabelRank || id == sectByteDist })
}

// frame returns the header and sections 1, 2, the offsets, the ranks, the
// distances and 6 of ix as the writer of the layout whose section ids has
// reports laid them out:
//
//   - the labels of every vertex, or, with section 17 or 19, of all but its
//     leaves: those of degree one and no landmark whose neighbour is neither
//     a landmark nor of degree one;
//   - their ranks as masks of ⌈k/8⌉ bytes a label in section 13, or a byte an
//     entry in section 4, beside their offsets — the n+1 of them as uint64
//     in section 3, or one uint64 per 256 labels, the offset of the first,
//     and a uint16 a label past it in sections 7 and 8 (19 and 20) —, or as
//     k bits a label in section 14 (17) beside the set bits before each
//     block of 2¹⁶ and from there to each stride of ⌈k/64⌉ words in 15 (18);
//   - their distances as one byte an entry in section 5, 0xFF escaping at
//     d ≥ 255; or as a code of w bits an entry in section 12, d-1, the
//     all-ones code escaping; or per label in section 16 (core.Index); w and
//     wo those whose codes and 9-byte records take the fewest bytes, the
//     wider w, then the narrower wo, on a tie;
//   - a record in section 6 for each escaped entry.
func frame(ix *core.Index, has func(id uint32) bool) (container.Header, []container.Section) {
	h, today := ix.Sections()
	g, k := ix.Graph(), int(h.K)
	elided := has(sectLeafBits) || has(sectLeafBase)
	var verts []int32 // the vertices whose labels the file holds
	var ranks, dists [][]int32
	for v := range int32(h.N) {
		if nb := g.Neighbors(v); elided && len(nb) == 1 && !ix.IsLandmark(v) && !ix.IsLandmark(nb[0]) && g.Degree(nb[0]) != 1 {
			continue
		}
		r, d := ix.Label(v)
		verts, ranks, dists = append(verts, v), append(ranks, r), append(dists, d)
	}
	// The ranks and their offsets.
	size, words := (k+7)/8, (len(verts)*k+63)/64
	var base, rel, off, rank, dirBase, dirRel []byte
	mask, bitString := make([]byte, len(verts)*size), make([]byte, words*8)
	var at, blockStart uint64
	for i := 0; ; i++ {
		if i%256 == 0 {
			blockStart = at
			base = binary.LittleEndian.AppendUint64(base, at)
		}
		rel = binary.LittleEndian.AppendUint16(rel, uint16(at-blockStart))
		off = binary.LittleEndian.AppendUint64(off, at)
		if i == len(verts) {
			break
		}
		for _, r := range ranks[i] {
			rank = append(rank, byte(r))
			mask[i*size+int(r)/8] |= 1 << (r % 8)
			bit := i*k + int(r)
			bitString[bit/8] |= 1 << (bit % 8)
		}
		at += uint64(len(ranks[i]))
	}
	var total uint64 // the set bits before word w
	for w := range words {
		if w%1024 == 0 {
			dirBase = binary.LittleEndian.AppendUint64(dirBase, total)
		}
		if w%((k+63)/64) == 0 {
			dirRel = binary.LittleEndian.AppendUint16(dirRel, uint16(total-binary.LittleEndian.Uint64(dirBase[w/1024*8:])))
		}
		total += uint64(bits.OnesCount64(binary.LittleEndian.Uint64(bitString[w*8:])))
	}
	ids := [4]uint32{sectLabelBase, sectLabelRel, sectLabelBits, sectLabelDir}
	if elided {
		ids = [4]uint32{sectLeafBase, sectLeafRel, sectLeafBits, sectLeafDir}
	}
	sections := today[:2:2]
	switch {
	case has(sectLabelOff):
		sections = append(sections, container.Section{ID: sectLabelOff, Payload: off}, container.Section{ID: sectLabelRank, Payload: rank})
	case has(sectLabelMask):
		sections = append(sections, container.Section{ID: ids[0], Payload: base}, container.Section{ID: ids[1], Payload: rel}, container.Section{ID: sectLabelMask, Payload: mask})
	case has(sectLabelRank):
		sections = append(sections, container.Section{ID: ids[0], Payload: base}, container.Section{ID: ids[1], Payload: rel}, container.Section{ID: sectLabelRank, Payload: rank})
	default:
		sections = append(sections, container.Section{ID: ids[2], Payload: bitString}, container.Section{ID: ids[3], Payload: append(dirBase, dirRel...)})
	}
	// The distances and the records of those that escape.
	var over []byte
	escape := func(i, j int) {
		over = binary.LittleEndian.AppendUint32(over, uint32(verts[i]))
		over = binary.LittleEndian.AppendUint32(append(over, byte(ranks[i][j])), uint32(dists[i][j]))
	}
	var dist container.Section
	switch {
	case has(sectByteDist):
		dist.ID, dist.Payload = sectByteDist, make([]byte, 0, at)
		for i, l := range dists {
			for j, d := range l {
				if dist.Payload = append(dist.Payload, byte(min(d, 255))); d >= 255 {
					escape(i, j)
				}
			}
		}
	case has(sectLabelDist):
		w, best := 0, 0
		for _, cw := range []int{8, 4, 2} {
			bytes := int(at*uint64(cw)+7) / 8
			for _, l := range dists {
				for _, d := range l {
					if d >= 1<<cw {
						bytes += 9
					}
				}
			}
			if w == 0 || bytes < best {
				w, best = cw, bytes
			}
		}
		dist.ID, dist.Payload = sectLabelDist, append(make([]byte, 0, 1+(int(at)*w+7)/8), byte(w))
		codes := make([]int32, 0, at)
		for i, l := range dists {
			for j, d := range l {
				if codes = append(codes, min(d-1, 1<<w-1)); d >= 1<<w {
					escape(i, j)
				}
			}
		}
		dist.Payload = packBits(dist.Payload, codes, w)
	default:
		// A label escapes whole where the base does not hold its smallest
		// code, min(d-1, 255), or the excess its span.
		low, span := make([]int32, len(dists)), make([]int32, len(dists))
		for i, l := range dists {
			if len(l) > 0 {
				low[i], span[i] = min(slices.Min(l)-1, 255), slices.Max(l)-slices.Min(l)
			}
		}
		escaped := func(i, w, wo int) bool { return len(dists[i]) > 0 && (low[i] >= 1<<w-1 || span[i] >= 1<<wo) }
		var w, wo, best int
		for _, bw := range []int{8, 4, 2} {
			for _, ow := range []int{0, 1, 2, 4} {
				bytes := 2 + (len(dists)*bw+7)/8 + (int(at)*ow+7)/8
				for i, l := range dists {
					if escaped(i, bw, ow) {
						bytes += 9 * len(l)
					}
				}
				if w == 0 || bytes < best {
					w, wo, best = bw, ow, bytes
				}
			}
		}
		var bases, excess []int32
		for i, l := range dists {
			b := low[i]
			if escaped(i, w, wo) {
				b = 1<<w - 1
			}
			bases = append(bases, b)
			for j, d := range l {
				if escaped(i, w, wo) {
					escape(i, j)
					d = low[i] + 1
				}
				excess = append(excess, d-1-low[i])
			}
		}
		dist.ID, dist.Payload = sectLabelExcess, packBits(packBits([]byte{byte(w), byte(wo)}, bases, w), excess, wo)
	}
	h.Aux1, h.Aux2 = at, uint64(len(over)/9)
	return h, append(sections, dist, container.Section{ID: sectOverflow, Payload: over})
}

// packBits appends codes of w bits, LSB first, to dst, the padding bits 0.
func packBits(dst []byte, codes []int32, w int) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, (len(codes)*w+7)/8)...)
	for i, c := range codes {
		for b := range w {
			dst[start+(i*w+b)/8] |= byte(c>>b&1) << ((i*w + b) % 8)
		}
	}
	return dst
}

// notThisIndex ends the error of a file that is not the labelling of its
// landmarks on the graph given.
const notThisIndex = "the file is damaged or was built on another graph"
