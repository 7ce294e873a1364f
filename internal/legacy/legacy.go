// Package legacy reads the index files and checkpoints of the layout
// d2d3576 retired, which core refuses: label ranks a byte an entry in
// section 4 or distances a code an entry in section 12. `hlbuild migrate`,
// this package's one importer, rewrites them. Every older layout — v1,
// sections 3, 5 and 13, an index file without section 11, HWGRAPH1 and
// HWLSNAP1 — is refused by the container reader or core, in one line
// naming the last release whose migrate reads it (container.OldRelease).
package legacy

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"math/bits"
	"slices"

	"highway/internal/container"
	"highway/internal/core"
	"highway/internal/graph"
)

// The sections this package names: the ranks a byte an entry in section
// 4, beside their offsets in sections 7 and 8 (19 and 20 of a labelling
// that elides leaves), one base per 256 labels and a uint16 a label past
// it, where sections 14 and 15 (17 and 18) are now; the distances a code
// of w bits an entry in section 12, where section 16 is now; and section
// 11, the graph's fingerprint, which an index file of these layouts has.
const (
	sectLabelRank   uint32 = 4
	sectOverflow    uint32 = 6
	sectLabelBase   uint32 = 7
	sectLabelRel    uint32 = 8
	sectGraph       uint32 = 11
	sectLabelDist   uint32 = 12
	sectLabelBits   uint32 = 14
	sectLabelDir    uint32 = 15
	sectLabelExcess uint32 = 16
	sectLeafBits    uint32 = 17
	sectLeafDir     uint32 = 18
	sectLeafBase    uint32 = 19
	sectLeafRel     uint32 = 20
)

// dropped are the label sections of the older layouts, which core refuses
// with the line naming the release that reads them: the offsets as uint64
// (3), a distance byte an entry (5) and the ranks as masks of ⌈k/8⌉ bytes
// a vertex (13).
var dropped = []uint32{3, 5, 13}

// Layout names what br begins with, peeking at its magic and section
// table: "format v2, rank bytes in section 4" or "format v2, distance
// codes in section 12" for an index file this package reads, the same
// after "snapshot" for a checkpoint of those labels beside the graph's
// sections 9 and 10, "snapshot" for any other container of the graph
// (serve reads or refuses it), and "" for anything else: today's index
// file, an older one, or bytes that are no container at all, which
// core.Read reads or refuses.
func Layout(br *bufio.Reader) string {
	head, _ := br.Peek(8 + 44 + 64*16) // the magic, header and a table of 64 rows
	_, rows, err := container.ReadTable(bytes.NewReader(head))
	has := func(id uint32) bool {
		return err == nil && slices.ContainsFunc(rows, func(r container.Row) bool { return r.ID == id })
	}
	labels := ""
	switch {
	case slices.ContainsFunc(dropped, has):
	case has(sectLabelRank):
		labels = ", rank bytes in section 4"
	case has(sectLabelDist):
		labels = ", distance codes in section 12"
	}
	switch {
	case has(graph.SectOffsets) && has(graph.SectTargets):
		return "snapshot" + labels
	case has(sectGraph) && labels != "":
		return "format v2" + labels
	}
	return ""
}

// ReadSnapshot decodes a checkpoint Layout names "snapshot, …": the
// graph's sections 9 and 10 beside labels with section 4 or 12.
func ReadSnapshot(r io.Reader) (*graph.Graph, *core.Index, error) {
	h, sec, err := container.ReadContainer(r, false, func(h container.Header) (map[uint32]uint64, error) {
		want, err := bounds(h, h.N)
		if err == nil {
			maps.Copy(want, graph.Bounds(h.N))
		}
		return want, err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("legacy: snapshot: %w", err)
	}
	g, err := graph.FromSections(h.N, sec)
	if err != nil {
		return nil, nil, err
	}
	ix, err := rebuild(h, sec, g)
	return g, ix, err
}

// ReadIndex reads an index file of the layouts Layout names beside g, the
// graph it was built on, and returns the index a fresh build of its
// landmarks on g gives. Each holds today's sections 1, 2, 6 and 11 beside
// the labels in one of the forms frame lays out. The file is accepted only
// if each of its sections holds what the fresh build's does in that layout.
// By Lemma 3.11 the labelling of a graph and its landmarks is unique, so
// this accepts exactly g's valid files and refuses a damaged one or one
// built on another graph, at the cost of one build.
func ReadIndex(r io.Reader, g *graph.Graph) (*core.Index, error) {
	n := uint64(g.NumVertices())
	h, sec, err := container.ReadContainer(r, false, func(h container.Header) (map[uint32]uint64, error) { return bounds(h, n) })
	if err != nil {
		return nil, err
	}
	return rebuild(h, sec, g)
}

// bounds is core.Bounds under h, with the longest sections 4, 7, 8, 12,
// 19 and 20, beside a graph of n vertices.
func bounds(h container.Header, n uint64) (map[uint32]uint64, error) {
	if h.N != n {
		return nil, fmt.Errorf("legacy: index built for n=%d, graph has n=%d", h.N, n)
	}
	want, err := core.Bounds(h)
	if err == nil {
		maps.Copy(want, map[uint32]uint64{
			sectLabelRank: h.Aux1, sectLabelDist: 1 + h.Aux1, sectLabelBase: (n/256 + 1) * 8, sectLabelRel: (n + 1) * 2,
			sectLeafBase: (n/256 + 1) * 8, sectLeafRel: (n + 1) * 2,
		})
	}
	return want, err
}

// rebuild builds the labelling of the landmarks in sec on g and returns it
// if the file of header old and sections sec holds exactly that labelling
// (see ReadIndex): an index file with section 11, or a checkpoint beside
// the graph's sections without it.
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
	if !has(graph.SectOffsets) {
		sections = append(sections, container.Section{ID: sectGraph, Payload: binary.LittleEndian.AppendUint32(nil, g.Fingerprint())})
	}
	for _, want := range sections {
		if got, ok := sec[want.ID]; !ok || !bytes.Equal(got.Payload, want.Payload) {
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

// frame returns the header and sections 1, 2, the ranks, the distances
// and 6 of ix as the writer of the layout whose section ids has reports
// laid them out:
//
//   - the labels of every vertex, or, with section 17 or 19, of all but its
//     leaves: those of degree one and no landmark whose neighbour is neither
//     a landmark nor of degree one;
//   - their ranks a byte an entry in section 4 beside their offsets, one
//     uint64 per 256 labels, the offset of the first, and a uint16 a label
//     past it in sections 7 and 8 (19 and 20); or as k bits a label in
//     section 14 (17) beside the set bits before each block of 2¹⁶ and from
//     there to each stride of ⌈k/64⌉ words in 15 (18);
//   - their distances as a code of w bits an entry in section 12, d-1, the
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
	words := (len(verts)*k + 63) / 64
	var base, rel, rank, dirBase, dirRel []byte
	bitString := make([]byte, words*8)
	var at, blockStart uint64
	for i := 0; ; i++ {
		if i%256 == 0 {
			blockStart = at
			base = binary.LittleEndian.AppendUint64(base, at)
		}
		rel = binary.LittleEndian.AppendUint16(rel, uint16(at-blockStart))
		if i == len(verts) {
			break
		}
		for _, r := range ranks[i] {
			rank = append(rank, byte(r))
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
	if has(sectLabelRank) {
		sections = append(sections, container.Section{ID: ids[0], Payload: base}, container.Section{ID: ids[1], Payload: rel}, container.Section{ID: sectLabelRank, Payload: rank})
	} else {
		sections = append(sections, container.Section{ID: ids[2], Payload: bitString}, container.Section{ID: ids[3], Payload: append(dirBase, dirRel...)})
	}
	// The distances and the records of those that escape.
	var over []byte
	escape := func(i, j int) {
		over = binary.LittleEndian.AppendUint32(over, uint32(verts[i]))
		over = binary.LittleEndian.AppendUint32(append(over, byte(ranks[i][j])), uint32(dists[i][j]))
	}
	var dist container.Section
	if has(sectLabelDist) {
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
	} else {
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
