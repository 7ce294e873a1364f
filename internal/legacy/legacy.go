// Package legacy reads the layouts no server reads any more: the five
// index layouts before today's (see ReadIndex), the snapshots whose labels
// kept one distance byte an entry or masks in section 13, and the HWGRAPH1
// graph file and HWLSNAP1 checkpoint snapshot that framed a graph before it
// became container sections 9 and 10. `hlbuild migrate`, this package's
// one importer, rewrites them.
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
// labels of one distance byte an entry, or with masks in section 13.
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
		_, byteDist := sec[sectByteDist]
		if _, masks := sec[sectLabelMask]; !byteDist && !masks {
			return nil, nil, fmt.Errorf("legacy: snapshot has no section %d or %d: not a retired layout", sectByteDist, sectLabelMask)
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
// offsets as uint64 before sections 7 and 8, section 5 one distance byte an
// entry before section 12, section 13 masks of ⌈k/8⌉ bytes a vertex beside
// sections 7 and 8 before sections 14 and 15, section 12 per-entry codes of
// every labelling before section 16 held some per label, and section 11, the
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
)

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
	case !has(sectLabelRank):
		return ""
	case has(sectLabelOff):
		return "format v2, 64-bit offsets"
	case !has(sectGraph):
		return "format v2, no section 11"
	case has(sectByteDist):
		return "format v2, byte distances"
	}
	return ""
}

// SnapshotLayout names the retired snapshot layout br begins with — an
// HWLSNAP1 stream, or a container of the graph's sections beside labels of
// one distance byte an entry or with masks in section 13 — or returns "".
func SnapshotLayout(br *bufio.Reader) string {
	head, has := peekTable(br)
	switch {
	case bytes.HasPrefix(head, []byte(SnapshotMagic)):
		return SnapshotMagic
	case has(graph.SectOffsets) && has(sectByteDist):
		return "snapshot, byte distances"
	case has(graph.SectOffsets) && has(sectLabelMask):
		return "snapshot, masks in section 13"
	}
	return ""
}

// ReadIndex reads an index file of a retired layout beside g, the graph it
// was built on, and returns the index a fresh build of its landmarks on g
// gives. Each layout holds today's sections 1, 2 and 6, and the offsets
// of sections 7 and 8 (or 3) beside the ranks in section 4 or 13, in
// another frame: v1 "HWLIDX01" (the magic, n u64 and k u32, then sections
// 1, 2, 3 — labelOff [n+1]uint64 —, 4 and 5 bare, the overflow count u32
// and section 6, with no checksums); an HWLIDX02 container with the
// offsets in section 3; one with sections 7 and 8 but no section 11, held
// to its graph by n alone; and one with section 11 — all four with one
// distance byte an entry (0xFF and a record for d ≥ 255) in section 5
// where section 12 is now; and one with section 12 and the ranks as masks
// of ⌈k/8⌉ bytes a vertex in section 13 where sections 14 and 15 are now.
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

// bounds is core.Bounds under h, with the lengths of sections 3, 5 and 13,
// beside a graph of n vertices.
func bounds(h container.Header, n uint64) (map[uint32]uint64, error) {
	if h.N != n {
		return nil, fmt.Errorf("legacy: index built for n=%d, graph has n=%d", h.N, n)
	}
	want, err := core.Bounds(h)
	if err == nil {
		want[sectLabelOff] = (n + 1) * 8
		want[sectByteDist] = h.Aux1
		want[sectLabelMask] = n * uint64((h.K+7)/8)
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
	h, sections := ByteSections(fresh)
	if _, ok := sec[sectLabelMask]; ok {
		h, sections = offsetSections(fresh, true)
	}
	if h != old {
		return nil, fmt.Errorf("legacy: header %+v is not a fresh build's %+v: %s", old, h, notThisIndex)
	}
	if _, ok := sec[sectLabelOff]; ok { // the offsets as the last writer of section 3 wrote them
		off := make([]byte, 8, (h.N+1)*8)
		var at uint64
		for v := range int32(h.N) {
			at += uint64(fresh.LabelSize(v))
			off = binary.LittleEndian.AppendUint64(off, at)
		}
		sections = slices.DeleteFunc(sections, func(s container.Section) bool { return s.ID == sectLabelBase || s.ID == sectLabelRel })
		sections = append(sections, container.Section{ID: sectLabelOff, Payload: off})
	}
	if _, ok := sec[sectGraph]; ok {
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
	return fresh, nil
}

// ByteSections returns the header and sections 1, 2, 4–8 of ix as the last
// writer of section 5 laid them out: the offsets in sections 7 and 8 and a
// rank byte an entry in section 4 whatever the form ix keeps its ranks in,
// one distance byte an entry in section 5, and 0xFF there and a record in
// section 6 for each distance ≥ 255. ReadIndex holds a file to them, and
// tests frame retired files with them.
func ByteSections(ix *core.Index) (container.Header, []container.Section) {
	h, sections := offsetSections(ix, false)
	dist := make([]byte, 0, h.Aux1)
	var over []byte
	for v := range int32(h.N) {
		ranks, dists := ix.Label(v)
		for i, d := range dists {
			dist = append(dist, byte(min(d, 255)))
			if d >= 255 {
				over = binary.LittleEndian.AppendUint32(over, uint32(v))
				over = binary.LittleEndian.AppendUint32(append(over, byte(ranks[i])), uint32(d))
			}
		}
	}
	h.Aux2 = uint64(len(over) / 9)
	for i, s := range sections {
		switch s.ID {
		case sectLabelDist:
			sections[i] = container.Section{ID: sectByteDist, Payload: dist}
		case sectOverflow:
			sections[i].Payload = over
		}
	}
	return h, sections
}

// offsetSections returns the header and sections of ix as the writers
// before sections 14 and 15 laid them out: the offsets in sections 7 and 8
// — one uint64 per 256 vertices, the offset of the first, and one uint16 a
// vertex past it — and the ranks a byte an entry in section 4 or, with
// masks, ⌈k/8⌉ bytes a vertex in section 13, where ix's rank sections are.
func offsetSections(ix *core.Index, masks bool) (container.Header, []container.Section) {
	h, sections := codeSections(ix)
	n, size := int(h.N), int(h.K+7)/8
	var base, rel, rank []byte
	mask := make([]byte, n*size)
	var at, blockStart uint64
	for v := 0; v <= n; v++ {
		if v%256 == 0 {
			blockStart = at
			base = binary.LittleEndian.AppendUint64(base, at)
		}
		rel = binary.LittleEndian.AppendUint16(rel, uint16(at-blockStart))
		if v == n {
			break
		}
		ranks, _ := ix.Label(int32(v))
		for _, r := range ranks {
			rank = append(rank, byte(r))
			mask[v*size+int(r)/8] |= 1 << (r % 8)
		}
		at += uint64(len(ranks))
	}
	ranks := container.Section{ID: sectLabelRank, Payload: rank}
	if masks {
		ranks = container.Section{ID: sectLabelMask, Payload: mask}
	}
	var out []container.Section
	for _, s := range sections {
		switch s.ID {
		case sectLabelBase, sectLabelRel, sectLabelRank, sectLabelBits, sectLabelDir:
		case sectLabelDist: // the ranks come before it
			out = append(out, container.Section{ID: sectLabelBase, Payload: base}, container.Section{ID: sectLabelRel, Payload: rel}, ranks, s)
		default:
			out = append(out, s)
		}
	}
	return h, out
}

// codeSections returns the header and sections of ix as the writers before
// section 16 laid them out: its distances per entry in section 12, a code of
// w bits d-1, the all-ones code escaping to a record in section 6, at the w
// of 2, 4 and 8 whose codes and records take the fewest bytes, the wider on
// a tie. Tests frame the files of those writers with it.
func codeSections(ix *core.Index) (container.Header, []container.Section) {
	h, sections := ix.Sections()
	type entry struct{ v, rank, d int32 }
	var entries []entry
	for v := range int32(h.N) {
		ranks, dists := ix.Label(v)
		for i, d := range dists {
			entries = append(entries, entry{v, ranks[i], d})
		}
	}
	size := func(w int) (bytes int) {
		for _, e := range entries {
			if e.d >= 1<<w {
				bytes += 9
			}
		}
		return bytes + (len(entries)*w+7)/8
	}
	w := 8
	for _, narrower := range []int{4, 2} {
		if size(narrower) < size(w) {
			w = narrower
		}
	}
	codes, over := make([]byte, 1+(len(entries)*w+7)/8), []byte(nil)
	codes[0] = byte(w)
	for p, e := range entries {
		c := min(e.d-1, 1<<w-1)
		codes[1+p*w/8] |= byte(c) << (p * w % 8)
		if c == 1<<w-1 {
			over = binary.LittleEndian.AppendUint32(over, uint32(e.v))
			over = binary.LittleEndian.AppendUint32(append(over, byte(e.rank)), uint32(e.d))
		}
	}
	h.Aux2 = uint64(len(over) / 9)
	for i, s := range sections {
		switch s.ID {
		case sectLabelExcess:
			sections[i] = container.Section{ID: sectLabelDist, Payload: codes}
		case sectOverflow:
			sections[i].Payload = over
		}
	}
	return h, sections
}

// notThisIndex ends the error of a file that is not the labelling of its
// landmarks on the graph given.
const notThisIndex = "the file is damaged or was built on another graph"
