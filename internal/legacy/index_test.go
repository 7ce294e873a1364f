package legacy

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"highway/internal/bfs"
	"highway/internal/container"
	"highway/internal/core"
	"highway/internal/gen"
	"highway/internal/graph"
	"highway/internal/serve"
)

// build is core.Build, failing tb on error.
func build(tb testing.TB, g *graph.Graph, landmarks []int32) *core.Index {
	tb.Helper()
	ix, err := core.Build(g, landmarks)
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// leafyIndex is the index of R-MAT-12's largest component and its 16
// highest-degree vertices, which keeps no label for its leaves.
func leafyIndex(tb testing.TB) *core.Index {
	tb.Helper()
	g, _ := graph.LargestComponent(gen.RMAT(12, 8, 0.57, 0.19, 0.19, 5))
	ix := build(tb, g, g.DegreeOrder()[:16])
	if _, sections := ix.Sections(); !slices.ContainsFunc(sections, func(s container.Section) bool { return s.ID == sectLeafBits }) {
		tb.Fatal("test premise broken: R-MAT-12 keeps every label")
	}
	return ix
}

// goldenIndex is the index of the paper's running example with its
// landmark set {1,5,9}: tiny_codes.hl2 holds it with a distance code an
// entry.
func goldenIndex(tb testing.TB) *core.Index {
	return build(tb, gen.PaperFigure2(), gen.PaperLandmarks())
}

// path600 is the index whose labels need the escape: both ends of a
// 600-vertex path as landmarks, whose labels all escape per label and
// whose entries 256 hops or more from their landmark escape per entry.
func path600(tb testing.TB) *core.Index {
	return build(tb, gen.Path(600), []int32{0, 599})
}

// reframe decodes an index file of a layout frame lays out into its header
// and sections, lets edit change them, and frames those left again
// (checksums and all) in the order the writers used.
func reframe(tb testing.TB, file []byte, edit func(h *container.Header, sec map[uint32][]byte)) []byte {
	tb.Helper()
	ids := []uint32{1, 2, sectLabelBase, sectLabelRel, sectLeafBase, sectLeafRel, sectLabelRank, 5,
		sectLabelBits, sectLabelDir, sectLeafBits, sectLeafDir, sectLabelDist, sectLabelExcess, sectOverflow, sectGraph}
	h, read, err := container.ReadContainer(bytes.NewReader(file), true, func(container.Header) (map[uint32]uint64, error) {
		bounds := make(map[uint32]uint64)
		for _, id := range ids {
			bounds[id] = uint64(len(file))
		}
		return bounds, nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	sec := make(map[uint32][]byte)
	for id, s := range read {
		sec[id] = s.Payload
	}
	edit(&h, sec)
	var sections []container.Section
	for _, id := range ids {
		if payload, ok := sec[id]; ok {
			sections = append(sections, container.Section{ID: id, Payload: payload})
		}
	}
	var out bytes.Buffer
	if err := container.WriteContainer(&out, h, sections); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// framed is the file the writer of the layout of the given section ids
// wrote for ix (see frame): an index file, with section 11, or a
// checkpoint, beside the graph's sections and without it.
func framed(tb testing.TB, ix *core.Index, snapshot bool, ids ...uint32) []byte {
	tb.Helper()
	h, sections := frame(ix, func(id uint32) bool { return slices.Contains(ids, id) })
	if snapshot {
		sections = append(ix.Graph().Sections(), sections...)
	} else {
		sections = append(sections, container.Section{ID: sectGraph, Payload: binary.LittleEndian.AppendUint32(nil, ix.Graph().Fingerprint())})
	}
	var out bytes.Buffer
	if err := container.WriteContainer(&out, h, sections); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// rankBytes is the file the last writers before d2d3576 wrote for ix where
// its ranks took fewer bytes a byte an entry, beside a distance code an
// entry in section 12.
func rankBytes(tb testing.TB, ix *core.Index) []byte {
	return framed(tb, ix, false, sectLabelRank, sectLabelDist)
}

// offsetCase is one malformed section 7 or 8 with a valid checksum: an
// edit of the path-600 file (k = 2, two entries a vertex but the landmarks
// 0 and 599) as rankBytes frames it.
type offsetCase struct {
	name string
	id   uint32 // the section edited
	edit func(h *container.Header, sec map[uint32][]byte)
}

func offsetCases() []offsetCase {
	type sections = map[uint32][]byte
	add := func(sec sections, v, by int) {
		binary.LittleEndian.PutUint16(sec[sectLabelRel][v*2:], uint16(int(binary.LittleEndian.Uint16(sec[sectLabelRel][v*2:]))+by))
	}
	return []offsetCase{
		{"section 7 not starting at 0", sectLabelBase, func(_ *container.Header, sec sections) { binary.LittleEndian.PutUint64(sec[sectLabelBase], 1) }},
		{"section 7 one block short", sectLabelBase, func(_ *container.Header, sec sections) { sec[sectLabelBase] = sec[sectLabelBase][8:] }},
		{"sections 7 and 8 with one label of every entry", sectLabelBase, func(_ *container.Header, sec sections) {
			clear(sec[sectLabelBase])
			clear(sec[sectLabelRel])
			binary.LittleEndian.PutUint16(sec[sectLabelRel][600*2:], 1196)
		}},
		{"section 8 stepping back", sectLabelRel, func(_ *container.Header, sec sections) { add(sec, 300, -3) }},
		{"section 8 with a label longer than k", sectLabelRel, func(_ *container.Header, sec sections) { add(sec, 5, 1) }},
		{"section 8 not 0 at a block start", sectLabelRel, func(_ *container.Header, sec sections) { add(sec, 256, 1) }},
		{"section 8 ending below the header's entries", sectLabelRel, func(_ *container.Header, sec sections) { add(sec, 600, -1) }},
		{"section 8 one vertex short", sectLabelRel, func(_ *container.Header, sec sections) { sec[sectLabelRel] = sec[sectLabelRel][2:] }},
	}
}

// oneLine reports whether err is an error of one line that says want.
func oneLine(err error, want string) bool {
	return err != nil && strings.Contains(err.Error(), want) && !strings.Contains(err.Error(), "\n")
}

// migrates checks that raw, an index file of a retired layout built on g,
// is what Layout says it is, is refused by core.Read with the line naming
// the migration, and migrates to want's file.
func migrates(t *testing.T, raw []byte, g *graph.Graph, layout string, want *core.Index) {
	t.Helper()
	if got := Layout(bufio.NewReader(bytes.NewReader(raw))); got != layout {
		t.Fatalf("Layout = %q, want %q", got, layout)
	}
	if _, err := core.Read(bytes.NewReader(raw), g); !oneLine(err, "hlbuild migrate") {
		t.Fatalf("core.Read: %v, want one line naming hlbuild migrate", err)
	}
	ix, err := ReadIndex(bytes.NewReader(raw), g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(indexBytes(t, ix), indexBytes(t, want)) {
		t.Fatal("migrated, it differs from a fresh build's file")
	}
	if err := ix.Verify(200, 1); err != nil {
		t.Fatal(err)
	}
}

// migratesSnapshot checks that raw, a checkpoint of a retired layout, is
// what Layout says it is, is refused by serve.DecodeSnapshot with the line
// naming the migration, and migrates to the graph and labelling of want.
func migratesSnapshot(t *testing.T, raw []byte, layout string, want *core.Index) {
	t.Helper()
	if got := Layout(bufio.NewReader(bytes.NewReader(raw))); got != layout {
		t.Fatalf("Layout = %q, want %q", got, layout)
	}
	if _, _, err := serve.DecodeSnapshot(bytes.NewReader(raw)); !oneLine(err, "hlbuild migrate") {
		t.Fatalf("serve.DecodeSnapshot: %v, want one line naming hlbuild migrate", err)
	}
	g, ix, err := ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint() != want.Graph().Fingerprint() || !bytes.Equal(indexBytes(t, ix), indexBytes(t, want)) {
		t.Fatal("migrated, the checkpoint differs from the state it was written from")
	}
}

// TestPerEntryCodesLoad: every writer before section 16 kept a labelling's
// distances per entry in section 12, as did those after it where that took
// fewer bytes. BA-600 with 20 landmarks is held per label today: bases of
// 2 bits, excesses of 1 and 22 records, the entries of the labels that span
// two hops; per entry, codes of 2 bits and no record. As the last writer of
// section 12 framed it, its index file and its checkpoint are refused by
// the serving readers with the line naming `hlbuild migrate`, and migrate
// to a fresh build, which answers every pair as BFS does.
func TestPerEntryCodesLoad(t *testing.T) {
	g := gen.BarabasiAlbert(600, 4, 17)
	fresh := build(t, g, g.DegreeOrder()[:20])
	hFresh, _ := fresh.Sections()
	if h, _ := frame(fresh, func(id uint32) bool { return id == sectLabelDist }); hFresh.Aux2 != 22 || h.Aux2 != 0 {
		t.Fatalf("test premise broken: %d records per label, %d per entry", hFresh.Aux2, h.Aux2)
	}
	migrates(t, framed(t, fresh, false, sectLabelDist), g, "format v2, distance codes in section 12", fresh)
	migratesSnapshot(t, framed(t, fresh, true, sectLabelDist), "snapshot, distance codes in section 12", fresh)
	for s := range int32(g.NumVertices()) {
		for u, d := range bfs.Distances(g, s) {
			if got := fresh.Distance(s, int32(u)); got != d {
				t.Fatalf("d(%d,%d) = %d, want %d", s, u, got, d)
			}
		}
	}
}

// TestRankBytesOfDenseLabellingLoad: writers before section 13 kept every
// labelling's ranks a byte an entry in section 4. tiny_ranks.hl2 is what
// the last of them wrote for the paper's example with its three
// highest-degree vertices as landmarks, which frame gives byte for byte: it
// migrates to figure2_top3.hl2, and its checkpoint to the state it holds.
func TestRankBytesOfDenseLabellingLoad(t *testing.T) {
	g := gen.PaperFigure2()
	ix := build(t, g, g.DegreeOrder()[:3])
	old := fixture(t, "tiny_ranks.hl2")
	if !bytes.Equal(framed(t, ix, false, sectLabelRank, sectLabelDist), old) {
		t.Fatal("frame does not give the file the writers before section 13 wrote")
	}
	migrates(t, old, g, "format v2, rank bytes in section 4", ix)
	if !bytes.Equal(indexBytes(t, ix), fixture(t, "figure2_top3.hl2")) {
		t.Fatal("test premise broken: the fresh build does not write figure2_top3.hl2")
	}
	migratesSnapshot(t, framed(t, ix, true, sectLabelRank, sectLabelDist), "snapshot, rank bytes in section 4", ix)
}

// TestMigrateSection12Fixtures: tiny_codes.hl2, tiny_bits.hl2 and
// grid_ranks.hl2 are what the last writer of section 12 wrote for the
// paper's example with landmarks {1,5,9} and with its three highest-degree
// vertices, and for a 5×6 grid with its 15 highest-degree vertices, whose
// ranks it kept a byte an entry in sections 7, 8 and 4. frame gives each
// byte for byte; each is named, refused by the serving reader, and
// migrates to the fresh build's file of today (figure2.hl2,
// figure2_top3.hl2, grid.hl2); with any one byte flipped it is refused in
// one line.
func TestMigrateSection12Fixtures(t *testing.T) {
	fig, grid := gen.PaperFigure2(), gen.Grid(5, 6)
	for _, c := range []struct {
		old, want, layout string
		ix                *core.Index
		ids               []uint32
	}{
		{"tiny_codes.hl2", "figure2.hl2", "format v2, distance codes in section 12", goldenIndex(t), []uint32{sectLabelDist}},
		{"tiny_bits.hl2", "figure2_top3.hl2", "format v2, distance codes in section 12", build(t, fig, fig.DegreeOrder()[:3]), []uint32{sectLabelDist}},
		{"grid_ranks.hl2", "grid.hl2", "format v2, rank bytes in section 4", build(t, grid, grid.DegreeOrder()[:15]), []uint32{sectLabelRank, sectLabelDist}},
	} {
		t.Run(c.old, func(t *testing.T) {
			raw := fixture(t, c.old)
			if !bytes.Equal(framed(t, c.ix, false, c.ids...), raw) {
				t.Fatalf("frame does not give %s", c.old)
			}
			migrates(t, raw, c.ix.Graph(), c.layout, c.ix)
			if !bytes.Equal(indexBytes(t, c.ix), fixture(t, c.want)) {
				t.Fatalf("test premise broken: the fresh build does not write %s", c.want)
			}
			for pos := range raw {
				bad := bytes.Clone(raw)
				bad[pos] ^= 0x10
				if _, err := ReadIndex(bytes.NewReader(bad), c.ix.Graph()); err == nil || strings.Contains(err.Error(), "\n") {
					t.Fatalf("byte flip at %d: %v, want a one-line error", pos, err)
				}
			}
		})
	}
}

// TestMigrateEveryLayout: each layout a writer since section 12 produced
// with section 4 or 12 — ranks as bits in sections 14 and 15 or a byte an
// entry beside offsets in 7, 8 and 4, every label kept or, in 17 and 18 or
// 19, 20 and 4, the leaves' elided, beside distances per entry in section
// 12 or per label in 16 — migrates as an index file and as a checkpoint,
// for R-MAT-12, whose leaves today's build elides, and path-600, whose
// labels all escape.
func TestMigrateEveryLayout(t *testing.T) {
	for _, ix := range []*core.Index{leafyIndex(t), path600(t)} {
		for _, ranks := range [][]uint32{{sectLabelBits}, {sectLeafBits}, {sectLabelRank}, {sectLeafBase, sectLabelRank}} {
			for _, dist := range []uint32{sectLabelDist, sectLabelExcess} {
				ids := append(slices.Clone(ranks), dist)
				if dist == sectLabelExcess && !slices.Contains(ranks, sectLabelRank) {
					continue // today's layout
				}
				t.Run(fmt.Sprint(ix.Graph().NumVertices(), ids), func(t *testing.T) {
					layout := "distance codes in section 12"
					if slices.Contains(ranks, sectLabelRank) {
						layout = "rank bytes in section 4"
					}
					migrates(t, framed(t, ix, false, ids...), ix.Graph(), "format v2, "+layout, ix)
					migratesSnapshot(t, framed(t, ix, true, ids...), "snapshot, "+layout, ix)
				})
			}
		}
	}
}

// TestReadChecksOffsets: sections 7 and 8 are held to the offsets of a
// fresh build, and each malformed one is refused by its number.
func TestReadChecksOffsets(t *testing.T) {
	ix := path600(t)
	good := rankBytes(t, ix)
	if got, err := ReadIndex(bytes.NewReader(good), ix.Graph()); err != nil || !bytes.Equal(indexBytes(t, got), indexBytes(t, ix)) {
		t.Fatalf("the unedited file does not migrate to the index it was written from: %v", err)
	}
	for _, c := range offsetCases() {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadIndex(bytes.NewReader(reframe(t, good, c.edit)), ix.Graph())
			if want := fmt.Sprintf("section %d is missing or not a fresh build's", c.id); !oneLine(err, want) {
				t.Fatalf("ReadIndex: %v, want one line saying %q", err, want)
			}
		})
	}
}

// TestReadIndexRefusesAnotherGraph: a file of each layout ReadIndex reads
// is refused, with one line, beside another graph of the same n and m —
// what no sample of distances could promise.
func TestReadIndexRefusesAnotherGraph(t *testing.T) {
	built, other := gen.BarabasiAlbert(400, 3, 1), gen.BarabasiAlbert(400, 3, 2)
	if built.NumVertices() != other.NumVertices() || built.NumEdges() != other.NumEdges() {
		t.Fatalf("premise: %v and %v", built, other)
	}
	ix := build(t, built, built.DegreeOrder()[:8])
	for name, ids := range map[string][]uint32{"sections 4 and 12": {sectLabelRank, sectLabelDist}, "section 4": {sectLabelRank}, "section 12": {sectLabelDist}} {
		if _, err := ReadIndex(bytes.NewReader(framed(t, ix, false, ids...)), other); !oneLine(err, notThisIndex) {
			t.Errorf("%s beside another graph: %v, want one line saying %q", name, err, notThisIndex)
		}
	}
}

// FuzzReadLegacyIndex: the migration reader is total on arbitrary bytes —
// a one-line error, or exactly the index a fresh build of the landmarks it
// names gives — seeded with a file of each layout it reads, every
// malformed section 7 and 8 TestReadChecksOffsets names, and each file of
// an older layout, which it must refuse.
func FuzzReadLegacyIndex(f *testing.F) {
	path := path600(f)
	graphs := []*graph.Graph{gen.PaperFigure2(), gen.Path(300), path.Graph(), gen.Grid(5, 6)}
	good := rankBytes(f, path)
	f.Add(good)
	for _, c := range offsetCases() {
		f.Add(reframe(f, good, c.edit))
	}
	for _, name := range []string{"tiny_codes.hl2", "tiny_bits.hl2", "grid_ranks.hl2", "tiny_ranks.hl2"} {
		f.Add(fixture(f, name))
	}
	for _, ids := range [][]uint32{{sectLabelDist}, {sectLabelRank, sectLabelExcess}, {sectLeafBase, sectLabelRank, sectLabelDist}} {
		f.Add(framed(f, path, false, ids...))
	}
	for _, old := range droppedFiles(f) {
		for _, g := range graphs {
			if _, err := ReadIndex(bytes.NewReader(old.raw), g); !oneLine(err, "") {
				f.Fatalf("%s beside %v: %v, want a one-line refusal", old.name, g, err)
			}
		}
		f.Add(old.raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, g := range graphs {
			ix, err := ReadIndex(bytes.NewReader(data), g)
			if err != nil {
				if strings.Contains(err.Error(), "\n") {
					t.Fatalf("error spans lines: %q", err)
				}
				continue
			}
			if !bytes.Equal(indexBytes(t, ix), indexBytes(t, build(t, g, ix.Landmarks()))) {
				t.Fatal("accepted, it differs from a fresh build of its landmarks")
			}
		}
	})
}
