package legacy

import (
	"bufio"
	"bytes"
	"encoding/binary"
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
// highest-degree vertices, which keeps no label for its leaves: the
// retired layouts, written before that, hold every label.
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
// landmark set {1,5,9}: tiny.hl1, tiny_off64.hl2 and tiny.hl2 all hold it
// with one distance byte an entry, and tiny.snap2 beside its graph.
func goldenIndex(tb testing.TB) *core.Index {
	return build(tb, gen.PaperFigure2(), gen.PaperLandmarks())
}

// path600 is the index whose labels need the escape: both ends of a
// 600-vertex path as landmarks, 688 entries 255 hops or more from theirs,
// escaped in the layouts of one distance byte an entry.
func path600(tb testing.TB) *core.Index {
	return build(tb, gen.Path(600), []int32{0, 599})
}

// v1Fixture is a committed HWLIDX01 file with the graph it was built on
// and the index it must migrate to. No v1 writer exists any more, so these
// files are where every test of the v1 reader gets its bytes.
type v1Fixture struct {
	name string
	raw  []byte
	g    *graph.Graph
	want *core.Index
}

// v1Fixtures loads tiny.hl1 (the paper's Figure 2 example, written by the
// original pre-v2 writer; no overflow records) and path300.hl1 (the
// 300-vertex path with landmark 1, written by the last `hlbuild -format
// v1`; the far end is 298 hops from the landmark, so it carries 44 overflow
// records).
func v1Fixtures(tb testing.TB) []v1Fixture {
	tb.Helper()
	path := gen.Path(300)
	return []v1Fixture{
		{name: "tiny.hl1", raw: fixture(tb, "tiny.hl1"), g: gen.PaperFigure2(), want: goldenIndex(tb)},
		{name: "path300.hl1", raw: fixture(tb, "path300.hl1"), g: path, want: build(tb, path, []int32{1})},
	}
}

// reframe decodes an index file of any container layout into its header
// and sections, lets edit change them, and frames those left again
// (checksums and all) in the order the writers used.
func reframe(tb testing.TB, file []byte, edit func(h *container.Header, sec map[uint32][]byte)) []byte {
	tb.Helper()
	ids := []uint32{1, 2, sectLabelOff, sectLabelBase, sectLabelRel, 4, sectLabelMask, 5, sectLabelDist, sectOverflow, sectGraph}
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

// byteDistBytes is the file the last writer of section 5 wrote for ix: one
// distance byte an entry where section 12 is now.
func byteDistBytes(tb testing.TB, ix *core.Index) []byte {
	tb.Helper()
	h, sections := ByteSections(ix)
	fp := binary.LittleEndian.AppendUint32(nil, ix.Graph().Fingerprint())
	var out bytes.Buffer
	if err := container.WriteContainer(&out, h, append(sections, container.Section{ID: sectGraph, Payload: fp})); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// byteDistSnapshot is the checkpoint the last writer of section 5 wrote for
// ix: the graph's sections beside the labelling's, without section 11.
func byteDistSnapshot(tb testing.TB, ix *core.Index) []byte {
	tb.Helper()
	h, sections := ByteSections(ix)
	var out bytes.Buffer
	if err := container.WriteContainer(&out, h, append(ix.Graph().Sections(), sections...)); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// maskBytes is the file the last writer of section 13 wrote for ix: its
// ranks as masks of ⌈k/8⌉ bytes a vertex beside the offsets of sections 7
// and 8, where sections 14 and 15 are now.
func maskBytes(tb testing.TB, ix *core.Index) []byte {
	tb.Helper()
	h, sections := offsetSections(ix, true)
	fp := binary.LittleEndian.AppendUint32(nil, ix.Graph().Fingerprint())
	var out bytes.Buffer
	if err := container.WriteContainer(&out, h, append(sections, container.Section{ID: sectGraph, Payload: fp})); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// maskSnapshot is the checkpoint the last writer of section 13 wrote for
// ix: the graph's sections beside the labelling's, without section 11.
func maskSnapshot(tb testing.TB, ix *core.Index) []byte {
	tb.Helper()
	h, sections := offsetSections(ix, true)
	var out bytes.Buffer
	if err := container.WriteContainer(&out, h, append(ix.Graph().Sections(), sections...)); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// withoutSection11 is the file every writer from sections 7 and 8 until
// section 11 wrote for ix.
func withoutSection11(tb testing.TB, ix *core.Index) []byte {
	tb.Helper()
	return reframe(tb, byteDistBytes(tb, ix), func(_ *container.Header, sec map[uint32][]byte) { delete(sec, sectGraph) })
}

// legacyV2Bytes is the file the last writer of section 3 wrote for ix: the
// n+1 offsets as uint64 where sections 7 and 8 are now, and no section 11.
func legacyV2Bytes(tb testing.TB, ix *core.Index) []byte {
	tb.Helper()
	return reframe(tb, withoutSection11(tb, ix), func(_ *container.Header, sec map[uint32][]byte) {
		off := binary.LittleEndian.AppendUint64(nil, 0)
		var at uint64
		for v := range int32(ix.Graph().NumVertices()) {
			at += uint64(ix.LabelSize(v))
			off = binary.LittleEndian.AppendUint64(off, at)
		}
		sec[sectLabelOff] = off
		delete(sec, sectLabelBase)
		delete(sec, sectLabelRel)
	})
}

// offsetCase is one malformed section 3 with a valid checksum: an edit of
// the path-600 file (k = 2, two entries a vertex but the landmarks 0 and
// 599) as legacyV2Bytes frames it.
type offsetCase struct {
	name string
	edit func(h *container.Header, sec map[uint32][]byte)
}

func legacyOffsetCases() []offsetCase {
	type sections = map[uint32][]byte
	put := func(sec sections, v int, off uint64) { binary.LittleEndian.PutUint64(sec[sectLabelOff][v*8:], off) }
	return []offsetCase{
		{"section 3 not starting at 0", func(_ *container.Header, sec sections) { put(sec, 0, 1) }},
		{"section 3 stepping back", func(_ *container.Header, sec sections) { put(sec, 300, 590) }},
		{"section 3 with a label longer than k", func(_ *container.Header, sec sections) { put(sec, 5, 9) }},
		{"section 3 with one label of every entry", func(_ *container.Header, sec sections) {
			for v := 1; v < 600; v++ {
				put(sec, v, 0)
			}
		}},
		{"section 3 ending below the header's entries", func(_ *container.Header, sec sections) {
			put(sec, 599, 1195)
			put(sec, 600, 1195)
		}},
		{"section 3 one vertex short", func(_ *container.Header, sec sections) {
			sec[sectLabelOff] = sec[sectLabelOff][8:]
		}},
	}
}

// oneLine reports whether err is an error of one line that says want.
func oneLine(err error, want string) bool {
	return err != nil && strings.Contains(err.Error(), want) && !strings.Contains(err.Error(), "\n")
}

// migrates checks that raw, an index file of a retired layout built on g,
// is what IndexLayout says it is, is refused by core.Read with the line
// naming the migration, and migrates to want's file.
func migrates(t *testing.T, raw []byte, g *graph.Graph, layout string, want *core.Index) {
	t.Helper()
	if got := IndexLayout(bufio.NewReader(bytes.NewReader(raw))); got != layout {
		t.Fatalf("IndexLayout = %q, want %q", got, layout)
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

// TestIndexRoundTrip: each retired layout — both v1 fixtures, the file
// with its offsets in section 3 and one without section 11 (the one with a
// distance byte an entry: TestMigrateByteDistances) — is named by
// IndexLayout, refused by the serving reader, and migrates to the file a
// fresh build writes; today's file, and a checkpoint, are no retired
// index layout.
func TestIndexRoundTrip(t *testing.T) {
	for _, fx := range v1Fixtures(t) {
		t.Run(fx.name, func(t *testing.T) { migrates(t, fx.raw, fx.g, "format v1", fx.want) })
	}
	t.Run("tiny_off64.hl2", func(t *testing.T) {
		migrates(t, fixture(t, "tiny_off64.hl2"), gen.PaperFigure2(), "format v2, 64-bit offsets", goldenIndex(t))
	})
	t.Run("no section 11", func(t *testing.T) {
		ix := path600(t)
		migrates(t, withoutSection11(t, ix), ix.Graph(), "format v2, no section 11", ix)
	})
	for _, name := range []string{"tiny_codes.hl2", "tiny_bits.hl2", "grid_ranks.hl2", "tiny_ranks.hl2", "tiny.snap2"} {
		if got := IndexLayout(bufio.NewReader(bytes.NewReader(fixture(t, name)))); got != "" {
			t.Fatalf("IndexLayout(%s) = %q, want \"\"", name, got)
		}
	}
}

// TestGoldenV1Compat: tiny.hl1 was written by the pre-v2 code (the original
// HWLIDX01 writer). It must keep migrating verbatim — this is the promise
// that existing on-disk indexes survive the format change.
func TestGoldenV1Compat(t *testing.T) {
	g := gen.PaperFigure2()
	ix, err := ReadIndex(bytes.NewReader(fixture(t, "tiny.hl1")), g)
	if err != nil {
		t.Fatalf("v1 file written by the old code no longer migrates: %v", err)
	}
	if ix.NumEntries() != 13 {
		t.Fatalf("entries = %d, want 13 (Figure 3)", ix.NumEntries())
	}
	n := int32(g.NumVertices())
	for s := range n {
		for u := range n {
			want := bfs.Dist(g, s, u)
			if want == bfs.Unreachable {
				want = core.Infinity
			}
			if got := ix.Distance(s, u); got != want {
				t.Fatalf("d(%d,%d) = %d, want %d", s, u, got, want)
			}
		}
	}
}

// TestV1V2SameIndex: the v1 golden file migrates to the golden file's
// bytes, so a v1→v2 migration is lossless.
func TestV1V2SameIndex(t *testing.T) {
	ix, err := ReadIndex(bytes.NewReader(fixture(t, "tiny.hl1")), gen.PaperFigure2())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(indexBytes(t, ix), fixture(t, "tiny_codes.hl2")) {
		t.Fatal("tiny.hl1 migrates to other bytes than tiny_codes.hl2")
	}
}

// TestLegacyV2Writer: legacyV2Bytes, byteDistBytes and byteDistSnapshot,
// which the tests and fuzz seeds of retired layouts are framed by, write
// what the last writers of section 3 and of section 5 wrote.
func TestLegacyV2Writer(t *testing.T) {
	for name, got := range map[string][]byte{
		"tiny_off64.hl2": legacyV2Bytes(t, goldenIndex(t)),
		"tiny.hl2":       byteDistBytes(t, goldenIndex(t)),
		"tiny.snap2":     byteDistSnapshot(t, goldenIndex(t)),
	} {
		if !bytes.Equal(got, fixture(t, name)) {
			t.Errorf("the writer of the golden index differs from testdata/%s", name)
		}
	}
}

// TestMigrateByteDistances: an index file and a checkpoint whose labels
// keep one distance byte an entry in section 5 — the committed ones the
// last writer of section 5 wrote, and path600's, whose distances reach 599
// — are each named by IndexLayout or SnapshotLayout, refused by the
// serving readers with one line naming `hlbuild migrate`, and migrate to
// the labelling they hold, entry for entry.
func TestMigrateByteDistances(t *testing.T) {
	fig, path, leafy := goldenIndex(t), path600(t), leafyIndex(t)
	for _, c := range []struct {
		name     string
		raw      []byte
		snapshot bool
		want     *core.Index
	}{
		{"tiny.hl2", fixture(t, "tiny.hl2"), false, fig},
		{"tiny.snap2", fixture(t, "tiny.snap2"), true, fig},
		{"path600 index", byteDistBytes(t, path), false, path},
		{"path600 snapshot", byteDistSnapshot(t, path), true, path},
		{"rmat12 index", byteDistBytes(t, leafy), false, leafy},
	} {
		t.Run(c.name, func(t *testing.T) {
			var ix *core.Index
			var err error
			if c.snapshot {
				if got := SnapshotLayout(bufio.NewReader(bytes.NewReader(c.raw))); got != "snapshot, byte distances" {
					t.Fatalf("SnapshotLayout = %q", got)
				}
				if _, _, err := serve.DecodeSnapshot(bytes.NewReader(c.raw)); !oneLine(err, "hlbuild migrate") {
					t.Fatalf("serve.DecodeSnapshot: %v, want one line naming hlbuild migrate", err)
				}
				var g *graph.Graph
				if g, ix, err = ReadSnapshot(bytes.NewReader(c.raw)); err == nil && g.Fingerprint() != c.want.Graph().Fingerprint() {
					t.Fatal("the snapshot's graph differs from the one it was written from")
				}
			} else {
				if got := IndexLayout(bufio.NewReader(bytes.NewReader(c.raw))); got != "format v2, byte distances" {
					t.Fatalf("IndexLayout = %q", got)
				}
				if _, err := core.Read(bytes.NewReader(c.raw), c.want.Graph()); !oneLine(err, "hlbuild migrate") {
					t.Fatalf("core.Read: %v, want one line naming hlbuild migrate", err)
				}
				ix, err = ReadIndex(bytes.NewReader(c.raw), c.want.Graph())
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(indexBytes(t, ix), indexBytes(t, c.want)) {
				t.Fatal("migrated, it differs from a fresh build's file")
			}
			byteLabelsEqual(t, c.raw, ix)
		})
	}
}

// TestMigrateMaskSection13: an index file and a checkpoint whose ranks are
// masks of ⌈k/8⌉ bytes a vertex in section 13 beside the offsets of
// sections 7 and 8 — tiny_mask.hl2, which maskBytes frames byte for byte,
// and path600's and BA-2000's with k = 100 (13 bytes a vertex) — are each
// named by IndexLayout or SnapshotLayout, refused by the serving readers
// with one line naming `hlbuild migrate`, and migrate to the file a fresh
// build writes: tiny_mask.hl2 to tiny_bits.hl2. A mask bit flipped under a
// valid checksum is refused by the section's number.
func TestMigrateMaskSection13(t *testing.T) {
	fig := build(t, gen.PaperFigure2(), gen.PaperFigure2().DegreeOrder()[:3])
	if !bytes.Equal(maskBytes(t, fig), fixture(t, "tiny_mask.hl2")) {
		t.Fatal("maskBytes does not frame the file the last writer of section 13 wrote")
	}
	if !bytes.Equal(indexBytes(t, fig), fixture(t, "tiny_bits.hl2")) {
		t.Fatal("test premise broken: the fresh build does not write tiny_bits.hl2")
	}
	ba := gen.BarabasiAlbert(2000, 10, 42)
	path, dense := path600(t), build(t, ba, ba.DegreeOrder()[:100])
	for _, c := range []struct {
		name     string
		raw      []byte
		snapshot bool
		want     *core.Index
	}{
		{"tiny_mask.hl2", fixture(t, "tiny_mask.hl2"), false, fig},
		{"path600 index", maskBytes(t, path), false, path},
		{"path600 snapshot", maskSnapshot(t, path), true, path},
		{"ba2000 k100 index", maskBytes(t, dense), false, dense},
		{"rmat12 snapshot", maskSnapshot(t, leafyIndex(t)), true, leafyIndex(t)},
	} {
		t.Run(c.name, func(t *testing.T) {
			var ix *core.Index
			var err error
			if c.snapshot {
				if got := SnapshotLayout(bufio.NewReader(bytes.NewReader(c.raw))); got != "snapshot, masks in section 13" {
					t.Fatalf("SnapshotLayout = %q", got)
				}
				if _, _, err := serve.DecodeSnapshot(bytes.NewReader(c.raw)); !oneLine(err, "hlbuild migrate") {
					t.Fatalf("serve.DecodeSnapshot: %v, want one line naming hlbuild migrate", err)
				}
				var g *graph.Graph
				if g, ix, err = ReadSnapshot(bytes.NewReader(c.raw)); err == nil && g.Fingerprint() != c.want.Graph().Fingerprint() {
					t.Fatal("the snapshot's graph differs from the one it was written from")
				}
			} else {
				if got := IndexLayout(bufio.NewReader(bytes.NewReader(c.raw))); got != "format v2, masks in section 13" {
					t.Fatalf("IndexLayout = %q", got)
				}
				if _, err := core.Read(bytes.NewReader(c.raw), c.want.Graph()); !oneLine(err, "hlbuild migrate") {
					t.Fatalf("core.Read: %v, want one line naming hlbuild migrate", err)
				}
				ix, err = ReadIndex(bytes.NewReader(c.raw), c.want.Graph())
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(indexBytes(t, ix), indexBytes(t, c.want)) {
				t.Fatal("migrated, it differs from a fresh build's file")
			}
		})
	}
	flipped := reframe(t, maskBytes(t, path), func(_ *container.Header, sec map[uint32][]byte) { sec[sectLabelMask][17] ^= 1 })
	if _, err := ReadIndex(bytes.NewReader(flipped), path.Graph()); !oneLine(err, "section 13 is missing or not a fresh build's") {
		t.Fatalf("ReadIndex of a flipped mask bit: %v, want one line naming section 13", err)
	}
}

// TestPerEntryCodesLoad: every writer before section 16 kept a labelling's
// distances per entry in section 12, and no migrate is needed for them: a
// reader of today lays such a file out again on load when the labelling is
// held per label. BA-600 with 20 landmarks is: bases of 2 bits, excesses of
// 1 and 22 records, the entries of the labels that span two hops; per
// entry, codes of 2 bits and no record.
// As the last writer of section 12 framed it, its index file through
// core.Read and its checkpoint through serve.DecodeSnapshot each load,
// answer every pair as BFS does, and write a fresh build's bytes.
func TestPerEntryCodesLoad(t *testing.T) {
	g := gen.BarabasiAlbert(600, 4, 17)
	fresh := build(t, g, g.DegreeOrder()[:20])
	hFresh, _ := fresh.Sections()
	h, sections := codeSections(fresh)
	if hFresh.Aux2 != 22 || h.Aux2 != 0 || !slices.ContainsFunc(sections, func(s container.Section) bool { return s.ID == sectLabelDist }) {
		t.Fatalf("test premise broken: %d records per label, %d per entry", hFresh.Aux2, h.Aux2)
	}
	var file, snap bytes.Buffer
	fp := container.Section{ID: sectGraph, Payload: binary.LittleEndian.AppendUint32(nil, g.Fingerprint())}
	if err := container.WriteContainer(&file, h, append(slices.Clone(sections), fp)); err != nil {
		t.Fatal(err)
	}
	if err := container.WriteContainer(&snap, h, append(g.Sections(), sections...)); err != nil {
		t.Fatal(err)
	}
	fromFile, err := core.Read(bytes.NewReader(file.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	snapG, fromSnap, err := serve.DecodeSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := serve.SnapshotBytes(g, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := serve.SnapshotBytes(snapG, fromSnap); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the checkpoint, loaded, writes another snapshot than a fresh build's (%v)", err)
	}
	if !bytes.Equal(indexBytes(t, fromFile), indexBytes(t, fresh)) {
		t.Fatal("the index file, loaded, writes another file than a fresh build's")
	}
	for s := range int32(g.NumVertices()) {
		for u, d := range bfs.Distances(g, s) {
			if a, b := fromFile.Distance(s, int32(u)), fromSnap.Distance(s, int32(u)); a != d || b != d {
				t.Fatalf("d(%d,%d) = %d from the index file, %d from the checkpoint, want %d", s, u, a, b, d)
			}
		}
	}
}

// byteLabelsEqual decodes the labels of raw, a file with one distance byte
// an entry, by hand and holds ix's labels to them entry for entry.
func byteLabelsEqual(t *testing.T, raw []byte, ix *core.Index) {
	t.Helper()
	_, read, err := container.ReadContainer(bytes.NewReader(raw), false, func(container.Header) (map[uint32]uint64, error) {
		return map[uint32]uint64{sectLabelBase: 1 << 20, sectLabelRel: 1 << 20, sectLabelRank: 1 << 20, sectByteDist: 1 << 20, sectOverflow: 1 << 20}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	escaped := map[[2]uint32]int32{}
	for rec := range slices.Chunk(read[sectOverflow].Payload, 9) {
		escaped[[2]uint32{binary.LittleEndian.Uint32(rec), uint32(rec[4])}] = int32(binary.LittleEndian.Uint32(rec[5:]))
	}
	base, rel := read[sectLabelBase].Payload, read[sectLabelRel].Payload
	at := func(v int) int {
		return int(binary.LittleEndian.Uint64(base[v/256*8:])) + int(binary.LittleEndian.Uint16(rel[v*2:]))
	}
	entries := 0
	for v := range ix.Graph().NumVertices() {
		ranks, dists := ix.Label(int32(v))
		lo, hi := at(v), at(v+1)
		if hi-lo != len(ranks) {
			t.Fatalf("vertex %d: %d entries, the file has %d", v, len(ranks), hi-lo)
		}
		for i := range ranks {
			r, d := read[sectLabelRank].Payload[lo+i], int32(read[sectByteDist].Payload[lo+i])
			if d == 255 {
				d = escaped[[2]uint32{uint32(v), uint32(r)}]
			}
			if int32(r) != ranks[i] || d != dists[i] {
				t.Fatalf("vertex %d entry %d: (%d, %d), the file has (%d, %d)", v, i, ranks[i], dists[i], r, d)
			}
			entries++
		}
	}
	if entries == 0 || int64(entries) != ix.NumEntries() {
		t.Fatalf("%d entries compared, the index has %d", entries, ix.NumEntries())
	}
}

// TestReadChecksOffsets: section 3 is held to the offsets of a fresh
// build, and each malformed one is refused by its number.
func TestReadChecksOffsets(t *testing.T) {
	ix := path600(t)
	good := legacyV2Bytes(t, ix)
	if got, err := ReadIndex(bytes.NewReader(good), ix.Graph()); err != nil || !bytes.Equal(indexBytes(t, got), indexBytes(t, ix)) {
		t.Fatalf("the unedited file does not migrate to the index it was written from: %v", err)
	}
	for _, c := range legacyOffsetCases() {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadIndex(bytes.NewReader(reframe(t, good, c.edit)), ix.Graph())
			if !oneLine(err, "section 3 is missing or not a fresh build's") {
				t.Fatalf("ReadIndex: %v, want one line naming section 3", err)
			}
		})
	}
}

// TestV1RejectsDamage: v1 has no checksums, and what protects its reader
// is the comparison with a fresh build: every truncation of either fixture
// and every byte flip in it is refused.
func TestV1RejectsDamage(t *testing.T) {
	for _, fx := range v1Fixtures(t) {
		for cut := range fx.raw {
			if _, err := ReadIndex(bytes.NewReader(fx.raw[:cut]), fx.g); err == nil {
				t.Fatalf("%s truncated to %d bytes accepted", fx.name, cut)
			}
		}
		for pos := range fx.raw {
			bad := append([]byte{}, fx.raw...)
			bad[pos] ^= 0x10
			if _, err := ReadIndex(bytes.NewReader(bad), fx.g); err == nil {
				t.Fatalf("%s: byte flip at %d accepted", fx.name, pos)
			}
		}
	}
}

// TestV1OverflowRecords: v1 ends with its records, and third-party writers
// may emit them in any order: path300.hl1 with its 44 reversed migrates as
// it does unchanged, escaped distances and all.
func TestV1OverflowRecords(t *testing.T) {
	fx := v1Fixtures(t)[1]
	tail := len(fx.raw) - 44*9
	var reversed []byte
	for i := len(fx.raw) - 9; i >= tail; i -= 9 {
		reversed = append(reversed, fx.raw[i:i+9]...)
	}
	ix, err := ReadIndex(bytes.NewReader(append(fx.raw[:tail:tail], reversed...)), fx.g)
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := ByteSections(ix); h.Aux2 != 44 || !bytes.Equal(indexBytes(t, ix), indexBytes(t, fx.want)) {
		t.Fatalf("%d overflow records, want 44, or a different index", h.Aux2)
	}
	if d := ix.Distance(5, 295); d != 290 {
		t.Fatalf("d(5,295) = %d, want 290", d)
	}
}

// TestReadIndexRefusesAnotherGraph: an old file held to its graph by n
// alone is refused, with one line, beside another graph of the same n and
// m — what no sample of distances could promise.
func TestReadIndexRefusesAnotherGraph(t *testing.T) {
	built, other := gen.BarabasiAlbert(400, 3, 1), gen.BarabasiAlbert(400, 3, 2)
	if built.NumVertices() != other.NumVertices() || built.NumEdges() != other.NumEdges() {
		t.Fatalf("premise: %v and %v", built, other)
	}
	ix := build(t, built, built.DegreeOrder()[:8])
	for name, raw := range map[string][]byte{"byte distances": byteDistBytes(t, ix), "no section 11": withoutSection11(t, ix), "section 3": legacyV2Bytes(t, ix), "section 13": maskBytes(t, ix)} {
		if _, err := ReadIndex(bytes.NewReader(raw), other); !oneLine(err, notThisIndex) {
			t.Errorf("%s beside another graph: %v, want one line saying %q", name, err, notThisIndex)
		}
	}
}

// FuzzReadLegacyIndex: the migration reader is total on arbitrary bytes —
// a one-line error, or exactly the index a fresh build of the landmarks it
// names gives — seeded with a file of every retired layout and every
// malformed section 3 TestReadChecksOffsets names.
func FuzzReadLegacyIndex(f *testing.F) {
	path := path600(f)
	for _, fx := range v1Fixtures(f) {
		f.Add(fx.raw)
	}
	old := legacyV2Bytes(f, path)
	f.Add(fixture(f, "tiny_off64.hl2"))
	f.Add(fixture(f, "tiny.hl2"))
	f.Add(byteDistBytes(f, path))
	f.Add(withoutSection11(f, path))
	f.Add(old)
	for _, c := range legacyOffsetCases() {
		f.Add(reframe(f, old, c.edit))
	}
	f.Add([]byte(IndexMagicV1))
	f.Add(fixture(f, "tiny_mask.hl2"))
	f.Add(maskBytes(f, path))
	graphs := []*graph.Graph{gen.PaperFigure2(), gen.Path(300), path.Graph()}
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
