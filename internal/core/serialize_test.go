package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"highway/internal/gen"
	"highway/internal/graph"
	"highway/internal/method"
)

// v1Fixture is a committed HWLIDX01 file with the graph it was built on
// and the index it must decode to. No v1 writer exists any more, so these
// files are where every test of the v1 reader gets its bytes.
type v1Fixture struct {
	name string
	raw  []byte
	g    *graph.Graph
	want *Index
}

// v1Fixtures loads testdata/tiny.hl1 (the paper's Figure 2 example,
// written by the original pre-v2 writer; no overflow records) and
// testdata/path300.hl1 (the 300-vertex path with landmark 1, written by
// the last `hlbuild -format v1`; the far end is 298 hops from the
// landmark, so it carries 44 overflow records).
func v1Fixtures(tb testing.TB) []v1Fixture {
	tb.Helper()
	path := gen.Path(300)
	fixtures := []v1Fixture{
		{name: "tiny.hl1", g: gen.PaperFigure2(), want: goldenIndex(tb)},
		{name: "path300.hl1", g: path},
	}
	var err error
	if fixtures[1].want, err = Build(path, []int32{1}); err != nil {
		tb.Fatal(err)
	}
	for i := range fixtures {
		if fixtures[i].raw, err = os.ReadFile(filepath.Join("testdata", fixtures[i].name)); err != nil {
			tb.Fatalf("v1 fixture missing: %v", err)
		}
	}
	return fixtures
}

// reframe decodes a v2 file into its header and sections, lets edit change
// them, and frames those left again (checksums and all) in the order either
// writer used, followed by any extra sections.
func reframe(tb testing.TB, file []byte, edit func(h *method.Header, sec map[uint32][]byte), extra ...method.Section) []byte {
	tb.Helper()
	ids := []uint32{sectLandmarks, sectHighway, sectLabelOff, sectLabelBase, sectLabelRel, sectLabelRank, sectLabelDist, sectOverflow}
	h, sec, err := method.ReadContainer(bytes.NewReader(file), func(method.Header) (map[uint32]uint64, error) {
		bounds := make(map[uint32]uint64)
		for _, id := range ids {
			bounds[id] = uint64(len(file))
		}
		return bounds, nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	edit(&h, sec)
	var sections []method.Section
	for _, id := range ids {
		if payload, ok := sec[id]; ok {
			sections = append(sections, method.Section{ID: id, Payload: payload})
		}
	}
	var out bytes.Buffer
	if err := method.WriteContainer(&out, h, append(sections, extra...)); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// appendUnknownSection re-frames a v2 file with one extra section, of an
// id the reader does not know, appended last.
func appendUnknownSection(tb testing.TB, file []byte, id uint32, payload []byte) []byte {
	tb.Helper()
	return reframe(tb, file, func(*method.Header, map[uint32][]byte) {}, method.Section{ID: id, Payload: payload})
}

// legacyV2Bytes is the file the last writer of section 3 wrote for ix: the
// n+1 offsets as uint64 where sections 7 and 8 are now.
func legacyV2Bytes(tb testing.TB, ix *Index) []byte {
	tb.Helper()
	return reframe(tb, v2Bytes(tb, ix), func(_ *method.Header, sec map[uint32][]byte) {
		off := []byte{}
		for v := 0; v <= ix.g.NumVertices(); v++ {
			off = binary.LittleEndian.AppendUint64(off, uint64(ix.labelOff.at(int32(v))))
		}
		sec[sectLabelOff] = off
		delete(sec, sectLabelBase)
		delete(sec, sectLabelRel)
	})
}

// legacyV2Fixture is testdata/tiny_off64.hl2: the golden index as the
// commit before sections 7 and 8 wrote it (it was tiny.hl2 then).
func legacyV2Fixture(tb testing.TB) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "tiny_off64.hl2"))
	if err != nil {
		tb.Fatalf("legacy v2 fixture missing: %v", err)
	}
	return raw
}

// path600 is the index whose labels need the escape: both ends of a
// 600-vertex path as landmarks, 688 entries 255 hops or more from theirs.
func path600(tb testing.TB) (*graph.Graph, *Index) {
	tb.Helper()
	g := gen.Path(600)
	ix, err := Build(g, []int32{0, 599})
	if err != nil {
		tb.Fatal(err)
	}
	return g, ix
}

// reverseRecords reverses the order of a run of 9-byte overflow records.
func reverseRecords(recs []byte) []byte {
	var out []byte
	for i := len(recs) - 9; i >= 0; i -= 9 {
		out = append(out, recs[i:i+9]...)
	}
	return out
}

// TestReadChecksOverflowRecords: a reader keeps a file's label bytes, so
// what it checks before it does is all that stands between a malformed
// file and a query that finds no record for an escaped entry. Each shape is
// rejected by name; records out of CSR order are not malformed.
func TestReadChecksOverflowRecords(t *testing.T) {
	g, ix := path600(t)
	good := v2Bytes(t, ix)
	record := func(v uint32, rank uint8, d uint32) []byte {
		rec := binary.LittleEndian.AppendUint32(nil, v)
		return binary.LittleEndian.AppendUint32(append(rec, rank), d)
	}
	for _, c := range []struct {
		name, want string
		edit       func(h *method.Header, sec map[uint32][]byte)
	}{
		{"escape without record", "missing overflow record", func(h *method.Header, sec map[uint32][]byte) {
			sec[sectOverflow] = sec[sectOverflow][:len(sec[sectOverflow])-9]
			h.Aux2--
		}},
		{"escape without record, mid-table", "missing overflow record", func(h *method.Header, sec map[uint32][]byte) {
			sec[sectOverflow] = append(sec[sectOverflow][:90:90], sec[sectOverflow][99:]...)
			h.Aux2--
		}},
		{"record without escape", "not escaped", func(h *method.Header, sec map[uint32][]byte) {
			sec[sectOverflow] = append(sec[sectOverflow], record(1, 0, 300)...) // d(0,1) = 1
			h.Aux2++
		}},
		{"duplicate record", "duplicate overflow record", func(h *method.Header, sec map[uint32][]byte) {
			sec[sectOverflow] = append(sec[sectOverflow], sec[sectOverflow][:9]...)
			h.Aux2++
		}},
		{"rank not below k", "out of range", func(h *method.Header, sec map[uint32][]byte) {
			sec[sectLabelRank][17] = 2
		}},
		{"records in reverse order", "", func(h *method.Header, sec map[uint32][]byte) {
			sec[sectOverflow] = reverseRecords(sec[sectOverflow])
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := Read(bytes.NewReader(reframe(t, good, c.edit)), g)
			if c.want != "" {
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("Read: %v, want an error saying %q", err, c.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !indexesIdentical(ix, got) || !bytes.Equal(v2Bytes(t, got), good) {
				t.Fatal("records out of CSR order decoded to a different index")
			}
		})
	}

	// v1 ends with its records, and third-party writers may emit them in any
	// order: the fixture with its 44 reversed decodes as it does unchanged.
	fx := v1Fixtures(t)[1]
	tail := len(fx.raw) - 44*9
	got, err := Read(bytes.NewReader(append(fx.raw[:tail:tail], reverseRecords(fx.raw[tail:])...)), fx.g)
	if err != nil {
		t.Fatal(err)
	}
	if !indexesIdentical(fx.want, got) {
		t.Fatal("v1 records out of CSR order decoded to a different index")
	}
}

// offsetCase is one malformed offsets section, or pair of them, with a valid
// checksum: an edit of the path-600 file (k = 2, three blocks, two entries a
// vertex but the landmarks 0 and 599) and what the reader says of it.
type offsetCase struct {
	name, want string
	edit       func(h *method.Header, sec map[uint32][]byte)
}

func offsetCases() []offsetCase {
	add16 := func(b []byte, v int, d int) {
		binary.LittleEndian.PutUint16(b[v*2:], uint16(int(binary.LittleEndian.Uint16(b[v*2:]))+d))
	}
	add64 := func(b []byte, i int, d int) {
		binary.LittleEndian.PutUint64(b[i*8:], uint64(int(binary.LittleEndian.Uint64(b[i*8:]))+d))
	}
	type sections = map[uint32][]byte
	return []offsetCase{
		{"base[0] not 0", "do not start at 0", func(_ *method.Header, sec sections) { add64(sec[sectLabelBase], 0, 1) }},
		{"rel not 0 at a block start", "does not restart its block", func(_ *method.Header, sec sections) {
			add64(sec[sectLabelBase], 1, -1) // every offset as it was
			for v := 256; v < 512; v++ {
				add16(sec[sectLabelRel], v, 1)
			}
		}},
		{"rel steps back inside a block", "not monotone", func(_ *method.Header, sec sections) { add16(sec[sectLabelRel], 300, -3) }},
		{"label longer than k", "label of 3 entries at vertex 4", func(_ *method.Header, sec sections) {
			for v := 5; v < 256; v++ {
				add16(sec[sectLabelRel], v, 1)
			}
		}},
		{"label longer than k across a block boundary", "label of 5 entries at vertex 255", func(_ *method.Header, sec sections) {
			add64(sec[sectLabelBase], 1, 3)
		}},
		{"label shorter than 0 across a block boundary", "not monotone", func(_ *method.Header, sec sections) {
			add64(sec[sectLabelBase], 1, -3)
		}},
		{"base beyond int64", "not monotone", func(_ *method.Header, sec sections) {
			binary.LittleEndian.PutUint64(sec[sectLabelBase][16:], 1<<63+1000)
		}},
		{"off(n) below the header's entries", "offsets claim 1195 entries, header says 1196", func(_ *method.Header, sec sections) {
			add16(sec[sectLabelRel], 599, -1)
			add16(sec[sectLabelRel], 600, -1)
		}},
		{"off(n) above the header's entries", "offsets pass the header's 1196 entries", func(_ *method.Header, sec sections) {
			add16(sec[sectLabelRel], 600, 1)
		}},
		{"rel one vertex long", "section 8 has length", func(_ *method.Header, sec sections) {
			sec[sectLabelRel] = append(sec[sectLabelRel], sec[sectLabelRel][1200:]...)
		}},
		{"base one block long", "section 7 has length", func(_ *method.Header, sec sections) {
			sec[sectLabelBase] = append(sec[sectLabelBase], sec[sectLabelBase][16:]...)
		}},
		{"no rel", "required section 8 missing", func(_ *method.Header, sec sections) { delete(sec, sectLabelRel) }},
		{"rank repeated in a label", "not ascending", func(_ *method.Header, sec sections) { sec[sectLabelRank][1] = 0 }},
		{"ranks of a label descending", "not ascending", func(_ *method.Header, sec sections) {
			sec[sectLabelRank][0], sec[sectLabelRank][1] = 1, 0
		}},
	}
}

// legacyOffsetCases are offsetCases for section 3, edits of the same file as
// legacyV2Bytes frames it.
func legacyOffsetCases() []offsetCase {
	type sections = map[uint32][]byte
	put := func(sec sections, v int, off uint64) { binary.LittleEndian.PutUint64(sec[sectLabelOff][v*8:], off) }
	return []offsetCase{
		{"section 3 not starting at 0", "do not start at 0", func(_ *method.Header, sec sections) { put(sec, 0, 1) }},
		{"section 3 stepping back", "not monotone", func(_ *method.Header, sec sections) { put(sec, 300, 590) }},
		{"section 3 with a label longer than k", "label of 3 entries at vertex 4", func(_ *method.Header, sec sections) { put(sec, 5, 9) }},
		{"section 3 with one label of every entry", "not monotone or label of 1196 entries", func(_ *method.Header, sec sections) {
			for v := 1; v < 600; v++ {
				put(sec, v, 0)
			}
		}},
		{"section 3 ending below the header's entries", "offsets claim 1195 entries", func(_ *method.Header, sec sections) {
			put(sec, 599, 1195)
			put(sec, 600, 1195)
		}},
		{"section 3 one vertex short", "section 3 has length", func(_ *method.Header, sec sections) {
			sec[sectLabelOff] = sec[sectLabelOff][8:]
		}},
	}
}

// TestReadChecksOffsets: the offsets are bytes the index keeps and every
// query indexes the labels by, so the reader holds them to what a writer
// produces — and the ranks of each label to ascending, which bounds a label
// at k entries and is what the merge in UpperBound assumes. Section 3, which
// older files carry the offsets in, is held to the same.
func TestReadChecksOffsets(t *testing.T) {
	g, ix := path600(t)
	for layout, cases := range map[string][]offsetCase{"sections 7 and 8": offsetCases(), "section 3": legacyOffsetCases()} {
		good := v2Bytes(t, ix)
		if layout == "section 3" {
			good = legacyV2Bytes(t, ix)
		}
		got, err := Read(bytes.NewReader(good), g)
		if err != nil || !indexesIdentical(ix, got) || !bytes.Equal(v2Bytes(t, got), v2Bytes(t, ix)) {
			t.Fatalf("%s: the unedited file does not load as the index it was written from: %v", layout, err)
		}
		for _, c := range cases {
			t.Run(c.name, func(t *testing.T) {
				_, err := Read(bytes.NewReader(reframe(t, good, c.edit)), g)
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("Read: %v, want an error saying %q", err, c.want)
				}
			})
		}
	}
}

// TestLegacyV2Writer: legacyV2Bytes, which the section-3 tests and fuzz
// seeds are framed by, writes what the last writer of section 3 wrote.
func TestLegacyV2Writer(t *testing.T) {
	if !bytes.Equal(legacyV2Bytes(t, goldenIndex(t)), legacyV2Fixture(t)) {
		t.Fatal("legacyV2Bytes of the golden index differs from testdata/tiny_off64.hl2")
	}
}

func TestIndexRoundTrip(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 13)
	ix, err := Build(g, g.DegreeOrder()[:12])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	type leg struct {
		name   string
		raw    []byte
		format Format
		want   *Index
	}
	legs := []leg{
		{"v2", buf.Bytes(), FormatV2, ix},
		{"tiny_off64.hl2", legacyV2Fixture(t), FormatV2, goldenIndex(t)},
	}
	for _, fx := range v1Fixtures(t) {
		legs = append(legs, leg{fx.name, fx.raw, FormatV1, fx.want})
	}
	for _, l := range legs {
		t.Run(l.name, func(t *testing.T) {
			ix2, got, err := ReadFormat(bytes.NewReader(l.raw), l.want.g)
			if err != nil {
				t.Fatal(err)
			}
			if got != l.format {
				t.Fatalf("ReadFormat reported %v, want %v", got, l.format)
			}
			if !indexesIdentical(l.want, ix2) {
				t.Fatal("decoded a different index")
			}
			if !bytes.Equal(v2Bytes(t, ix2), v2Bytes(t, l.want)) {
				t.Fatal("re-saved, it differs from a fresh build's file")
			}
			for i := range l.want.landmarks {
				if l.want.landmarks[i] != ix2.landmarks[i] {
					t.Fatal("landmarks differ")
				}
			}
			if err := ix2.Verify(200, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestV1V2SameIndex: the two golden files of the same index decode to the
// identical in-memory index, so a v1→v2 migration is lossless.
func TestV1V2SameIndex(t *testing.T) {
	g := gen.PaperFigure2()
	var decoded [2]*Index
	for i, name := range []string{"tiny.hl1", "tiny.hl2"} {
		var err error
		if decoded[i], err = Load(filepath.Join("testdata", name), g); err != nil {
			t.Fatal(err)
		}
	}
	if !indexesIdentical(decoded[0], decoded[1]) {
		t.Fatal("v1 and v2 decode to different indexes")
	}
}

// TestWriteV1Refused: v1 is read-only. Asking for it is an error, and
// SaveAs leaves nothing at the destination.
func TestWriteV1Refused(t *testing.T) {
	ix := goldenIndex(t)
	if err := ix.WriteFormat(new(bytes.Buffer), FormatV1); err == nil {
		t.Fatal("WriteFormat(v1) succeeded")
	}
	path := filepath.Join(t.TempDir(), "idx.v1")
	if err := ix.SaveAs(path, FormatV1); err == nil {
		t.Fatal("SaveAs(v1) succeeded")
	}
	if left, _ := filepath.Glob(path + "*"); len(left) != 0 {
		t.Fatalf("refused save left %v behind", left)
	}
}

func TestIndexRoundTripWithOverflow(t *testing.T) {
	g, ix := path600(t)
	if ix.numOverflow() == 0 {
		t.Fatal("test premise broken: no overflow entries")
	}
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	ix2, err := Read(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.numOverflow() != ix.numOverflow() {
		t.Fatalf("overflow entries: %d, want %d", ix2.numOverflow(), ix.numOverflow())
	}
	if d := ix2.NewSearcher().Distance(5, 595); d != 590 {
		t.Fatalf("d(5,595) = %d, want 590", d)
	}

	// The v1 reader's overflow records, from the fixture that has them.
	fx := v1Fixtures(t)[1]
	ix1, err := Read(bytes.NewReader(fx.raw), fx.g)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix1.numOverflow(); got != 44 || got != fx.want.numOverflow() {
		t.Fatalf("%s: %d overflow entries, want 44", fx.name, got)
	}
	if d := ix1.NewSearcher().Distance(5, 295); d != 290 {
		t.Fatalf("%s: d(5,295) = %d, want 290", fx.name, d)
	}
}

func TestIndexFileRoundTrip(t *testing.T) {
	g := gen.PaperFigure2()
	ix, err := Build(g, gen.PaperLandmarks())
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/idx.bin"
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	ix2, f, err := LoadFormat(path, g)
	if err != nil {
		t.Fatal(err)
	}
	if f != FormatV2 {
		t.Fatalf("Save wrote %v, want v2", f)
	}
	if ix2.NumEntries() != 13 {
		t.Fatalf("entries = %d, want 13", ix2.NumEntries())
	}

	// A v1 file stays loadable (the compatibility path).
	ix1, f, err := LoadFormat(filepath.Join("testdata", "tiny.hl1"), g)
	if err != nil {
		t.Fatal(err)
	}
	if f != FormatV1 {
		t.Fatalf("v1 file detected as %v", f)
	}
	if !indexesIdentical(ix1, ix2) {
		t.Fatal("v1 and v2 files decode differently")
	}
}

func TestReadRejectsCorruptIndex(t *testing.T) {
	g := gen.PaperFigure2()
	var buf bytes.Buffer
	if err := goldenIndex(t).Write(&buf); err != nil {
		t.Fatal(err)
	}
	for name, good := range map[string][]byte{"v1": v1Fixtures(t)[0].raw, "v2": buf.Bytes()} {
		t.Run(name, func(t *testing.T) {
			if _, err := Read(bytes.NewReader(good), g); err != nil {
				t.Fatalf("test premise broken: %v", err)
			}
			// Wrong magic.
			bad := append([]byte{}, good...)
			bad[0] = 'X'
			if _, err := Read(bytes.NewReader(bad), g); err == nil {
				t.Error("bad magic accepted")
			}
			// Wrong graph.
			if _, err := Read(bytes.NewReader(good), gen.Path(3)); err == nil {
				t.Error("mismatched graph accepted")
			}
			// Truncated stream.
			if _, err := Read(bytes.NewReader(good[:len(good)-3]), g); err == nil {
				t.Error("truncated stream accepted")
			}
			// Garbage.
			if _, err := Read(bytes.NewReader([]byte("garbage!")), g); err == nil {
				t.Error("garbage accepted")
			}
		})
	}
}

// TestV1RejectsDamage: v1 has no checksums, so what protects its reader
// is validation. Every truncation of either fixture is rejected; a byte
// flip is either rejected or yields an index that is safe to query.
func TestV1RejectsDamage(t *testing.T) {
	for _, fx := range v1Fixtures(t) {
		for cut := 0; cut < len(fx.raw); cut++ {
			if _, err := Read(bytes.NewReader(fx.raw[:cut]), fx.g); err == nil {
				t.Fatalf("%s truncated to %d bytes accepted", fx.name, cut)
			}
		}
		rejected := 0
		for pos := range fx.raw {
			bad := append([]byte{}, fx.raw...)
			bad[pos] ^= 0x10
			ix, err := Read(bytes.NewReader(bad), fx.g)
			if err != nil {
				rejected++
				continue
			}
			exerciseIndex(ix)
		}
		// The 28 bytes of magic, n, k and the landmark cannot survive one.
		if rejected < 28 {
			t.Fatalf("%s: only %d byte flips rejected", fx.name, rejected)
		}
	}
}

// TestV2ChecksumCatchesBitFlips: any single corrupted payload byte must be
// rejected by a section CRC (v1 has no such protection — that asymmetry
// is the point of v2).
func TestV2ChecksumCatchesBitFlips(t *testing.T) {
	g := gen.PaperFigure2()
	ix, err := Build(g, gen.PaperLandmarks())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.WriteFormat(&buf, FormatV2); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Flip one bit in every byte position past the magic, one at a time;
	// each corruption must be rejected (header CRC, table mismatch, or
	// section CRC).
	accepted := 0
	for pos := 8; pos < len(good); pos++ {
		bad := append([]byte{}, good...)
		bad[pos] ^= 0x10
		if _, err := Read(bytes.NewReader(bad), g); err == nil {
			accepted++
			t.Logf("bit flip at offset %d accepted", pos)
		}
	}
	if accepted != 0 {
		t.Fatalf("%d single-byte corruptions accepted", accepted)
	}
}

// TestV2SkipsUnknownSections: forward compatibility — a file carrying an
// extra section with an unknown id must still load.
func TestV2SkipsUnknownSections(t *testing.T) {
	g := gen.PaperFigure2()
	ix, err := Build(g, gen.PaperLandmarks())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.WriteFormat(&buf, FormatV2); err != nil {
		t.Fatal(err)
	}
	withExtra := appendUnknownSection(t, buf.Bytes(), 99, []byte("future payload"))
	ix2, err := Read(bytes.NewReader(withExtra), g)
	if err != nil {
		t.Fatalf("file with unknown section rejected: %v", err)
	}
	if !indexesIdentical(ix, ix2) {
		t.Fatal("unknown section changed the decoded index")
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	g := gen.BarabasiAlbert(120, 3, 3)
	ix, err := Build(g, g.DegreeOrder()[:5])
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Verify(100, 2); err != nil {
		t.Fatalf("clean index failed verify: %v", err)
	}
	// Corrupt one stored distance and expect Verify to notice: a too-large
	// entry inflates some exact distance.
	for p := range ix.labelDist {
		if ix.labelDist[p] >= 1 {
			ix.labelDist[p] += 3
			break
		}
	}
	if err := ix.Verify(2000, 2); err == nil {
		t.Fatal("corrupted index passed verification")
	}
}
