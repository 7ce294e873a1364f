package core

import (
	"bytes"
	"encoding/binary"
	"maps"
	"path/filepath"
	"strings"
	"testing"

	"highway/internal/container"
	"highway/internal/gen"
	"highway/internal/graph"
)

// reframe decodes an index file into its header and sections, lets edit
// change them, and frames those left again (checksums and all) in the order
// the writer uses, followed by any extra sections.
func reframe(tb testing.TB, file []byte, edit func(h *container.Header, sec map[uint32][]byte), extra ...container.Section) []byte {
	tb.Helper()
	ids := []uint32{sectLandmarks, sectHighway, sectLabelBase, sectLabelRel, sectLeafBase, sectLeafRel, sectLabelRank, sectByteDist, sectByteMask, sectLabelBits, sectLabelDir, sectLeafBits, sectLeafDir, sectLabelDist, sectLabelExcess, sectOverflow, sectGraph}
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
	if err := container.WriteContainer(&out, h, append(sections, extra...)); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// appendUnknownSection re-frames a v2 file with one extra section, of an
// id the reader does not know, appended last.
func appendUnknownSection(tb testing.TB, file []byte, id uint32, payload []byte) []byte {
	tb.Helper()
	return reframe(tb, file, func(*container.Header, map[uint32][]byte) {}, container.Section{ID: id, Payload: payload})
}

// rankBytesFile is ix's index file with its ranks a byte an entry in
// section 4 beside their offsets in sections 7 and 8 (19 and 20 when ix
// elides leaves), a layout only `hlbuild migrate` reads: a file as writers
// before section 17 framed a labelling whose ranks took fewer bytes so.
func rankBytesFile(tb testing.TB, ix *Index) []byte {
	tb.Helper()
	h, sections := ix.Sections()
	plain, elided := plainRanksOf(ix), ix.leaves.words != nil
	ids := []uint32{sectLabelBase, sectLabelRel, sectLabelRank}
	if elided {
		ids = []uint32{sectLeafBase, sectLeafRel, sectLabelRank}
	}
	var out []container.Section
	for _, s := range sections {
		switch s.ID {
		case rankIDs(elided)[0]:
			for i, id := range []uint32{sectLabelBase, sectLabelRel, sectLabelRank} {
				out = append(out, container.Section{ID: ids[i], Payload: plain[id]})
			}
		case rankIDs(elided)[1]:
		default:
			out = append(out, s)
		}
	}
	return fileOf(tb, ix, h, out)
}

// fileOf frames h and sections as an index file of ix's graph.
func fileOf(tb testing.TB, ix *Index, h container.Header, sections []container.Section) []byte {
	tb.Helper()
	fp := container.Section{ID: sectGraph, Payload: binary.LittleEndian.AppendUint32(nil, ix.g.Fingerprint())}
	var out bytes.Buffer
	if err := container.WriteContainer(&out, h, append(sections, fp)); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// path600 is the index whose labels all escape: both ends of a 600-vertex
// path as landmarks, every vertex but the two ends holding both ranks at
// distances that differ by more than an excess code holds, so each of the
// 1 196 entries has its record; 152 bytes of rank bits and 46 of directory.
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
// rejected by name; records out of CSR order are not malformed. The file is
// the 300-vertex path's with landmark 1, whose labels of vertices 257 and
// on, 256 hops or more away, escape a base of 8 bits: 43 records.
func TestReadChecksOverflowRecords(t *testing.T) {
	g := gen.Path(300)
	ix, err := Build(g, []int32{1})
	if err != nil || ix.numOverflow() != 43 {
		t.Fatalf("test premise broken: %v, or %d records", err, ix.numOverflow())
	}
	good := v2Bytes(t, ix)
	record := func(v uint32, rank uint8, d uint32) []byte {
		rec := binary.LittleEndian.AppendUint32(nil, v)
		return binary.LittleEndian.AppendUint32(append(rec, rank), d)
	}
	for _, c := range []struct {
		name, want string
		edit       func(h *container.Header, sec map[uint32][]byte)
	}{
		{"escape without record", "missing overflow record", func(h *container.Header, sec map[uint32][]byte) {
			sec[sectOverflow] = sec[sectOverflow][:len(sec[sectOverflow])-9]
			h.Aux2--
		}},
		{"escape without record, mid-table", "missing overflow record", func(h *container.Header, sec map[uint32][]byte) {
			sec[sectOverflow] = append(sec[sectOverflow][:90:90], sec[sectOverflow][99:]...)
			h.Aux2--
		}},
		{"record without escape", "not escaped", func(h *container.Header, sec map[uint32][]byte) {
			sec[sectOverflow] = append(sec[sectOverflow], record(2, 0, 300)...) // d(1,2) = 1
			h.Aux2++
		}},
		{"duplicate record", "duplicate overflow record", func(h *container.Header, sec map[uint32][]byte) {
			sec[sectOverflow] = append(sec[sectOverflow], sec[sectOverflow][:9]...)
			h.Aux2++
		}},
		{"rank not below k", "bad overflow record (v=257 rank=1", func(h *container.Header, sec map[uint32][]byte) {
			sec[sectOverflow][4] = 1
		}},
		{"records in reverse order", "", func(h *container.Header, sec map[uint32][]byte) {
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
}

// offsetCase is one malformed section, or set of them, with a valid
// checksum, and what the reader says of it. offsetCases are edits of the
// path-600 file with its ranks in section 4 (k = 2, three blocks of
// offsets, two entries a vertex but the landmarks 0 and 599), a layout the
// reader refuses with the line naming `hlbuild migrate` however damaged.
type offsetCase struct {
	name, want string
	edit       func(h *container.Header, sec map[uint32][]byte)
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
		{"base[0] not 0", migrateLine, func(_ *container.Header, sec sections) { add64(sec[sectLabelBase], 0, 1) }},
		{"rel not 0 at a block start", migrateLine, func(_ *container.Header, sec sections) {
			add64(sec[sectLabelBase], 1, -1) // every offset as it was
			for v := 256; v < 512; v++ {
				add16(sec[sectLabelRel], v, 1)
			}
		}},
		{"rel steps back inside a block", migrateLine, func(_ *container.Header, sec sections) { add16(sec[sectLabelRel], 300, -3) }},
		{"label longer than k", migrateLine, func(_ *container.Header, sec sections) {
			for v := 5; v < 256; v++ {
				add16(sec[sectLabelRel], v, 1)
			}
		}},
		{"label longer than k across a block boundary", migrateLine, func(_ *container.Header, sec sections) {
			add64(sec[sectLabelBase], 1, 3)
		}},
		{"label shorter than 0 across a block boundary", migrateLine, func(_ *container.Header, sec sections) {
			add64(sec[sectLabelBase], 1, -3)
		}},
		{"base beyond int64", migrateLine, func(_ *container.Header, sec sections) {
			binary.LittleEndian.PutUint64(sec[sectLabelBase][16:], 1<<63+1000)
		}},
		{"off(n) below the header's entries", migrateLine, func(_ *container.Header, sec sections) {
			add16(sec[sectLabelRel], 599, -1)
			add16(sec[sectLabelRel], 600, -1)
		}},
		{"off(n) above the header's entries", migrateLine, func(_ *container.Header, sec sections) {
			add16(sec[sectLabelRel], 600, 1)
		}},
		{"rel one vertex long", migrateLine, func(_ *container.Header, sec sections) {
			sec[sectLabelRel] = append(sec[sectLabelRel], sec[sectLabelRel][1200:]...)
		}},
		{"base one block long", migrateLine, func(_ *container.Header, sec sections) {
			sec[sectLabelBase] = append(sec[sectLabelBase], sec[sectLabelBase][16:]...)
		}},
		{"no rel", migrateLine, func(_ *container.Header, sec sections) { delete(sec, sectLabelRel) }},
		{"rank not below k", migrateLine, func(_ *container.Header, sec sections) { sec[sectLabelRank][17] = 2 }},
		{"rank repeated in a label", migrateLine, func(_ *container.Header, sec sections) { sec[sectLabelRank][1] = 0 }},
		{"ranks of a label descending", migrateLine, func(_ *container.Header, sec sections) {
			sec[sectLabelRank][0], sec[sectLabelRank][1] = 1, 0
		}},
	}
}

// rankMaskCases are malformed rank sections of the path-600 file as the
// previous layout frames it (withDirectory), each with a valid checksum,
// and what the reader says of them ("" for a file it accepts). At k = 2
// vertex v's ranks are bits 2v and 2v+1 of section 14, both set but at
// the landmarks 0 and 599, whose labels are empty: 1 196 set bits in 19
// words, the last 16 bits padding, and section 15 one base and 19 counts,
// one a word. Without section 15 the file is today's, and the reader
// derives the directory.
func rankMaskCases(ix *Index) []offsetCase {
	type sections = map[uint32][]byte
	flip := func(sec sections, bit int) { sec[sectLabelBits][bit/8] ^= 1 << (bit % 8) }
	return []offsetCase{
		{"rank at k", "section 14 holds 1197 ranks, the header says 1196 entries", func(_ *container.Header, sec sections) {
			flip(sec, 598*2+2) // vertex 598's rank 2 is vertex 599's rank 0
		}},
		{"rank the offsets do not count", "section 15 does not count the ranks of section 14 before word 1", func(_ *container.Header, sec sections) {
			flip(sec, 0)
		}},
		{"entry without its rank", "section 15 does not count the ranks of section 14 before word 1", func(_ *container.Header, sec sections) {
			flip(sec, 17*2+1)
		}},
		{"entry without its rank, past the last count", "section 14 holds 1195 ranks, the header says 1196 entries", func(_ *container.Header, sec sections) {
			flip(sec, 598*2+1)
		}},
		{"padding bit set", "section 14 has padding bits set", func(_ *container.Header, sec sections) {
			flip(sec, 1200)
		}},
		{"base not 0", "section 15 does not count the ranks of section 14 before word 0", func(_ *container.Header, sec sections) {
			sec[sectLabelDir][0] = 1
		}},
		{"count off by one", "section 15 does not count the ranks of section 14 before word 5", func(_ *container.Header, sec sections) {
			sec[sectLabelDir][8+5*2]++
		}},
		{"both sections", migrateLine, func(_ *container.Header, sec sections) {
			sec[sectLabelRank] = plainRanksOf(ix)[sectLabelRank]
		}},
		{"neither section", "required section 14 or 17 (the label ranks) missing", func(_ *container.Header, sec sections) {
			delete(sec, sectLabelBits)
		}},
		{"no directory", "", func(_ *container.Header, sec sections) {
			delete(sec, sectLabelDir)
		}},
		{"one byte long", "section 14 has length 153, exceeds 152", func(_ *container.Header, sec sections) {
			sec[sectLabelBits] = append(sec[sectLabelBits], 0)
		}},
		{"one byte short", "section 14 has length 151, want 152", func(_ *container.Header, sec sections) {
			sec[sectLabelBits] = sec[sectLabelBits][:151]
		}},
		{"directory one count long", "section 15 has length 48, exceeds 46", func(_ *container.Header, sec sections) {
			sec[sectLabelDir] = append(sec[sectLabelDir], 0, 0)
		}},
		{"directory one count short", "section 15 has length 44, want 46", func(_ *container.Header, sec sections) {
			sec[sectLabelDir] = sec[sectLabelDir][:44]
		}},
		{"directory of 17 beside them", "section 18, the directory of section 17, beside section 14", func(_ *container.Header, sec sections) {
			sec[sectLeafDir] = sec[sectLabelDir]
		}},
		{"section 13 beside them", migrateLine, func(_ *container.Header, sec sections) {
			sec[sectByteMask] = make([]byte, 600)
		}},
	}
}

// derivedRankCases are malformed rank bits of the path-600 file as today's
// writer frames it, without section 15, and what the reader says of them:
// with no directory to disagree with, a rank too many or too few is one
// the header's entries do not count.
func derivedRankCases() []offsetCase {
	type sections = map[uint32][]byte
	flip := func(bit int) func(*container.Header, sections) {
		return func(_ *container.Header, sec sections) { sec[sectLabelBits][bit/8] ^= 1 << (bit % 8) }
	}
	return []offsetCase{
		{"rank at k", "section 14 holds 1197 ranks, the header says 1196 entries", flip(598*2 + 2)},
		{"rank of a landmark", "section 14 holds 1197 ranks, the header says 1196 entries", flip(0)},
		{"entry without its rank", "section 14 holds 1195 ranks, the header says 1196 entries", flip(17*2 + 1)},
		{"padding bit set", "section 14 has padding bits set", flip(1200)},
		{"one byte short", "section 14 has length 151, want 152", func(_ *container.Header, sec sections) {
			sec[sectLabelBits] = sec[sectLabelBits][:151]
		}},
		{"directory of 17 beside them", "section 18, the directory of section 17, beside section 14", func(_ *container.Header, sec sections) {
			sec[sectLeafDir] = make([]byte, 46)
		}},
	}
}

// leafCases are malformed rank sections of leaves_dir.hl2, leaves.hl2 as
// the previous layout framed it, each with a valid checksum, and what the
// reader says of them ("" for a file it accepts): its 40 kept labels of 8
// ranks each are 40 bytes in section 17 and their directory 14 in section
// 18; every label of leaves_kept.hl2, whose sections 14 and 15 the first
// cases borrow, 72 and 26.
func leafCases(tb testing.TB, kept []byte) []offsetCase {
	type sections = map[uint32][]byte
	var all sections
	reframe(tb, kept, func(_ *container.Header, sec sections) { all = maps.Clone(sec) })
	return []offsetCase{
		{"the kept labels under the ids of all", "section 14 has length 40, want 72", func(_ *container.Header, sec sections) {
			sec[sectLabelBits], sec[sectLabelDir] = sec[sectLeafBits], sec[sectLeafDir]
			delete(sec, sectLeafBits)
			delete(sec, sectLeafDir)
		}},
		{"every label under the ids of the kept", "section 17 has length 72, want 40", func(_ *container.Header, sec sections) {
			sec[sectLeafBits], sec[sectLeafDir] = all[sectLabelBits], all[sectLabelDir]
		}},
		{"section 14 beside them", "both section 14 and section 17 hold the label ranks", func(_ *container.Header, sec sections) {
			sec[sectLabelBits], sec[sectLabelDir] = all[sectLabelBits], all[sectLabelDir]
		}},
		{"the directory of all beside them", "section 15, the directory of section 14, beside section 17", func(_ *container.Header, sec sections) {
			sec[sectLabelDir] = all[sectLabelDir]
		}},
		{"no directory", "", func(_ *container.Header, sec sections) { delete(sec, sectLeafDir) }},
		{"one byte long", "section 17 has length 41, want 40", func(_ *container.Header, sec sections) {
			sec[sectLeafBits] = append(sec[sectLeafBits], 0)
		}},
		{"rank the directory does not count", "section 18 does not count the ranks of section 17 before word 1", func(_ *container.Header, sec sections) {
			sec[sectLeafBits][0] ^= 1 << 7
		}},
		{"the same rank without the directory", "section 17 holds 117 ranks, the header says 116 entries", func(_ *container.Header, sec sections) {
			sec[sectLeafBits][0] ^= 1 << 7
			delete(sec, sectLeafDir)
		}},
		{"a rank more than the header's entries", "section 17 holds 117 ranks, the header says 116 entries", func(_ *container.Header, sec sections) {
			sec[sectLeafBits][39] ^= 1 << 7
		}},
	}
}

// checkReadCase reads file beside g: for a case whose want is "", the
// index a build gives (ix), which writes today's file; else one line
// saying want.
func checkReadCase(t *testing.T, file []byte, g *graph.Graph, ix *Index, want string) {
	t.Helper()
	got, err := Read(bytes.NewReader(file), g)
	if want == "" {
		if err != nil || !indexesIdentical(ix, got) || !bytes.Equal(v2Bytes(t, got), v2Bytes(t, ix)) {
			t.Fatalf("Read: %v, or another index or file than a build's", err)
		}
		return
	}
	if err == nil || !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "\n") {
		t.Fatalf("Read: %v, want one line saying %q", err, want)
	}
}

// TestReadChecksLeaves: a file that keeps no label for its leaves holds
// its rank sections under ids 17 and 18 (17 alone since the directory is
// derived), over the vertices it keeps, which the graph gives: the reader
// holds their lengths to that and refuses them beside sections 14 and 15,
// each by name.
func TestReadChecksLeaves(t *testing.T) {
	ix := goldenLeafIndex(t)
	good := testdata(t, "leaves_dir.hl2")
	for _, c := range leafCases(t, testdata(t, "leaves_kept.hl2")) {
		t.Run(c.name, func(t *testing.T) {
			checkReadCase(t, reframe(t, good, c.edit), ix.Graph(), ix, c.want)
		})
	}
}

// TestReadChecksRankMask: a reader keeps section 14 as it is and labelOf
// finds a label's start by the directory beside it, so each way the bits
// can disagree with the header, n·k or a stored directory is refused by
// name, a file must hold its ranks, a directory is derived where the file
// holds none, and a file with the ranks beside the rank bytes of section 4
// or the masks of section 13, which no writer of today writes, is refused
// with the line naming `hlbuild migrate`. At k = 100 vertex 7's rank 100
// is vertex 8's rank 0, which its label lacks.
func TestReadChecksRankMask(t *testing.T) {
	g, ix := path600(t)
	for _, c := range rankMaskCases(ix) {
		t.Run(c.name, func(t *testing.T) {
			checkReadCase(t, reframe(t, withDirectory(t, ix), c.edit), g, ix, c.want)
		})
	}
	for _, c := range derivedRankCases() {
		t.Run("derived/"+c.name, func(t *testing.T) {
			checkReadCase(t, reframe(t, v2Bytes(t, ix), c.edit), g, ix, c.want)
		})
	}
	t.Run("rank at k, k=100", func(t *testing.T) {
		ba := gen.BarabasiAlbert(2000, 10, 42)
		ix, err := Build(ba, ba.DegreeOrder()[:100])
		if err != nil {
			t.Fatal(err)
		}
		if r, _ := ix.Label(8); len(r) > 0 && r[0] == 0 {
			t.Fatal("test premise broken: vertex 8 holds rank 0")
		}
		file := reframe(t, withDirectory(t, ix), func(_ *container.Header, sec map[uint32][]byte) {
			sec[sectLabelBits][(7*100+100)/8] |= 1 << ((7*100 + 100) % 8)
		})
		if _, err := Read(bytes.NewReader(file), ba); err == nil || !strings.Contains(err.Error(), "section 14 before word 14") {
			t.Fatalf("Read: %v, want vertex 7's rank 100 refused at the stride after it", err)
		}
	})
}

// withDirectory is ix's index file as writers before the directory was
// derived framed it: the rank directory stored beside the rank bits, in
// section 15 (18 when ix elides leaves).
func withDirectory(tb testing.TB, ix *Index) []byte {
	tb.Helper()
	return reframe(tb, v2Bytes(tb, ix), func(_ *container.Header, sec map[uint32][]byte) {
		sec[rankIDs(ix.leaves.words != nil)[1]] = bytes.Clone(ix.labelMask.dir)
	})
}

// TestReadChecksOffsets: the reader holds no offsets: a file whose ranks
// are a byte an entry beside them in sections 7, 8 and 4, as path-600's
// were framed by the writers before sections 14 and 15, is refused with
// the one line naming `hlbuild migrate` before a byte of them is read,
// unedited or damaged in each way the reader of those sections once
// checked. migrate's reader holds such a file to a fresh build's
// (internal/legacy).
func TestReadChecksOffsets(t *testing.T) {
	g, ix := path600(t)
	good := rankBytesFile(t, ix)
	if _, err := Read(bytes.NewReader(good), g); !namesMigrate(err) {
		t.Fatalf("the unedited file: %v, want one line naming hlbuild migrate", err)
	}
	for _, c := range offsetCases() {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Read(bytes.NewReader(reframe(t, good, c.edit)), g); !namesMigrate(err) {
				t.Fatalf("Read: %v, want one line naming hlbuild migrate", err)
			}
		})
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
	t.Run("v2", func(t *testing.T) {
		ix2, err := Read(bytes.NewReader(buf.Bytes()), g)
		if err != nil {
			t.Fatal(err)
		}
		if !indexesIdentical(ix, ix2) {
			t.Fatal("decoded a different index")
		}
		if !bytes.Equal(v2Bytes(t, ix2), buf.Bytes()) {
			t.Fatal("re-saved, it differs from a fresh build's file")
		}
		if err := ix2.Verify(200, 1); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWriteV1Refused: one layout is written. Asking WriteFormat or SaveAs
// for v1 is an error, and SaveAs leaves nothing at the destination.
func TestWriteV1Refused(t *testing.T) {
	ix := goldenIndex(t)
	if err := ix.WriteFormat(new(bytes.Buffer), Format(1)); err == nil {
		t.Fatal("WriteFormat(v1) succeeded")
	}
	path := filepath.Join(t.TempDir(), "idx.v1")
	if err := ix.SaveAs(path, Format(1)); err == nil {
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
	if ix2.NumEntries() != 13 || !indexesIdentical(ix, ix2) {
		t.Fatalf("entries = %d, want 13, or a different index", ix2.NumEntries())
	}
}

func TestReadRejectsCorruptIndex(t *testing.T) {
	g := gen.PaperFigure2()
	var buf bytes.Buffer
	if err := goldenIndex(t).Write(&buf); err != nil {
		t.Fatal(err)
	}
	t.Run("v2", func(t *testing.T) {
		good := buf.Bytes()
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
	// A v1 file is refused however intact, with the line naming the command
	// that rewrites it; so is a truncated one.
	t.Run("v1", func(t *testing.T) {
		good := testdata(t, "tiny.hl1")
		for _, raw := range [][]byte{good, good[:len(good)-3], good[:8]} {
			if _, err := Read(bytes.NewReader(raw), g); !namesMigrate(err) {
				t.Fatalf("v1 file of %d bytes: %v, want one line naming hlbuild migrate", len(raw), err)
			}
		}
	})
}

// TestReadRejectsSameSizeGraph: an index loaded beside a graph it was not
// built on fails with one line, even where n and m agree. It loads beside
// its own graph whether that was built in memory or read from a file;
// without section 11 it is damaged (TestReadWithoutSection11) beside
// either.
func TestReadRejectsSameSizeGraph(t *testing.T) {
	built, other := gen.BarabasiAlbert(2000, 5, 1), gen.BarabasiAlbert(2000, 5, 2)
	if built.NumVertices() != other.NumVertices() || built.NumEdges() != other.NumEdges() {
		t.Fatalf("premise: %v and %v", built, other)
	}
	ix, err := Build(built, built.DegreeOrder()[:16])
	if err != nil {
		t.Fatal(err)
	}
	file := v2Bytes(t, ix)
	_, err = Read(bytes.NewReader(file), other)
	if err == nil || !strings.Contains(err.Error(), "another graph") || strings.Contains(err.Error(), "\n") {
		t.Fatalf("index beside another graph of the same n and m: err = %v, want one line", err)
	}
	var graphFile bytes.Buffer
	if err := built.WriteBinary(&graphFile); err != nil {
		t.Fatal(err)
	}
	loaded, err := graph.ReadBinary(&graphFile)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{"beside the graph built": built, "beside its file": loaded} {
		if _, err := Read(bytes.NewReader(file), g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	damaged := withoutSection11(t, file)
	for _, g := range []*graph.Graph{built, other} {
		if _, err := Read(bytes.NewReader(damaged), g); !namesDamage(err) {
			t.Errorf("without section 11: %v, want one line saying the file is damaged", err)
		}
	}
}

// TestReadWithoutSection11: a file without section 11 is of a layout from
// before it, refused in one line naming the release whose migrate reads
// it, unless it has a section first written after section 11 existed
// (12, or 14 to 20). Such a file is damaged, and that migrate would refuse
// it the same way: grid.hl2 with its section table's id 11, which no
// checksum covers, rewritten to 99 is refused in one line naming no
// migrate.
func TestReadWithoutSection11(t *testing.T) {
	if _, err := Read(bytes.NewReader(withoutSection11(t, testdata(t, "tiny.hl2"))), gen.PaperFigure2()); !namesMigrate(err) || !strings.Contains(err.Error(), container.OldRelease) {
		t.Errorf("tiny.hl2 without section 11: %v, want one line naming hlbuild migrate %s", err, container.OldRelease)
	}
	grid := testdata(t, "grid.hl2")
	const table = len(container.Magic) + 40 + 4 // the magic, then the header and its CRC
	rewritten := 0
	for at := table; at+16 <= len(grid) && rewritten == 0; at += 16 {
		if binary.LittleEndian.Uint32(grid[at:]) == sectGraph {
			binary.LittleEndian.PutUint32(grid[at:], 99)
			rewritten++
		}
	}
	if _, err := Read(bytes.NewReader(grid), gen.Grid(5, 6)); rewritten != 1 || !namesDamage(err) {
		t.Errorf("grid.hl2 with row id 11 rewritten to 99: %v, want one line saying the file is damaged", err)
	}
}

// withoutSection11 is ix's file without section 11: as every writer before
// section 11 framed a file of an older layout, damaged for a later one.
func withoutSection11(tb testing.TB, file []byte) []byte {
	tb.Helper()
	return reframe(tb, file, func(_ *container.Header, sec map[uint32][]byte) { delete(sec, sectGraph) })
}

// namesDamage reports whether err is the one line that refuses a damaged
// file, naming no command that could rewrite it.
func namesDamage(err error) bool {
	return err != nil && strings.Contains(err.Error(), "damaged") && !strings.Contains(err.Error(), "migrate") && !strings.Contains(err.Error(), "\n")
}

// migrateLine is what the reader says of a file of a retired layout: it
// names the command that rewrites it.
const migrateLine = "hlbuild migrate"

// namesMigrate reports whether err is the one line that refuses a retired
// layout by naming the command that rewrites it.
func namesMigrate(err error) bool {
	return err != nil && strings.Contains(err.Error(), "hlbuild migrate") && !strings.Contains(err.Error(), "\n")
}

// TestV2ChecksumCatchesBitFlips: any single corrupted payload byte must be
// rejected by a section CRC.
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
	// base inflates some exact distance. At w = 2, setting the high bit of
	// a base code of 0 (a label whose nearest landmark is 1 hop away) makes
	// it 2 without escaping.
	if ix.labelDist[0] != 2 {
		t.Fatalf("test premise broken: base width %d, want 2", ix.labelDist[0])
	}
	for v := range uint(ix.slots()) {
		if bit := v * 2; ix.labelMask.size(int32(v)) > 0 && ix.dist.bases[bit/8]>>(bit%8)&3 == 0 {
			ix.dist.bases[bit/8] |= 2 << (bit % 8)
			break
		}
	}
	if err := ix.Verify(2000, 2); err == nil {
		t.Fatal("corrupted index passed verification")
	}
}
