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
	ids := []uint32{sectLandmarks, sectHighway, sectLabelBase, sectLabelRel, sectLeafBase, sectLeafRel, sectLabelRank, sectByteMask, sectLabelBits, sectLabelDir, sectLeafBits, sectLeafDir, sectLabelDist, sectLabelExcess, sectOverflow, sectGraph}
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

// rankBytesFile is ix's index file with its ranks in sections 7, 8 and 4,
// whatever their form: a file as every writer before sections 14 and 15
// framed a labelling whose ranks took rank bytes, and every writer before
// section 13 framed every labelling.
func rankBytesFile(tb testing.TB, ix *Index) []byte {
	tb.Helper()
	h, sections := ix.Sections()
	plain, ids := plainRanksOf(ix), rankIDs(ix.leaves.words != nil)
	var out []container.Section
	for _, s := range sections {
		switch s.ID {
		case ids[0]:
			for i, id := range []uint32{sectLabelBase, sectLabelRel, sectLabelRank} {
				out = append(out, container.Section{ID: append(ids[2:], sectLabelRank)[i], Payload: plain[id]})
			}
		case ids[1]:
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

// path600 is the index whose labels need the escape at w = 8: both ends of
// a 600-vertex path as landmarks, 686 entries 256 hops or more from theirs.
// Every vertex but the two ends holds both ranks, so its ranks take the
// mask: 152 bytes of bits and 46 of directory against 2 422.
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
			sec[sectOverflow] = append(sec[sectOverflow], record(1, 0, 300)...) // d(0,1) = 1
			h.Aux2++
		}},
		{"duplicate record", "duplicate overflow record", func(h *container.Header, sec map[uint32][]byte) {
			sec[sectOverflow] = append(sec[sectOverflow], sec[sectOverflow][:9]...)
			h.Aux2++
		}},
		{"rank not below k", "bad overflow record (v=1 rank=2", func(h *container.Header, sec map[uint32][]byte) {
			sec[sectOverflow][4] = 2
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

// offsetCase is one malformed offsets or rank section, or pair of them, with
// a valid checksum: an edit of the path-600 file with its ranks in section
// 4 (k = 2, three blocks, two entries a vertex but the landmarks 0 and 599)
// and what the reader says of it.
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
		{"base[0] not 0", "do not start at 0", func(_ *container.Header, sec sections) { add64(sec[sectLabelBase], 0, 1) }},
		{"rel not 0 at a block start", "does not restart its block", func(_ *container.Header, sec sections) {
			add64(sec[sectLabelBase], 1, -1) // every offset as it was
			for v := 256; v < 512; v++ {
				add16(sec[sectLabelRel], v, 1)
			}
		}},
		{"rel steps back inside a block", "not monotone", func(_ *container.Header, sec sections) { add16(sec[sectLabelRel], 300, -3) }},
		{"label longer than k", "label of 3 entries at vertex 4", func(_ *container.Header, sec sections) {
			for v := 5; v < 256; v++ {
				add16(sec[sectLabelRel], v, 1)
			}
		}},
		{"label longer than k across a block boundary", "label of 5 entries at vertex 255", func(_ *container.Header, sec sections) {
			add64(sec[sectLabelBase], 1, 3)
		}},
		{"label shorter than 0 across a block boundary", "not monotone", func(_ *container.Header, sec sections) {
			add64(sec[sectLabelBase], 1, -3)
		}},
		{"base beyond int64", "not monotone", func(_ *container.Header, sec sections) {
			binary.LittleEndian.PutUint64(sec[sectLabelBase][16:], 1<<63+1000)
		}},
		{"off(n) below the header's entries", "offsets claim 1195 entries, header says 1196", func(_ *container.Header, sec sections) {
			add16(sec[sectLabelRel], 599, -1)
			add16(sec[sectLabelRel], 600, -1)
		}},
		{"off(n) above the header's entries", "offsets pass the header's 1196 entries", func(_ *container.Header, sec sections) {
			add16(sec[sectLabelRel], 600, 1)
		}},
		{"rel one vertex long", "section 8 has length", func(_ *container.Header, sec sections) {
			sec[sectLabelRel] = append(sec[sectLabelRel], sec[sectLabelRel][1200:]...)
		}},
		{"base one block long", "section 7 has length", func(_ *container.Header, sec sections) {
			sec[sectLabelBase] = append(sec[sectLabelBase], sec[sectLabelBase][16:]...)
		}},
		{"no rel", "required section 8 missing", func(_ *container.Header, sec sections) { delete(sec, sectLabelRel) }},
		{"rank not below k", "out of range", func(_ *container.Header, sec sections) { sec[sectLabelRank][17] = 2 }},
		{"rank repeated in a label", "not ascending", func(_ *container.Header, sec sections) { sec[sectLabelRank][1] = 0 }},
		{"ranks of a label descending", "not ascending", func(_ *container.Header, sec sections) {
			sec[sectLabelRank][0], sec[sectLabelRank][1] = 1, 0
		}},
	}
}

// rankMaskCases are malformed rank sections of the path-600 file as a
// build writes it, each with a valid checksum, and what the reader says of
// them. At k = 2 vertex v's ranks are bits 2v and 2v+1 of section 14, both
// set but at the landmarks 0 and 599, whose labels are empty: 1 196 set
// bits in 19 words, the last 16 bits padding, and section 15 one base and
// 19 counts, one a word.
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
		{"both sections", "both section 4 and section 14", func(_ *container.Header, sec sections) {
			sec[sectLabelRank] = plainRanksOf(ix)[sectLabelRank]
		}},
		{"neither section", "required section 4 or 14 (the label ranks) missing", func(_ *container.Header, sec sections) {
			delete(sec, sectLabelBits)
		}},
		{"no directory", "required section 15 missing", func(_ *container.Header, sec sections) {
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
		{"section 13 beside them", "hlbuild migrate", func(_ *container.Header, sec sections) {
			sec[sectByteMask] = make([]byte, 600)
		}},
	}
}

// leafCases are malformed rank sections of leaves.hl2, each with a valid
// checksum, and what the reader says of them: its 40 kept labels of 8
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
		{"section 14 beside them", "both section 17 and section 4 or 14", func(_ *container.Header, sec sections) {
			sec[sectLabelBits], sec[sectLabelDir] = all[sectLabelBits], all[sectLabelDir]
		}},
		{"no directory", "required section 18 missing", func(_ *container.Header, sec sections) { delete(sec, sectLeafDir) }},
		{"one byte long", "section 17 has length 41, want 40", func(_ *container.Header, sec sections) {
			sec[sectLeafBits] = append(sec[sectLeafBits], 0)
		}},
		{"rank the directory does not count", "section 18 does not count the ranks of section 17 before word 1", func(_ *container.Header, sec sections) {
			sec[sectLeafBits][0] ^= 1 << 7
		}},
		{"a rank more than the header's entries", "section 17 holds 117 ranks, the header says 116 entries", func(_ *container.Header, sec sections) {
			sec[sectLeafBits][39] ^= 1 << 7
		}},
	}
}

// TestReadChecksLeaves: a file that keeps no label for its leaves holds
// its rank sections under ids 17 and 18, over the vertices it keeps, which
// the graph gives: the reader holds their lengths to that and refuses them
// beside sections 14 and 15, each by name.
func TestReadChecksLeaves(t *testing.T) {
	ix := goldenLeafIndex(t)
	good := testdata(t, "leaves.hl2")
	for _, c := range leafCases(t, testdata(t, "leaves_kept.hl2")) {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(reframe(t, good, c.edit)), ix.Graph())
			if err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "\n") {
				t.Fatalf("Read: %v, want one line saying %q", err, c.want)
			}
		})
	}
}

// TestReadChecksRankMask: a reader keeps sections 14 and 15 as they are
// and labelOf finds a label's start by the directory, so each way the bits
// can disagree with the directory, the header or n·k is refused by name,
// a file must hold one rank form, not both or neither, and a file with
// the masks of section 13, which no writer of today writes, is refused
// with the line naming `hlbuild migrate`. At k = 100 vertex 7's rank 100
// is vertex 8's rank 0, which its label lacks.
func TestReadChecksRankMask(t *testing.T) {
	g, ix := path600(t)
	good := v2Bytes(t, ix)
	if ix.labelMask.bits == nil {
		t.Fatal("test premise broken: path-600 keeps rank bytes")
	}
	for _, c := range rankMaskCases(ix) {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(reframe(t, good, c.edit)), g)
			if err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "\n") {
				t.Fatalf("Read: %v, want one line saying %q", err, c.want)
			}
		})
	}
	t.Run("rank at k, k=100", func(t *testing.T) {
		ba := gen.BarabasiAlbert(2000, 10, 42)
		ix, err := Build(ba, ba.DegreeOrder()[:100])
		if err != nil || ix.labelMask.bits == nil {
			t.Fatalf("test premise broken: %v, mask form %v", err, ix != nil && ix.labelMask.bits != nil)
		}
		if r, _ := ix.Label(8); len(r) > 0 && r[0] == 0 {
			t.Fatal("test premise broken: vertex 8 holds rank 0")
		}
		file := reframe(t, v2Bytes(t, ix), func(_ *container.Header, sec map[uint32][]byte) {
			sec[sectLabelBits][(7*100+100)/8] |= 1 << ((7*100 + 100) % 8)
		})
		if _, err := Read(bytes.NewReader(file), ba); err == nil || !strings.Contains(err.Error(), "section 14 before word 14") {
			t.Fatalf("Read: %v, want vertex 7's rank 100 refused at the stride after it", err)
		}
	})
}

// TestReadChecksOffsets: the offsets are bytes the index keeps and every
// query indexes the labels by, so the reader holds them to what a writer
// produces — and the ranks of each label in section 4 to ascending and
// below k, which bounds a label at k entries and is what labelOf assumes.
// The file is path-600's with its ranks in section 4, as the writers
// before section 13 framed it: it loads as the index a build gives, which
// writes the mask.
func TestReadChecksOffsets(t *testing.T) {
	g, ix := path600(t)
	good := rankBytesFile(t, ix)
	got, err := Read(bytes.NewReader(good), g)
	if err != nil || !indexesIdentical(ix, got) || !bytes.Equal(v2Bytes(t, got), v2Bytes(t, ix)) {
		t.Fatalf("the unedited file does not load as the index it was written from: %v", err)
	}
	for _, c := range offsetCases() {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(reframe(t, good, c.edit)), g)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Read: %v, want an error saying %q", err, c.want)
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
// its own graph whether that was built in memory or read from a file; a
// file without section 11 — every file written before it — is refused
// beside either with the one line naming `hlbuild migrate`.
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
	old := withoutSection11(t, file)
	for _, g := range []*graph.Graph{built, other} {
		if _, err := Read(bytes.NewReader(old), g); !namesMigrate(err) {
			t.Errorf("without section 11: %v, want one line naming hlbuild migrate", err)
		}
	}
}

// withoutSection11 is an index file as every writer before section 11
// framed it.
func withoutSection11(tb testing.TB, file []byte) []byte {
	tb.Helper()
	return reframe(tb, file, func(_ *container.Header, sec map[uint32][]byte) { delete(sec, sectGraph) })
}

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
	// entry inflates some exact distance. At w = 2, setting the high bit of
	// a distance-1 code makes it 3 without escaping.
	if ix.labelDist[0] != 2 {
		t.Fatalf("test premise broken: distance width %d, want 2", ix.labelDist[0])
	}
	for p := range uint64(ix.NumEntries()) {
		if bit := p * 2; ix.labelDist[1+bit/8]>>(bit%8)&3 == 0 {
			ix.labelDist[1+bit/8] |= 2 << (bit % 8)
			break
		}
	}
	if err := ix.Verify(2000, 2); err == nil {
		t.Fatal("corrupted index passed verification")
	}
}
