package method

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// frame lays a container file out by hand: no section limit, any header.
// It is how these tests get the files WriteContainer refuses to write. claim, where it has an entry for a row
// index, replaces that row's length field (the payload stays as given).
func frame(h Header, rows []Section, claim map[int]uint64) []byte {
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 2)
	binary.LittleEndian.PutUint64(hdr[8:16], h.N)
	binary.LittleEndian.PutUint32(hdr[16:20], h.K)
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(len(rows)))
	binary.LittleEndian.PutUint64(hdr[24:32], h.Aux1)
	binary.LittleEndian.PutUint64(hdr[32:40], h.Aux2)
	return frameHeader(hdr, rows, claim)
}

// frameHeader is frame with the 40 header bytes supplied (and
// checksummed as they are).
func frameHeader(hdr [headerLen]byte, rows []Section, claim map[int]uint64) []byte {
	out := append([]byte{}, magicV2[:]...)
	out = append(out, hdr[:]...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(hdr[:], castagnoli))
	for i, s := range rows {
		length := uint64(len(s.Payload))
		if c, ok := claim[i]; ok {
			length = c
		}
		out = binary.LittleEndian.AppendUint32(out, s.ID)
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(s.Payload, castagnoli))
		out = binary.LittleEndian.AppendUint64(out, length)
	}
	for _, s := range rows {
		out = append(out, s.Payload...)
	}
	return out
}

// tableIDs returns the section ids of a well-formed file in table order.
func tableIDs(file []byte) []uint32 {
	const tableStart = len(magicV2) + headerLen + 4
	ids := make([]uint32, binary.LittleEndian.Uint32(file[8+20:]))
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint32(file[tableStart+i*tableRow:])
	}
	return ids
}

// exactly is an expect function allowing each section its given length.
func exactly(sections []Section) func(Header) (map[uint32]uint64, error) {
	return func(Header) (map[uint32]uint64, error) {
		bounds := make(map[uint32]uint64)
		for _, s := range sections {
			bounds[s.ID] = uint64(len(s.Payload))
		}
		return bounds, nil
	}
}

// decode reads file the way the core decoder does: ReadContainer, then
// every section it needs must be there.
func decode(file []byte, sections []Section) (Header, map[uint32][]byte, error) {
	h, got, err := ReadContainer(bytes.NewReader(file), exactly(sections))
	if err != nil {
		return h, nil, err
	}
	for _, s := range sections {
		if _, ok := got[s.ID]; !ok {
			return h, nil, fmt.Errorf("required section %d missing", s.ID)
		}
	}
	return h, got, nil
}

func mustWrite(tb testing.TB, h Header, sections []Section) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteContainer(&buf, h, sections); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

var (
	testSections = []Section{
		{ID: SectTag + 1, Payload: []byte("first payload")},
		{ID: SectTag + 2, Payload: nil},
		{ID: SectTag + 3, Payload: bytes.Repeat([]byte{0xA5}, 300)},
	}
	coreSections = []Section{{ID: 1, Payload: []byte{9, 0, 0, 0}}, {ID: 5, Payload: []byte("dist")}}
)

func TestContainerRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name     string
		h        Header
		sections []Section
	}{
		{"wide header", Header{N: 1 << 40, K: 7, Aux1: 11, Aux2: 1<<64 - 1}, testSections},
		{"hl", Header{N: 12, K: 3, Aux1: 13}, coreSections},
	} {
		t.Run(tc.name, func(t *testing.T) {
			file := mustWrite(t, tc.h, tc.sections)
			wantIDs := []uint32{}
			for _, s := range tc.sections {
				wantIDs = append(wantIDs, s.ID)
			}
			if ids := tableIDs(file); fmt.Sprint(ids) != fmt.Sprint(wantIDs) {
				t.Fatalf("table ids %v, want %v", ids, wantIDs)
			}
			h, got, err := decode(file, tc.sections)
			if err != nil {
				t.Fatal(err)
			}
			if h != tc.h {
				t.Fatalf("header %+v, want %+v", h, tc.h)
			}
			for _, s := range tc.sections {
				if !bytes.Equal(got[s.ID], s.Payload) {
					t.Fatalf("section %d: %q, want %q", s.ID, got[s.ID], s.Payload)
				}
			}
			if again := mustWrite(t, h, tc.sections); !bytes.Equal(again, file) {
				t.Fatal("writing is not deterministic")
			}
		})
	}
}

// TestUntaggedLayout spells a core file out byte by byte:
// this is the layout comment of container.go as a test, and what keeps
// frame honest.
func TestUntaggedLayout(t *testing.T) {
	header := []byte{
		2, 0, 0, 0, // version
		0, 0, 0, 0, // flags
		12, 0, 0, 0, 0, 0, 0, 0, // n
		3, 0, 0, 0, // k
		2, 0, 0, 0, // sections
		13, 0, 0, 0, 0, 0, 0, 0, // aux1
		1, 2, 0, 0, 0, 0, 0, 0, // aux2 = 513
	}
	crcOf := func(b []byte) []byte {
		return binary.LittleEndian.AppendUint32(nil, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
	}
	want := []byte("HWLIDX02")
	want = append(want, header...)
	want = append(want, crcOf(header)...)
	want = append(want, 1, 0, 0, 0) // row 0: id 1
	want = append(want, crcOf(coreSections[0].Payload)...)
	want = append(want, 4, 0, 0, 0, 0, 0, 0, 0)
	want = append(want, 5, 0, 0, 0) // row 1: id 5
	want = append(want, crcOf(coreSections[1].Payload)...)
	want = append(want, 4, 0, 0, 0, 0, 0, 0, 0)
	want = append(want, 9, 0, 0, 0)
	want = append(want, "dist"...)

	h := Header{N: 12, K: 3, Aux1: 13, Aux2: 513}
	if got := mustWrite(t, h, coreSections); !bytes.Equal(got, want) {
		t.Fatalf("WriteContainer:\n got %x\nwant %x", got, want)
	}
	if got := frame(h, coreSections, nil); !bytes.Equal(got, want) {
		t.Fatalf("frame:\n got %x\nwant %x", got, want)
	}
}

// TestContainerRejectsBitFlips: every single-bit corruption of a file is
// caught — by the magic, the header CRC, a section CRC,
// a length bound, or (the table's ids are not checksummed) by a section
// the decoder needs having become one it does not know.
func TestContainerRejectsBitFlips(t *testing.T) {
	for _, tc := range []struct {
		h        Header
		sections []Section
	}{
		{Header{N: 9, K: 2}, testSections},
		{Header{N: 12, K: 3}, coreSections},
	} {
		file := mustWrite(t, tc.h, tc.sections)
		if _, _, err := decode(file, tc.sections); err != nil {
			t.Fatalf("test premise broken: %v", err)
		}
		for pos := range file {
			for bit := 0; bit < 8; bit++ {
				bad := append([]byte{}, file...)
				bad[pos] ^= 1 << bit
				if _, _, err := decode(bad, tc.sections); err == nil {
					t.Errorf("%d sections: flipped bit %d of byte %d accepted", len(tc.sections), bit, pos)
				}
			}
		}
	}
}

// TestContainerSkipsUnknownSections: forward compatibility. Sections of
// ids the decoder does not list are skipped wherever they sit, without
// being buffered.
func TestContainerSkipsUnknownSections(t *testing.T) {
	future := Section{ID: 99, Payload: []byte("from a later version")}
	for _, at := range []int{0, 1, len(testSections)} {
		sections := append(append(append([]Section{}, testSections[:at]...), future), testSections[at:]...)
		file := mustWrite(t, Header{N: 5, K: 1}, sections)
		_, got, err := decode(file, testSections)
		if err != nil {
			t.Fatalf("unknown section at %d: %v", at, err)
		}
		if _, kept := got[future.ID]; kept || len(got) != len(testSections) {
			t.Fatalf("unknown section at %d: got ids %v", at, got)
		}
		for _, s := range testSections {
			if !bytes.Equal(got[s.ID], s.Payload) {
				t.Fatalf("unknown section at %d changed section %d", at, s.ID)
			}
		}
	}
}

// retiredTag is the method-tag section a baseline's index file began with.
func retiredTag(name string) Section { return Section{ID: SectTag, Payload: []byte(name)} }

func TestContainerRejects(t *testing.T) {
	h := Header{N: 4, K: 1}
	tag := retiredTag
	a, b := testSections[0], testSections[2]
	var hdr [headerLen]byte
	copy(hdr[:], frame(h, []Section{a}, nil)[len(magicV2):])
	version3, flagged := hdr, hdr
	version3[0] = 3
	flagged[4] = 1

	for _, tc := range []struct {
		name string
		file []byte
		msg  string // what the error must say
	}{
		{"duplicate known id", frame(h, []Section{a, b, a}, nil), "duplicate section 33"},
		// The row claims a petabyte; the bound stops it before any
		// buffer of that size exists.
		{"section longer than allowed", frame(h, []Section{a, b}, map[int]uint64{1: 1 << 50}), "section 35 has length 1125899906842624, exceeds 300"},
		{"empty tag", frame(h, []Section{tag(""), a}, nil), `index file tagged "" is no longer loadable`},
		{"explicit hl tag", frame(h, []Section{tag("hl"), a}, nil), `index file tagged "hl" is no longer loadable`},
		{"tag longer than 64", frame(h, []Section{tag(strings.Repeat("x", 65)), a}, nil), "tag section length 65 exceeds 64"},
		{"65 sections", frame(h, append([]Section{a}, make([]Section, 64)...), nil), "implausible section count 65"},
		{"no sections", frame(h, nil, nil), "implausible section count 0"},
		{"another method's file", frame(h, []Section{tag("isl"), a}, nil), `index file tagged "isl" is no longer loadable`},
		{"tagged file read as hl", frame(h, []Section{tag("pll"), a}, nil), `index file tagged "pll" is no longer loadable`},
		{"tag not first", frame(h, []Section{a, tag("pll")}, nil), "tag section 32 is not the first section"},
		{"second tag", frame(h, []Section{tag("pll"), a, tag("isl")}, nil), `tagged "pll"`},
		{"v1 stream", []byte("HWLIDX01 and then whatever"), "v1 files are decoded by internal/core"},
		{"bad magic", []byte("HWLIDX03 and then whatever"), "bad magic"},
		{"version 3", frameHeader(version3, []Section{a}, nil), "container version 3 unsupported"},
		{"flags set", frameHeader(flagged, []Section{a}, nil), "unsupported flags 0x1"},
		{"truncated table", frame(h, []Section{a}, nil)[:len(magicV2)+headerLen+4+3], "reading section table"},
		{"truncated payload", frame(h, []Section{a}, nil)[:len(frame(h, []Section{a}, nil))-1], "reading section 33"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadContainer(bytes.NewReader(tc.file), exactly([]Section{a, b}))
			if err == nil || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("err = %v, want one saying %q", err, tc.msg)
			}
		})
	}

	// expect's own verdict on the header is passed through.
	veto := errors.New("n is not my graph's")
	_, _, err := ReadContainer(bytes.NewReader(frame(h, []Section{a}, nil)), func(Header) (map[uint32]uint64, error) { return nil, veto })
	if !errors.Is(err, veto) {
		t.Fatalf("expect's error lost: %v", err)
	}
}

func TestWriteContainerRejects(t *testing.T) {
	if err := WriteContainer(io.Discard, Header{}, make([]Section, 65)); err == nil {
		t.Error("65 sections written")
	}
	if err := WriteContainer(io.Discard, Header{}, make([]Section, 64)); err != nil {
		t.Errorf("64 sections: %v", err)
	}
}

// TestRetiredMethodTag: the reader still reads a retired baseline's
// method tag, only to refuse the file. A container whose first section is
// the tag fails with one line naming the method, before any other section
// is read and whatever follows; the tag row's claimed length is bounded
// before the tag is read.
func TestRetiredMethodTag(t *testing.T) {
	h := Header{N: 3, K: 1}
	for _, name := range []string{"pll", "dynhl"} {
		for _, file := range [][]byte{
			mustWrite(t, h, append([]Section{retiredTag(name)}, testSections...)),
			// The section after the tag claims a petabyte: it is never reached.
			frame(h, []Section{retiredTag(name), testSections[2]}, map[int]uint64{1: 1 << 50}),
		} {
			_, _, err := ReadContainer(bytes.NewReader(file), exactly(testSections))
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q is no longer loadable", name)) || strings.Contains(err.Error(), "\n") {
				t.Errorf("%s: err = %v, want one line naming it as no longer loadable", name, err)
			}
		}
	}
	huge := frame(h, []Section{retiredTag("pll")}, map[int]uint64{0: 1 << 50})
	if _, _, err := ReadContainer(bytes.NewReader(huge), exactly(testSections)); err == nil || !strings.Contains(err.Error(), "tag section length 1125899906842624 exceeds 64") {
		t.Errorf("tag claiming a petabyte: %v", err)
	}
}

// TestSaveFile: a save that fails half-way leaves the previous file as it
// was and nothing else in the directory; one that succeeds replaces it.
func TestSaveFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.idx")
	entries := func() string {
		names, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(names)
	}
	save := func(content string, fail error) error {
		return SaveFile(path, func(w io.Writer) error {
			if _, err := io.WriteString(w, content[:len(content)/2]); err != nil {
				return err
			}
			if fail != nil {
				return fail
			}
			_, err := io.WriteString(w, content[len(content)/2:])
			return err
		})
	}
	check := func(want string) {
		t.Helper()
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("file holds %q, %v; want %q", got, err, want)
		}
		if got := entries(); got != fmt.Sprint([]string{path}) {
			t.Fatalf("directory holds %s", got)
		}
	}

	diskFull := errors.New("disk full")
	if err := save("never lands", diskFull); !errors.Is(err, diskFull) {
		t.Fatalf("failed first save: err = %v", err)
	}
	if got := entries(); got != "[]" {
		t.Fatalf("failed first save left %s", got)
	}
	if err := save("the first index", nil); err != nil {
		t.Fatal(err)
	}
	check("the first index")
	if err := save("a second index, cut short", diskFull); !errors.Is(err, diskFull) {
		t.Fatalf("failed save: err = %v", err)
	}
	check("the first index")
	if err := save("the second index", nil); err != nil {
		t.Fatal(err)
	}
	check("the second index")
	if err := SaveFile(filepath.Join(dir, "no", "such", "dir.idx"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
}

func TestEncodingHelpers(t *testing.T) {
	i32 := []int32{0, -1, 1 << 30, -1 << 31}
	got32 := make([]int32, len(i32))
	if err := DecodeI32s(AppendI32s(nil, i32), got32); err != nil || fmt.Sprint(got32) != fmt.Sprint(i32) {
		t.Errorf("int32 round trip: %v, %v", got32, err)
	}
	if got := AppendI32s([]byte{7}, []int32{258}); !bytes.Equal(got, []byte{7, 2, 1, 0, 0}) {
		t.Errorf("AppendI32s is not little-endian append: %v", got)
	}
	if DecodeI32s(make([]byte, 7), got32) == nil {
		t.Error("payload of the wrong length decoded")
	}
}

// FuzzReadContainer: on arbitrary bytes the reader never panics and never
// hands back (so never allocated) a section past its bound, and a file it
// accepts in full is one WriteContainer writes back byte for byte.
func FuzzReadContainer(f *testing.F) {
	for _, file := range [][]byte{
		mustWrite(f, Header{N: 4, K: 1, Aux1: 3}, testSections),
		mustWrite(f, Header{N: 12, K: 3, Aux1: 13}, coreSections),
		frame(Header{}, []Section{testSections[0], retiredTag("pll")}, nil),
		frame(Header{}, []Section{testSections[0], testSections[2]}, map[int]uint64{1: 1 << 50}),
		[]byte("HWLIDX01"),
		[]byte("HWLIDX02"),
	} {
		f.Add(file)
		f.Add(file[:len(file)/2])
	}
	bounds := map[uint32]uint64{1: 64, 5: 64, SectTag + 1: 64, SectTag + 2: 0, SectTag + 3: 300}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, got, err := ReadContainer(bytes.NewReader(data), func(Header) (map[uint32]uint64, error) { return bounds, nil })
		if err != nil {
			return
		}
		var sections []Section
		for _, id := range tableIDs(data) {
			payload, ok := got[id]
			if uint64(len(payload)) > bounds[id] {
				t.Fatalf("section %d: %d bytes, bound %d", id, len(payload), bounds[id])
			}
			if !ok {
				return // a skipped section's bytes are not there to write back
			}
			sections = append(sections, Section{ID: id, Payload: payload})
		}
		var out bytes.Buffer
		if err := WriteContainer(&out, h, sections); err != nil {
			t.Fatalf("accepted file cannot be written back: %v", err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("accepted file re-encodes differently:\n got %x\nfrom %x", out.Bytes(), data)
		}
	})
}
