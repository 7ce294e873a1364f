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

// frame lays a container file out by hand: no tag row added, no section
// limit, no tag checks. It is how these tests get the files
// WriteContainer refuses to write. claim, where it has an entry for a row
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

// decode reads file the way every method's decoder does: ReadContainer,
// then every section it needs must be there.
func decode(file []byte, want string, sections []Section) (Header, map[uint32][]byte, error) {
	h, got, err := ReadContainer(bytes.NewReader(file), want, exactly(sections))
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
		h        Header
		sections []Section
	}{
		{Header{Method: "pll", N: 1 << 40, K: 7, Aux1: 11, Aux2: 1<<64 - 1}, testSections},
		{Header{Method: TagHL, N: 12, K: 3, Aux1: 13}, coreSections},
	} {
		t.Run(tc.h.Method, func(t *testing.T) {
			file := mustWrite(t, tc.h, tc.sections)
			wantIDs := []uint32{}
			if tc.h.Method != TagHL {
				wantIDs = append(wantIDs, SectTag)
			}
			for _, s := range tc.sections {
				wantIDs = append(wantIDs, s.ID)
			}
			if ids := tableIDs(file); fmt.Sprint(ids) != fmt.Sprint(wantIDs) {
				t.Fatalf("table ids %v, want %v", ids, wantIDs)
			}
			h, got, err := decode(file, tc.h.Method, tc.sections)
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

// TestUntaggedLayout spells an untagged (core) file out byte by byte:
// this is the layout comment of container.go as a test, and what keeps
// frame honest.
func TestUntaggedLayout(t *testing.T) {
	header := []byte{
		2, 0, 0, 0, // version
		0, 0, 0, 0, // flags
		12, 0, 0, 0, 0, 0, 0, 0, // n
		3, 0, 0, 0, // k
		2, 0, 0, 0, // sections: no tag row
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

	h := Header{Method: TagHL, N: 12, K: 3, Aux1: 13, Aux2: 513}
	if got := mustWrite(t, h, coreSections); !bytes.Equal(got, want) {
		t.Fatalf("WriteContainer:\n got %x\nwant %x", got, want)
	}
	if got := frame(h, coreSections, nil); !bytes.Equal(got, want) {
		t.Fatalf("frame:\n got %x\nwant %x", got, want)
	}
}

// TestContainerRejectsBitFlips: every single-bit corruption of a file,
// tagged or not, is caught — by the magic, the header CRC, a section CRC,
// a length bound, or (the table's ids are not checksummed) by a section
// the decoder needs having become one it does not know.
func TestContainerRejectsBitFlips(t *testing.T) {
	for _, tc := range []struct {
		h        Header
		sections []Section
	}{
		{Header{Method: "isl", N: 9, K: 2}, testSections},
		{Header{Method: TagHL, N: 12, K: 3}, coreSections},
	} {
		file := mustWrite(t, tc.h, tc.sections)
		if _, _, err := decode(file, tc.h.Method, tc.sections); err != nil {
			t.Fatalf("test premise broken: %v", err)
		}
		for pos := range file {
			for bit := 0; bit < 8; bit++ {
				bad := append([]byte{}, file...)
				bad[pos] ^= 1 << bit
				if _, _, err := decode(bad, tc.h.Method, tc.sections); err == nil {
					t.Errorf("method %q: flipped bit %d of byte %d accepted", tc.h.Method, bit, pos)
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
		file := mustWrite(t, Header{Method: "fd", N: 5, K: 1}, sections)
		_, got, err := decode(file, "fd", testSections)
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

func TestContainerRejects(t *testing.T) {
	h := Header{Method: "pll", N: 4, K: 1}
	tag := func(s string) Section { return Section{ID: SectTag, Payload: []byte(s)} }
	tagged := func(rows ...Section) []Section { return append([]Section{tag("pll")}, rows...) }
	a, b := testSections[0], testSections[2]
	var hdr [headerLen]byte
	copy(hdr[:], frame(h, tagged(a), nil)[len(magicV2):])
	version3, flagged := hdr, hdr
	version3[0] = 3
	flagged[4] = 1

	for _, tc := range []struct {
		name string
		file []byte
		want string // the tag asked for
		msg  string // what the error must say
	}{
		{"duplicate known id", frame(h, tagged(a, b, a), nil), "pll", "duplicate section 33"},
		// The row claims a petabyte; the bound stops it before any
		// buffer of that size exists.
		{"section longer than allowed", frame(h, tagged(a, b), map[int]uint64{2: 1 << 50}), "pll", "section 35 has length 1125899906842624, exceeds 300"},
		{"empty tag", frame(h, []Section{tag(""), a}, nil), "pll", `bad method tag ""`},
		{"explicit hl tag", frame(h, []Section{tag(TagHL), a}, nil), TagHL, `bad method tag "hl"`},
		{"tag longer than 64", frame(h, []Section{tag(strings.Repeat("x", 65)), a}, nil), "pll", "tag section length 65 exceeds 64"},
		{"65 sections", frame(h, append(tagged(a), make([]Section, 63)...), nil), "pll", "implausible section count 65"},
		{"no sections", frame(h, nil, nil), "pll", "implausible section count 0"},
		{"another method's file", frame(h, tagged(a), nil), "isl", `index file is method "pll", not "isl": load it through the method registry (highway.LoadIndexAny)`},
		{"tagged file read as hl", frame(h, tagged(a), nil), TagHL, `index file is method "pll", not "hl"`},
		{"untagged file read as pll", frame(h, []Section{a}, nil), "pll", `index file is method "hl", not "pll"`},
		{"tag not first", frame(h, []Section{a, tag("pll")}, nil), TagHL, "tag section 32 is not the first section"},
		{"second tag", frame(h, tagged(a, tag("isl")), nil), "pll", "tag section 32 is not the first section"},
		{"v1 stream", []byte("HWLIDX01 and then whatever"), TagHL, "v1 files are decoded by internal/core"},
		{"bad magic", []byte("HWLIDX03 and then whatever"), TagHL, "bad magic"},
		{"version 3", frameHeader(version3, tagged(a), nil), "pll", "container version 3 unsupported"},
		{"flags set", frameHeader(flagged, tagged(a), nil), "pll", "unsupported flags 0x1"},
		{"truncated table", frame(h, tagged(a), nil)[:len(magicV2)+headerLen+4+tableRow+3], "pll", "reading section table"},
		{"truncated payload", frame(h, tagged(a), nil)[:len(frame(h, tagged(a), nil))-1], "pll", "reading section 33"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadContainer(bytes.NewReader(tc.file), tc.want, exactly([]Section{a, b}))
			if err == nil || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("err = %v, want one saying %q", err, tc.msg)
			}
		})
	}

	// expect's own verdict on the header is passed through.
	veto := errors.New("n is not my graph's")
	_, _, err := ReadContainer(bytes.NewReader(frame(h, tagged(a), nil)), "pll", func(Header) (map[uint32]uint64, error) { return nil, veto })
	if !errors.Is(err, veto) {
		t.Fatalf("expect's error lost: %v", err)
	}
}

func TestWriteContainerRejects(t *testing.T) {
	for name, tc := range map[string]struct {
		h        Header
		sections []Section
	}{
		"empty tag":            {Header{}, testSections},
		"tag longer than 64":   {Header{Method: strings.Repeat("x", 65)}, testSections},
		"65 rows with the tag": {Header{Method: "pll"}, make([]Section, 64)},
		"65 rows untagged":     {Header{Method: TagHL}, make([]Section, 65)},
	} {
		if err := WriteContainer(io.Discard, tc.h, tc.sections); err == nil {
			t.Errorf("%s: written", name)
		}
	}
	if err := WriteContainer(io.Discard, Header{Method: TagHL}, make([]Section, 64)); err != nil {
		t.Errorf("64 untagged rows: %v", err)
	}
}

func TestSniffTag(t *testing.T) {
	dir := t.TempDir()
	for name, tc := range map[string]struct {
		file []byte
		want string
	}{
		"v1":          {[]byte("HWLIDX01 and then the v1 stream"), TagHL},
		"untagged v2": {mustWrite(t, Header{Method: TagHL, N: 3, K: 1}, coreSections), TagHL},
		"tagged":      {mustWrite(t, Header{Method: "dynhl", N: 3, K: 1}, testSections), "dynhl"},
	} {
		if got, err := SniffTag(bytes.NewReader(tc.file)); err != nil || got != tc.want {
			t.Errorf("SniffTag(%s) = %q, %v; want %q", name, got, err, tc.want)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := SniffFileTag(path); err != nil || got != tc.want {
			t.Errorf("SniffFileTag(%s) = %q, %v; want %q", name, got, err, tc.want)
		}
	}
	if _, err := SniffTag(strings.NewReader("not an index")); err == nil {
		t.Error("garbage sniffed")
	}
	if _, err := SniffFileTag(filepath.Join(dir, "absent")); err == nil {
		t.Error("missing file sniffed")
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
	i64 := []int64{0, -1, 1 << 62}
	got32, got64 := make([]int32, len(i32)), make([]int64, len(i64))
	if err := DecodeI32s(AppendI32s(nil, i32), got32); err != nil || fmt.Sprint(got32) != fmt.Sprint(i32) {
		t.Errorf("int32 round trip: %v, %v", got32, err)
	}
	if err := DecodeI64s(AppendI64s(nil, i64), got64); err != nil || fmt.Sprint(got64) != fmt.Sprint(i64) {
		t.Errorf("int64 round trip: %v, %v", got64, err)
	}
	if got := AppendI32s([]byte{7}, []int32{258}); !bytes.Equal(got, []byte{7, 2, 1, 0, 0}) {
		t.Errorf("AppendI32s is not little-endian append: %v", got)
	}
	short := make([]byte, 7)
	if DecodeI32s(short, got32) == nil || DecodeI64s(short, got64) == nil {
		t.Error("payload of the wrong length decoded")
	}

	if err := ValidateOffsets([]int64{0, 2, 2, 5}, 5); err != nil {
		t.Error(err)
	}
	for name, off := range map[string][]int64{
		"empty":        {},
		"not from 0":   {1, 2, 5},
		"not monotone": {0, 3, 2, 5},
		"wrong total":  {0, 2, 4},
	} {
		if ValidateOffsets(off, 5) == nil {
			t.Errorf("offsets %s (%v) accepted", name, off)
		}
	}
}

// FuzzReadContainer: on arbitrary bytes the reader never panics and never
// hands back (so never allocated) a section past its bound, and a file it
// accepts in full is one WriteContainer writes back byte for byte.
func FuzzReadContainer(f *testing.F) {
	for _, file := range [][]byte{
		mustWrite(f, Header{Method: "pll", N: 4, K: 1, Aux1: 3}, testSections),
		mustWrite(f, Header{Method: TagHL, N: 12, K: 3, Aux1: 13}, coreSections),
		frame(Header{Method: "pll"}, []Section{testSections[0], {ID: SectTag, Payload: []byte("pll")}}, nil),
		frame(Header{Method: "pll"}, []Section{{ID: SectTag, Payload: []byte("pll")}, testSections[2]}, map[int]uint64{1: 1 << 50}),
		[]byte("HWLIDX01"),
		[]byte("HWLIDX02"),
	} {
		f.Add(file)
		f.Add(file[:len(file)/2])
	}
	bounds := map[uint32]uint64{1: 64, 5: 64, SectTag + 1: 64, SectTag + 2: 0, SectTag + 3: 300}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, want := range []string{TagHL, "pll"} {
			h, got, err := ReadContainer(bytes.NewReader(data), want, func(Header) (map[uint32]uint64, error) { return bounds, nil })
			if err != nil {
				continue
			}
			var sections []Section
			known := true
			for _, id := range tableIDs(data) {
				payload, ok := got[id]
				if uint64(len(payload)) > bounds[id] {
					t.Fatalf("section %d: %d bytes, bound %d", id, len(payload), bounds[id])
				}
				if id == SectTag {
					continue
				}
				known = known && ok
				sections = append(sections, Section{ID: id, Payload: payload})
			}
			if !known {
				continue // a skipped section's bytes are not there to write back
			}
			var out bytes.Buffer
			if err := WriteContainer(&out, h, sections); err != nil {
				t.Fatalf("accepted file cannot be written back: %v", err)
			}
			if !bytes.HasPrefix(data, out.Bytes()) {
				t.Fatalf("accepted file re-encodes differently:\n got %x\nfrom %x", out.Bytes(), data)
			}
		}
	})
}
