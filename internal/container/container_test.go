package container_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"highway/internal/container"
)

// The layout's fixed sizes, spelled out as container.go documents them.
const (
	headerLen = 40
	tableRow  = 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frame lays a container file out by hand: no section limit, any header.
// It is how these tests get the files WriteContainer refuses to write.
// claim, where it has an entry for a row index, replaces that row's length
// field (the payload stays as given).
func frame(h container.Header, rows []container.Section, claim map[int]uint64) []byte {
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
func frameHeader(hdr [headerLen]byte, rows []container.Section, claim map[int]uint64) []byte {
	out := append([]byte{}, []byte(container.Magic)...)
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
	const tableStart = len(container.Magic) + headerLen + 4
	ids := make([]uint32, binary.LittleEndian.Uint32(file[8+20:]))
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint32(file[tableStart+i*tableRow:])
	}
	return ids
}

// exactly is an expect function allowing each section its given length.
func exactly(sections []container.Section) func(container.Header) (map[uint32]uint64, error) {
	return func(container.Header) (map[uint32]uint64, error) {
		bounds := make(map[uint32]uint64)
		for _, s := range sections {
			bounds[s.ID] = uint64(len(s.Payload))
		}
		return bounds, nil
	}
}

// decode reads file the way the core decoder does: ReadContainer, then
// every section it needs must be there, holding the CRC of its payload. It
// returns the payloads read, not those of the sections skipped.
func decode(file []byte, sections []container.Section) (container.Header, map[uint32][]byte, error) {
	h, got, err := container.ReadContainer(bytes.NewReader(file), true, exactly(sections))
	if err != nil {
		return h, nil, err
	}
	payloads := make(map[uint32][]byte)
	for id, s := range got {
		if s.Payload == nil { // skipped: not buffered
			continue
		}
		if s.ID != id || s.CRC != crc32.Checksum(s.Payload, castagnoli) {
			return h, nil, fmt.Errorf("section %d read as id %d, CRC %08x", id, s.ID, s.CRC)
		}
		payloads[id] = s.Payload
	}
	for _, s := range sections {
		if _, ok := got[s.ID]; !ok {
			return h, nil, fmt.Errorf("required section %d missing", s.ID)
		}
	}
	return h, payloads, nil
}

// allocatedBy returns the bytes fn allocates, as the runtime counts them.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func mustWrite(tb testing.TB, h container.Header, sections []container.Section) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := container.WriteContainer(&buf, h, sections); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

var (
	testSections = []container.Section{
		{ID: container.SectTag + 1, Payload: []byte("first payload")},
		{ID: container.SectTag + 2, Payload: nil},
		{ID: container.SectTag + 3, Payload: bytes.Repeat([]byte{0xA5}, 300)},
	}
	coreSections = []container.Section{{ID: 1, Payload: []byte{9, 0, 0, 0}}, {ID: 5, Payload: []byte("dist")}}
)

func TestContainerRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name     string
		h        container.Header
		sections []container.Section
	}{
		{"wide header", container.Header{N: 1 << 40, K: 7, Aux1: 11, Aux2: 1<<64 - 1}, testSections},
		{"hl", container.Header{N: 12, K: 3, Aux1: 13}, coreSections},
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

	h := container.Header{N: 12, K: 3, Aux1: 13, Aux2: 513}
	if got := mustWrite(t, h, coreSections); !bytes.Equal(got, want) {
		t.Fatalf("container.WriteContainer:\n got %x\nwant %x", got, want)
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
		h        container.Header
		sections []container.Section
	}{
		{container.Header{N: 9, K: 2}, testSections},
		{container.Header{N: 12, K: 3}, coreSections},
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
	future := container.Section{ID: 99, Payload: []byte("from a later version")}
	for _, at := range []int{0, 1, len(testSections)} {
		sections := append(append(append([]container.Section{}, testSections[:at]...), future), testSections[at:]...)
		file := mustWrite(t, container.Header{N: 5, K: 1}, sections)
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
func retiredTag(name string) container.Section {
	return container.Section{ID: container.SectTag, Payload: []byte(name)}
}

// TestContainerRejects is the table of malformed files both readers
// refuse, the retired baselines' tagged files among them, each with the
// error naming what is wrong.
func TestContainerRejects(t *testing.T) {
	h := container.Header{N: 4, K: 1}
	tag := retiredTag
	a, b := testSections[0], testSections[2]
	var hdr [headerLen]byte
	copy(hdr[:], frame(h, []container.Section{a}, nil)[len(container.Magic):])
	version3, flagged := hdr, hdr
	version3[0] = 3
	flagged[4] = 1

	for _, tc := range []struct {
		name string
		file []byte
		msg  string // what the error must say
	}{
		{"duplicate known id", frame(h, []container.Section{a, b, a}, nil), "duplicate section 33"},
		// The row claims a petabyte; the bound stops it before any
		// buffer of that size exists.
		{"section longer than allowed", frame(h, []container.Section{a, b}, map[int]uint64{1: 1 << 50}), "section 35 has length 1125899906842624, exceeds 300"},
		{"empty tag", frame(h, []container.Section{tag(""), a}, nil), `index file tagged "" is no longer loadable`},
		{"explicit hl tag", frame(h, []container.Section{tag("hl"), a}, nil), `index file tagged "hl" is no longer loadable`},
		{"tag longer than 64", frame(h, []container.Section{tag(strings.Repeat("x", 65)), a}, nil), "tag section length 65 exceeds 64"},
		{"65 sections", frame(h, append([]container.Section{a}, make([]container.Section, 64)...), nil), "implausible section count 65"},
		{"no sections", frame(h, nil, nil), "implausible section count 0"},
		{"another method's file", frame(h, []container.Section{tag("isl"), a}, nil), `index file tagged "isl" is no longer loadable`},
		{"tagged file read as hl", frame(h, []container.Section{tag("pll"), a}, nil), `index file tagged "pll" is no longer loadable`},
		{"tag not first", frame(h, []container.Section{a, tag("pll")}, nil), "tag section 32 is not the first section"},
		{"second tag", frame(h, []container.Section{tag("pll"), a, tag("isl")}, nil), `tagged "pll"`},
		{"v1 stream", []byte("HWLIDX01 and then whatever"), "retired index layout: rewrite the file with `hlbuild migrate -graph G -in FILE`"},
		{"bad magic", []byte("HWLIDX03 and then whatever"), "bad magic"},
		{"version 3", frameHeader(version3, []container.Section{a}, nil), "container version 3 unsupported"},
		{"flags set", frameHeader(flagged, []container.Section{a}, nil), "unsupported flags 0x1"},
		{"truncated table", frame(h, []container.Section{a}, nil)[:len(container.Magic)+headerLen+4+3], "reading section table"},
		{"truncated payload", frame(h, []container.Section{a}, nil)[:len(frame(h, []container.Section{a}, nil))-1], "reading section 33"},
		// An unknown section is skipped, but not past the end: a length
		// above 2^63 once skipped nothing and was accepted.
		{"unknown section past the end", frame(h, []container.Section{a, {ID: 99}}, map[int]uint64{1: 1<<63 + 5}), "skipping section 99"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := container.ReadContainer(bytes.NewReader(tc.file), true, exactly([]container.Section{a, b}))
			if err == nil || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("err = %v, want one saying %q", err, tc.msg)
			}
			if _, _, err := container.ReadBytes(tc.file, exactly([]container.Section{a, b})); err == nil || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("ReadBytes: err = %v, want one saying %q", err, tc.msg)
			}
		})
	}

	// expect's own verdict on the header is passed through.
	veto := errors.New("n is not my graph's")
	_, _, err := container.ReadContainer(bytes.NewReader(frame(h, []container.Section{a}, nil)), true, func(container.Header) (map[uint32]uint64, error) { return nil, veto })
	if !errors.Is(err, veto) {
		t.Fatalf("expect's error lost: %v", err)
	}
}

// TestRetiredMethodTag: the reader still reads a retired baseline's
// method tag, only to refuse the file. A container whose first section is
// the tag fails with one line naming the method, before any other section
// is read and whatever follows; the tag row's claimed length is bounded
// before the tag is read.
func TestRetiredMethodTag(t *testing.T) {
	h := container.Header{N: 3, K: 1}
	for _, name := range []string{"pll", "dynhl"} {
		for _, file := range [][]byte{
			mustWrite(t, h, append([]container.Section{retiredTag(name)}, testSections...)),
			// The section after the tag claims a petabyte: it is never reached.
			frame(h, []container.Section{retiredTag(name), testSections[2]}, map[int]uint64{1: 1 << 50}),
		} {
			_, _, err := container.ReadContainer(bytes.NewReader(file), true, exactly(testSections))
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q is no longer loadable", name)) || strings.Contains(err.Error(), "\n") {
				t.Errorf("%s: err = %v, want one line naming it as no longer loadable", name, err)
			}
		}
	}
	huge := frame(h, []container.Section{retiredTag("pll")}, map[int]uint64{0: 1 << 50})
	if _, _, err := container.ReadContainer(bytes.NewReader(huge), true, exactly(testSections)); err == nil || !strings.Contains(err.Error(), "tag section length 1125899906842624 exceeds 64") {
		t.Errorf("tag claiming a petabyte: %v", err)
	}
}

// TestReadBytes: over a file in memory the sections are the file's own
// bytes, and a row claiming more than is left fails without allocating
// what it claims.
func TestReadBytes(t *testing.T) {
	h := container.Header{N: 4, K: 1}
	file := mustWrite(t, h, testSections)
	if size := container.Size(testSections); size != len(file) {
		t.Fatalf("Size = %d, the file is %d bytes", size, len(file))
	}
	got, sections, err := container.ReadBytes(file, exactly(testSections))
	if err != nil || got != h {
		t.Fatalf("header %+v, %v", got, err)
	}
	end := &file[len(file)-1]
	for _, s := range testSections[2:] { // the one with a payload to point into
		p := sections[s.ID].Payload
		if !bytes.Equal(p, s.Payload) || &p[len(p)-1] != end {
			t.Fatalf("section %d is not the file's last %d bytes", s.ID, len(s.Payload))
		}
	}
	huge := frame(h, []container.Section{testSections[0]}, map[int]uint64{0: 1 << 40})
	bounds := func(container.Header) (map[uint32]uint64, error) {
		return map[uint32]uint64{testSections[0].ID: 1 << 40}, nil
	}
	if used := allocatedBy(func() { _, _, err = container.ReadBytes(huge, bounds) }); err == nil || used > 64<<10 {
		t.Fatalf("a row claiming 1 TiB of %d bytes: err %v, %d bytes allocated", len(huge), err, used)
	}
}

func TestWriteContainerRejects(t *testing.T) {
	if err := container.WriteContainer(io.Discard, container.Header{}, make([]container.Section, 65)); err == nil {
		t.Error("65 sections written")
	}
	if err := container.WriteContainer(io.Discard, container.Header{}, make([]container.Section, 64)); err != nil {
		t.Errorf("64 sections: %v", err)
	}
}

// TestSaveFile: a save that fails half-way leaves the previous file as it
// was and nothing else in the directory; one that succeeds replaces it.
// A durable save (fsynced before the rename) behaves the same.
func TestSaveFile(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) { testSaveFile(t, durable) })
	}
}

func testSaveFile(t *testing.T, durable bool) {
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
		return container.SaveFile(path, durable, func(w io.Writer) error {
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
	if err := container.SaveFile(filepath.Join(dir, "no", "such", "dir.idx"), durable, func(io.Writer) error { return nil }); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
}

// FuzzReadContainer: on arbitrary bytes the reader, vouching for no bound,
// never panics, never hands back a section past its bound, allocates in
// proportion to the bytes it was given whatever lengths the table claims,
// and a file it accepts in full is one WriteContainer writes back byte for
// byte. ReadBytes, the same read over bytes in memory, agrees with it on
// every input: it rejects what ReadContainer rejects and returns the same
// header and sections for what it accepts, allocating nothing in
// proportion to the input.
func FuzzReadContainer(f *testing.F) {
	grown := container.Section{ID: 9, Payload: []byte("arrives as it comes")}
	for _, file := range [][]byte{
		mustWrite(f, container.Header{N: 4, K: 1, Aux1: 3}, testSections),
		mustWrite(f, container.Header{N: 12, K: 3, Aux1: 13}, coreSections),
		frame(container.Header{}, []container.Section{testSections[0], retiredTag("pll")}, nil),
		frame(container.Header{}, []container.Section{testSections[0], testSections[2]}, map[int]uint64{1: 1 << 50}),
		[]byte("HWLIDX01"),
		[]byte("HWLIDX02"),
		frame(container.Header{}, []container.Section{testSections[0], grown}, map[int]uint64{1: 1 << 40}),
	} {
		f.Add(file)
		f.Add(file[:len(file)/2])
	}
	bounds := map[uint32]uint64{1: 64, 5: 64, grown.ID: 1 << 40, container.SectTag + 1: 64, container.SectTag + 2: 0, container.SectTag + 3: 300}
	expect := func(container.Header) (map[uint32]uint64, error) { return bounds, nil }
	f.Fuzz(func(t *testing.T, data []byte) {
		var h, mh container.Header
		var got, mem map[uint32]container.Section
		var err, merr error
		if used := allocatedBy(func() { h, got, err = container.ReadContainer(bytes.NewReader(data), false, expect) }); used > 1<<20+4*uint64(len(data)) {
			t.Fatalf("%d bytes allocated reading %d", used, len(data))
		}
		if used := allocatedBy(func() { mh, mem, merr = container.ReadBytes(data, expect) }); used > 64<<10 {
			t.Fatalf("ReadBytes allocated %d bytes on %d in memory", used, len(data))
		}
		if (err == nil) != (merr == nil) {
			t.Fatalf("ReadContainer: %v; ReadBytes: %v", err, merr)
		}
		if err != nil {
			return
		}
		if mh != h || len(mem) != len(got) {
			t.Fatalf("ReadBytes read %+v and %d sections, ReadContainer %+v and %d", mh, len(mem), h, len(got))
		}
		for id, s := range got {
			m := mem[id]
			if m.ID != s.ID || m.CRC != s.CRC || !bytes.Equal(m.Payload, s.Payload) || (m.Payload == nil) != (s.Payload == nil) {
				t.Fatalf("section %d: ReadBytes %+v, ReadContainer %+v", id, m, s)
			}
		}
		var sections []container.Section
		for _, id := range tableIDs(data) {
			s := got[id]
			if max, known := bounds[id]; !known {
				return // a skipped section's bytes are not there to write back
			} else if uint64(len(s.Payload)) > max {
				t.Fatalf("section %d: %d bytes, bound %d", id, len(s.Payload), max)
			}
			sections = append(sections, s)
		}
		var out bytes.Buffer
		if err := container.WriteContainer(&out, h, sections); err != nil {
			t.Fatalf("accepted file cannot be written back: %v", err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("accepted file re-encodes differently:\n got %x\nfrom %x", out.Bytes(), data)
		}
	})
}
