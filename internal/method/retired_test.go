package method_test

// The index files the retired methods wrote, and every other malformed
// container, are refused by the one container reader: the tests of that
// refusal that began in this package when it framed every method's index
// file. The rest of the container's tests are in internal/container.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"highway/internal/container"
)

// headerLen is the container header's fixed size, as container.go
// documents it.
const headerLen = 40

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frame lays a container file out by hand: no section limit, any header.
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

var testSections = []container.Section{
	{ID: container.SectTag + 1, Payload: []byte("first payload")},
	{ID: container.SectTag + 2, Payload: nil},
	{ID: container.SectTag + 3, Payload: bytes.Repeat([]byte{0xA5}, 300)},
}

// retiredTag is the method-tag section a baseline's index file began with.
func retiredTag(name string) container.Section {
	return container.Section{ID: container.SectTag, Payload: []byte(name)}
}

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
		var written bytes.Buffer
		if err := container.WriteContainer(&written, h, append([]container.Section{retiredTag(name)}, testSections...)); err != nil {
			t.Fatal(err)
		}
		for _, file := range [][]byte{
			written.Bytes(),
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
