package method

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The "HWLIDX02" index container: the on-disk framing of the paper
// labelling's index file (internal/core). Little-endian:
//
//	magic     [8]byte "HWLIDX02"
//	header    [40]byte: version u32 (2), flags u32 (0), n u64, k u32,
//	          sections u32, aux1 u64, aux2 u64
//	headerCRC uint32           (CRC-32C of the 40 header bytes)
//	table     sections × {id u32, crc u32, length u64}
//	payloads  one per table row, in table order, `length` bytes each
//
// Every payload is checksummed with CRC-32C and its length is known and
// bounded before any allocation, so a reader loads each section with one
// io.ReadFull and rejects corruption. Readers skip table rows with
// unknown ids, so sections can be added without revving the magic.
//
// Section id 32 (SectTag) is reserved: the retired PLL, FD, IS-L and dynhl
// file formats began with a method-tag section naming their writer. Those
// files no longer load (the baselines are measured in memory, never
// saved); a reader that meets the tag in the first table row refuses the
// file with one line naming the method, after a read bounded by
// maxTagLen.
//
// The two writer-specific u64 header slots (entries and overflow count
// in a core file) are surfaced as Aux1/Aux2.

// SectTag is the section id of the retired method-name payload: first in
// every file a baseline wrote, and nowhere in a file that loads.
const SectTag uint32 = 32

// maxTagLen bounds the method-tag payload (registry names are short).
const maxTagLen = 64

const (
	headerLen  = 40
	tableRow   = 16
	maxSection = 64 // fuzz/OOM guard: no sane file needs more
)

var (
	magicV1 = [8]byte{'H', 'W', 'L', 'I', 'D', 'X', '0', '1'}
	magicV2 = [8]byte{'H', 'W', 'L', 'I', 'D', 'X', '0', '2'}
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Header is the checksummed fixed header of a container file.
type Header struct {
	N    uint64 // vertex count of the graph the index was built on
	K    uint32 // landmark count
	Aux1 uint64 // writer-specific (entries in a core file)
	Aux2 uint64 // writer-specific (overflow records in a core file)
}

// Section is one payload of a container file.
type Section struct {
	ID      uint32
	Payload []byte
}

// WriteContainer writes a container: header, then the given sections in
// order. Output is deterministic.
func WriteContainer(w io.Writer, h Header, sections []Section) error {
	if len(sections) > maxSection {
		return fmt.Errorf("method: %d sections exceeds limit %d", len(sections), maxSection)
	}

	bw := bufio.NewWriterSize(w, 64<<10)
	if _, err := bw.Write(magicV2[:]); err != nil {
		return err
	}
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 2) // container version
	binary.LittleEndian.PutUint32(hdr[4:8], 0) // flags
	binary.LittleEndian.PutUint64(hdr[8:16], h.N)
	binary.LittleEndian.PutUint32(hdr[16:20], h.K)
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(len(sections)))
	binary.LittleEndian.PutUint64(hdr[24:32], h.Aux1)
	binary.LittleEndian.PutUint64(hdr[32:40], h.Aux2)
	bw.Write(hdr[:])
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], crc32.Checksum(hdr[:], castagnoli))
	bw.Write(b4[:])

	var row [tableRow]byte
	for _, s := range sections {
		binary.LittleEndian.PutUint32(row[0:4], s.ID)
		binary.LittleEndian.PutUint32(row[4:8], crc32.Checksum(s.Payload, castagnoli))
		binary.LittleEndian.PutUint64(row[8:16], uint64(len(s.Payload)))
		if _, err := bw.Write(row[:]); err != nil {
			return err
		}
	}
	for _, s := range sections {
		if _, err := bw.Write(s.Payload); err != nil {
			return err
		}
	}
	return bw.Flush()
}

type rawRow struct {
	id     uint32
	crc    uint32
	length uint64
}

// readHeader consumes and validates the magic, fixed header and table of
// a v2 container stream, returning the header and the raw table rows.
func readHeader(br *bufio.Reader) (Header, []rawRow, error) {
	var h Header
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return h, nil, fmt.Errorf("method: reading magic: %w", err)
	}
	if magic == magicV1 {
		return h, nil, fmt.Errorf("method: v1 files are decoded by internal/core, not ReadContainer")
	}
	if magic != magicV2 {
		return h, nil, fmt.Errorf("method: bad magic %q (not a HWLIDX01/02 file)", magic[:])
	}
	var hdr [headerLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return h, nil, fmt.Errorf("method: reading header: %w", err)
	}
	var b4 [4]byte
	if _, err := io.ReadFull(br, b4[:]); err != nil {
		return h, nil, err
	}
	if got, want := crc32.Checksum(hdr[:], castagnoli), binary.LittleEndian.Uint32(b4[:]); got != want {
		return h, nil, fmt.Errorf("method: header checksum mismatch (got %08x, want %08x)", got, want)
	}
	if v := binary.LittleEndian.Uint32(hdr[0:4]); v != 2 {
		return h, nil, fmt.Errorf("method: container version %d unsupported", v)
	}
	if f := binary.LittleEndian.Uint32(hdr[4:8]); f != 0 {
		return h, nil, fmt.Errorf("method: unsupported flags %#x", f)
	}
	h.N = binary.LittleEndian.Uint64(hdr[8:16])
	h.K = binary.LittleEndian.Uint32(hdr[16:20])
	nsect := binary.LittleEndian.Uint32(hdr[20:24])
	h.Aux1 = binary.LittleEndian.Uint64(hdr[24:32])
	h.Aux2 = binary.LittleEndian.Uint64(hdr[32:40])
	if nsect == 0 || nsect > maxSection {
		return h, nil, fmt.Errorf("method: implausible section count %d", nsect)
	}
	rows := make([]rawRow, nsect)
	var rowBuf [tableRow]byte
	for i := range rows {
		if _, err := io.ReadFull(br, rowBuf[:]); err != nil {
			return h, nil, fmt.Errorf("method: reading section table: %w", err)
		}
		rows[i] = rawRow{
			id:     binary.LittleEndian.Uint32(rowBuf[0:4]),
			crc:    binary.LittleEndian.Uint32(rowBuf[4:8]),
			length: binary.LittleEndian.Uint64(rowBuf[8:16]),
		}
	}
	// A retired baseline's file: name its writer and stop.
	if rows[0].id == SectTag {
		if rows[0].length > maxTagLen {
			return h, nil, fmt.Errorf("method: tag section length %d exceeds %d", rows[0].length, maxTagLen)
		}
		tag := make([]byte, rows[0].length)
		if _, err := io.ReadFull(br, tag); err != nil {
			return h, nil, fmt.Errorf("method: reading tag: %w", err)
		}
		return h, nil, fmt.Errorf("method: index file tagged %q is no longer loadable: only highway cover labelling files load", tag)
	}
	for _, row := range rows {
		if row.id == SectTag {
			return h, nil, fmt.Errorf("method: tag section %d is not the first section", SectTag)
		}
	}
	return h, rows, nil
}

// ReadContainer reads a container written by WriteContainer. expect maps
// the header to the maximum acceptable payload length per known section
// id — the anti-OOM guard every allocation is bounded by; fixed-size
// sections should pass their exact length and additionally verify it on
// the returned payload. Unknown section ids are skipped (forward
// compatibility), duplicate known ids rejected, and every payload is
// CRC-checked.
func ReadContainer(r io.Reader, expect func(Header) (map[uint32]uint64, error)) (Header, map[uint32][]byte, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	h, rows, err := readHeader(br)
	if err != nil {
		return h, nil, err
	}
	maxLen, err := expect(h)
	if err != nil {
		return h, nil, err
	}
	for _, row := range rows {
		if max, known := maxLen[row.id]; known && row.length > max {
			return h, nil, fmt.Errorf("method: section %d has length %d, exceeds %d", row.id, row.length, max)
		}
	}
	sections := make(map[uint32][]byte, len(rows))
	for _, row := range rows {
		if _, known := maxLen[row.id]; !known {
			if _, err := io.CopyN(io.Discard, br, int64(row.length)); err != nil {
				return h, nil, fmt.Errorf("method: skipping section %d: %w", row.id, err)
			}
			continue
		}
		if _, dup := sections[row.id]; dup {
			return h, nil, fmt.Errorf("method: duplicate section %d", row.id)
		}
		buf := make([]byte, row.length)
		if _, err := io.ReadFull(br, buf); err != nil {
			return h, nil, fmt.Errorf("method: reading section %d: %w", row.id, err)
		}
		if got := crc32.Checksum(buf, castagnoli); got != row.crc {
			return h, nil, fmt.Errorf("method: section %d checksum mismatch (got %08x, want %08x)", row.id, got, row.crc)
		}
		sections[row.id] = buf
	}
	return h, sections, nil
}

// SaveFile writes a serialized index to path via write: the
// implementation behind the core labelling's Save. The bytes go to
// path+".tmp" and are renamed over path only once complete, so a failed or
// interrupted save leaves a previous file at path intact. It does not
// fsync: a saved index is rebuildable, not a durability boundary.
func SaveFile(path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// Encoding helpers of the core v2 payloads. All integers are
// little-endian.

// AppendI32s appends vals as 4-byte little-endian words.
func AppendI32s(dst []byte, vals []int32) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	return dst
}

// DecodeI32s decodes a payload written by AppendI32s into dst
// (allocated to the exact count by the caller). The payload length
// must be len(dst)*4.
func DecodeI32s(payload []byte, dst []int32) error {
	if len(payload) != len(dst)*4 {
		return fmt.Errorf("method: payload length %d, want %d", len(payload), len(dst)*4)
	}
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(payload[i*4:]))
	}
	return nil
}
