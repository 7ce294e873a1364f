package method

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The "HWLIDX02" index container: the one on-disk framing of every
// method's index file, the paper labelling's (internal/core) included.
// Little-endian:
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
// Files written by the highway cover labelling itself carry no method
// tag — absence means "hl", which keeps core's files byte-identical to
// its pinned golden file and every pre-registry file readable. Every
// other method writes a method-tag section (SectTag, id 32) as the FIRST
// table row and first payload, so a reader learns which decoder a file
// needs from one bounded read. Per-method payload sections use ids ≥ 33,
// disjoint from the core section ids 1..8, so no decoder can mistake
// another method's payload for its own.
//
// The two writer-specific u64 header slots (entries and overflow count
// in a core file) are surfaced as Aux1/Aux2: each method documents its
// own meaning next to its section ids.

// TagHL is the implied method tag of untagged container files (and of
// v1 files): the highway cover labelling.
const TagHL = "hl"

// SectTag is the section id of the method-name payload. Ids below it
// (1..8) belong to the core labelling; per-method sections start at
// SectTag + 1.
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
	Method string // the tag; TagHL on (and for writing) untagged files
	N      uint64 // vertex count of the graph the index was built on
	K      uint32 // method-specific cardinality (landmarks, roots, levels)
	Aux1   uint64 // method-specific (documented per serializer)
	Aux2   uint64 // method-specific (documented per serializer)
}

// Section is one payload of a container file.
type Section struct {
	ID      uint32
	Payload []byte
}

// WriteContainer writes a container: header, the method-tag section
// unless the method is TagHL, then the given sections in order. Output
// is deterministic.
func WriteContainer(w io.Writer, h Header, sections []Section) error {
	if h.Method == "" || len(h.Method) > maxTagLen {
		return fmt.Errorf("method: bad tag %q", h.Method)
	}
	all := sections
	if h.Method != TagHL {
		all = append([]Section{{ID: SectTag, Payload: []byte(h.Method)}}, sections...)
	}
	if len(all) > maxSection {
		return fmt.Errorf("method: %d sections exceeds limit %d", len(all), maxSection)
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
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(len(all)))
	binary.LittleEndian.PutUint64(hdr[24:32], h.Aux1)
	binary.LittleEndian.PutUint64(hdr[32:40], h.Aux2)
	bw.Write(hdr[:])
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], crc32.Checksum(hdr[:], castagnoli))
	bw.Write(b4[:])

	var row [tableRow]byte
	for _, s := range all {
		binary.LittleEndian.PutUint32(row[0:4], s.ID)
		binary.LittleEndian.PutUint32(row[4:8], crc32.Checksum(s.Payload, castagnoli))
		binary.LittleEndian.PutUint64(row[8:16], uint64(len(s.Payload)))
		if _, err := bw.Write(row[:]); err != nil {
			return err
		}
	}
	for _, s := range all {
		if _, err := bw.Write(s.Payload); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readHeader consumes and validates the magic + fixed header + table of
// a v2 container stream, returning the header (Method still unset) and
// the raw table rows.
type rawRow struct {
	id     uint32
	crc    uint32
	length uint64
}

func readHeader(br *bufio.Reader) (Header, []rawRow, error) {
	var h Header
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return h, nil, fmt.Errorf("method: reading magic: %w", err)
	}
	if magic == magicV1 {
		// v1 files are always the core labelling.
		return Header{Method: TagHL}, nil, nil
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
	// The method tag, when present, must be the first section so the
	// tag is decidable from a bounded prefix of the stream.
	if rows[0].id == SectTag {
		if rows[0].length > maxTagLen {
			return h, nil, fmt.Errorf("method: tag section length %d exceeds %d", rows[0].length, maxTagLen)
		}
		tag := make([]byte, rows[0].length)
		if _, err := io.ReadFull(br, tag); err != nil {
			return h, nil, fmt.Errorf("method: reading tag: %w", err)
		}
		if got := crc32.Checksum(tag, castagnoli); got != rows[0].crc {
			return h, nil, fmt.Errorf("method: tag checksum mismatch")
		}
		h.Method = string(tag)
		if h.Method == "" || h.Method == TagHL { // "hl" is spelled by having no tag
			return h, nil, fmt.Errorf("method: bad method tag %q", tag)
		}
		rows = rows[1:]
	} else {
		h.Method = TagHL
	}
	for _, row := range rows {
		if row.id == SectTag {
			return h, nil, fmt.Errorf("method: tag section %d is not the first section", SectTag)
		}
	}
	return h, rows, nil
}

// ReadContainer reads a container written by WriteContainer. want is the
// tag the caller's decoder handles; a file tagged differently is
// rejected with an error naming both. expect maps the
// header to the maximum acceptable payload length per known section id
// — the anti-OOM guard every allocation is bounded by; fixed-size
// sections should pass their exact length and additionally verify it
// on the returned payload. Unknown section ids are skipped (forward
// compatibility), duplicate known ids rejected, and every payload is
// CRC-checked.
func ReadContainer(r io.Reader, want string, expect func(Header) (map[uint32]uint64, error)) (Header, map[uint32][]byte, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	h, rows, err := readHeader(br)
	if err != nil {
		return h, nil, err
	}
	if h.Method != want {
		return h, nil, fmt.Errorf("method: index file is method %q, not %q: load it through the method registry (highway.LoadIndexAny)", h.Method, want)
	}
	if want == TagHL && rows == nil {
		return h, nil, fmt.Errorf("method: v1 files are decoded by internal/core, not ReadContainer")
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

// SniffTag reports the method tag of an index stream without decoding
// it: "hl" for v1 files and untagged v2 files, the tag section's value
// otherwise. It consumes a bounded prefix of r.
func SniffTag(r io.Reader) (string, error) {
	h, _, err := readHeader(bufio.NewReaderSize(r, 4096))
	if err != nil {
		return "", err
	}
	return h.Method, nil
}

// SniffFileTag is SniffTag over a file path.
func SniffFileTag(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	return SniffTag(f)
}

// SaveFile writes a serialized index to path via write: the shared
// implementation behind every method's Save. The bytes go to path+".tmp"
// and are renamed over path only once complete, so a failed or
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

// Encoding helpers shared by the per-method serializers. All integers
// are little-endian, matching the core v2 payloads.

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

// AppendI64s appends vals as 8-byte little-endian words.
func AppendI64s(dst []byte, vals []int64) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// DecodeI64s decodes a payload written by AppendI64s into dst.
func DecodeI64s(payload []byte, dst []int64) error {
	if len(payload) != len(dst)*8 {
		return fmt.Errorf("method: payload length %d, want %d", len(payload), len(dst)*8)
	}
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(payload[i*8:]))
	}
	return nil
}

// ValidateOffsets checks a CSR offset array: starts at 0, monotone,
// total equal to want. Shared by the per-method label decoders.
func ValidateOffsets(off []int64, want int64) error {
	if len(off) == 0 || off[0] != 0 {
		return fmt.Errorf("method: offsets do not start at 0")
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("method: offsets not monotone at %d", i)
		}
	}
	if off[len(off)-1] != want {
		return fmt.Errorf("method: offsets claim %d entries, header says %d", off[len(off)-1], want)
	}
	return nil
}
