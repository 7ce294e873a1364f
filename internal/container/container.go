// Package container is the one framing of every file a server reads or
// writes: a graph file, an index file, and the snapshot a checkpoint
// persists next to the WAL and a primary streams to a follower are each an
// "HWLIDX02" container of checksummed sections. Little-endian:
//
//	magic     [8]byte "HWLIDX02"
//	header    [40]byte: version u32 (2), flags u32 (0), n u64, k u32,
//	          sections u32, aux1 u64, aux2 u64
//	headerCRC uint32           (CRC-32C of the 40 header bytes)
//	table     sections × {id u32, crc u32, length u64}
//	payloads  one per table row, in table order, `length` bytes each
//
// Every payload is checksummed with CRC-32C and its length bounded before
// any allocation. Readers skip unknown ids, so sections can be added
// without revving the magic. Ids: 1, 2, 4, 6–8, 12 and 14–20 the
// labelling (internal/core; 17–20 hold 14, 15, 7 and 8 of a labelling that
// keeps no label for its leaves; 3 held its offsets and 5 its distances, a
// byte each, and 13 its ranks as masks of ⌈k/8⌉ bytes a vertex, in files
// only `hlbuild migrate` reads now), 9 and 10 the graph
// (internal/graph), 11 an index file's graph fingerprint, 32 (SectTag)
// the first of every file of the retired PLL, FD, IS-L and dynhl formats,
// refused with one line naming the method, as the v1 index layout
// "HWLIDX01" and the layouts before the graph became sections are with one
// naming `hlbuild migrate`.
package container

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// Magic is the 8 bytes every container begins with.
const Magic = "HWLIDX02"

// SectTag is the section id of the retired method-name payload.
const SectTag uint32 = 32

const (
	headerLen  = 40
	tableRow   = 16
	maxSection = 64 // fuzz/OOM guard: no sane file needs more
	maxTagLen  = 64 // registry names are short
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum extends crc, the CRC-32C of the bytes before p, over p.
func Checksum(crc uint32, p []byte) uint32 { return crc32.Update(crc, castagnoli, p) }

// Header is the checksummed fixed header of a container file.
type Header struct {
	N    uint64 // vertex count of the graph
	K    uint32 // landmark count (0 in a graph file)
	Aux1 uint64 // writer-specific (entries in an index, 2m in a graph file)
	Aux2 uint64 // writer-specific (overflow records in an index)
}

// Section is one payload of a container file. CRC is what ReadContainer
// checked the payload against; WriteContainer computes its own. A section
// ReadContainer skipped has a nil Payload.
type Section struct {
	ID      uint32
	CRC     uint32
	Payload []byte
}

// Row is one entry of a container's section table.
type Row struct {
	ID, CRC uint32
	Length  uint64
}

// WriteContainer writes a container: header, then the given sections in
// order. Output is deterministic.
func WriteContainer(w io.Writer, h Header, sections []Section) error {
	if len(sections) > maxSection {
		return fmt.Errorf("container: %d sections exceeds limit %d", len(sections), maxSection)
	}

	bw := bufio.NewWriterSize(w, 64<<10)
	if _, err := bw.WriteString(Magic); err != nil {
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
	bw.Write(binary.LittleEndian.AppendUint32(hdr[:], Checksum(0, hdr[:])))

	var row [tableRow]byte
	for _, s := range sections {
		binary.LittleEndian.PutUint32(row[0:4], s.ID)
		binary.LittleEndian.PutUint32(row[4:8], Checksum(0, s.Payload))
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

// ReadTable consumes and validates the magic, fixed header and section
// table of a container stream, which it leaves at the first payload.
func ReadTable(r io.Reader) (Header, []Row, error) {
	var h Header
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return h, nil, fmt.Errorf("container: reading magic: %w", err)
	}
	switch m := string(magic[:]); m {
	case Magic:
	case "HWLIDX01":
		return h, nil, fmt.Errorf("container: %s is a retired index layout: rewrite the file with `hlbuild migrate -graph G -in FILE`", m)
	case "HWGRAPH1", "HWLSNAP1":
		return h, nil, fmt.Errorf("container: %s is a retired layout: rewrite the file with `hlbuild migrate -in FILE`", m)
	default:
		return h, nil, fmt.Errorf("container: bad magic %q (not an HWLIDX02 container)", m)
	}
	var hdr [headerLen + 4]byte // and its CRC
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return h, nil, fmt.Errorf("container: reading header: %w", err)
	}
	if got, want := Checksum(0, hdr[:headerLen]), binary.LittleEndian.Uint32(hdr[headerLen:]); got != want {
		return h, nil, fmt.Errorf("container: header checksum mismatch (got %08x, want %08x)", got, want)
	}
	if v := binary.LittleEndian.Uint32(hdr[0:4]); v != 2 {
		return h, nil, fmt.Errorf("container: container version %d unsupported", v)
	}
	if f := binary.LittleEndian.Uint32(hdr[4:8]); f != 0 {
		return h, nil, fmt.Errorf("container: unsupported flags %#x", f)
	}
	h.N = binary.LittleEndian.Uint64(hdr[8:16])
	h.K = binary.LittleEndian.Uint32(hdr[16:20])
	nsect := binary.LittleEndian.Uint32(hdr[20:24])
	h.Aux1 = binary.LittleEndian.Uint64(hdr[24:32])
	h.Aux2 = binary.LittleEndian.Uint64(hdr[32:40])
	if nsect == 0 || nsect > maxSection {
		return h, nil, fmt.Errorf("container: implausible section count %d", nsect)
	}
	rows := make([]Row, nsect)
	var rowBuf [tableRow]byte
	for i := range rows {
		if _, err := io.ReadFull(r, rowBuf[:]); err != nil {
			return h, nil, fmt.Errorf("container: reading section table: %w", err)
		}
		rows[i] = Row{
			ID:     binary.LittleEndian.Uint32(rowBuf[0:4]),
			CRC:    binary.LittleEndian.Uint32(rowBuf[4:8]),
			Length: binary.LittleEndian.Uint64(rowBuf[8:16]),
		}
	}
	// A retired baseline's file: name its writer and stop.
	if rows[0].ID == SectTag {
		if rows[0].Length > maxTagLen {
			return h, nil, fmt.Errorf("container: tag section length %d exceeds %d", rows[0].Length, maxTagLen)
		}
		tag := make([]byte, rows[0].Length)
		if _, err := io.ReadFull(r, tag); err != nil {
			return h, nil, fmt.Errorf("container: reading tag: %w", err)
		}
		return h, nil, fmt.Errorf("container: index file tagged %q is no longer loadable: only highway cover labelling files load", tag)
	}
	for _, row := range rows {
		if row.ID == SectTag {
			return h, nil, fmt.Errorf("container: tag section %d is not the first section", SectTag)
		}
	}
	return h, rows, nil
}

// Size returns the length of the container WriteContainer writes of
// sections, whatever the header.
func Size(sections []Section) int {
	size := len(Magic) + headerLen + 4 + tableRow*len(sections)
	for _, s := range sections {
		size += len(s.Payload)
	}
	return size
}

// ReadContainer reads a container written by WriteContainer. expect maps
// the header to the longest payload accepted for every known section id,
// which callers verify exact lengths beyond. Each payload is read into a
// buffer that grows as its bytes arrive, so a lying table costs what the
// stream delivers — or, where memory the caller holds vouches for the
// bounds (an index's labels beside their graph), allocated at once.
// Unknown ids are skipped (listed, with no payload), duplicate known ids
// rejected, and every payload is CRC-checked.
func ReadContainer(r io.Reader, vouched bool, expect func(Header) (map[uint32]uint64, error)) (Header, map[uint32]Section, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	h, rows, err := ReadTable(br)
	if err != nil {
		return h, nil, err
	}
	sections, err := readSections(h, rows, expect, func(row Row, keep bool) ([]byte, error) {
		switch {
		case !keep:
			// Clamped: a length past MaxInt64 would turn negative and skip nothing.
			_, err := io.CopyN(io.Discard, br, int64(min(row.Length, math.MaxInt64)))
			return nil, err
		case vouched:
			buf := make([]byte, row.Length)
			_, err := io.ReadFull(br, buf)
			return buf, err
		default:
			return ReadN(br, row.Length)
		}
	})
	return h, sections, err
}

// ReadBytes is ReadContainer over a container already in memory: the same
// checks in the same order, with data bounding every length. A row longer
// than the bytes left fails before anything is allocated for it, and each
// payload returned is a sub-slice of data, not a copy — a caller that
// keeps one past data's life copies it.
func ReadBytes(data []byte, expect func(Header) (map[uint32]uint64, error)) (Header, map[uint32]Section, error) {
	r := bytes.NewReader(data)
	h, rows, err := ReadTable(r)
	if err != nil {
		return h, nil, err
	}
	rest := data[len(data)-r.Len():]
	sections, err := readSections(h, rows, expect, func(row Row, _ bool) ([]byte, error) {
		if row.Length > uint64(len(rest)) {
			return nil, fmt.Errorf("%d bytes claimed, %d left: %w", row.Length, len(rest), io.ErrUnexpectedEOF)
		}
		p := rest[:row.Length:row.Length]
		rest = rest[row.Length:]
		return p, nil
	})
	return h, sections, err
}

// readSections checks the payloads of a container whose table has been
// read, in table order, taking each from next: keep is false for a section
// of an id expect does not list, which next only steps over.
func readSections(h Header, rows []Row, expect func(Header) (map[uint32]uint64, error), next func(row Row, keep bool) ([]byte, error)) (map[uint32]Section, error) {
	bounds, err := expect(h)
	if err != nil {
		return nil, err
	}
	sections := make(map[uint32]Section, len(rows))
	for _, row := range rows {
		max, known := bounds[row.ID]
		if !known {
			if _, err := next(row, false); err != nil {
				return nil, fmt.Errorf("container: skipping section %d: %w", row.ID, err)
			}
			sections[row.ID] = Section{ID: row.ID, CRC: row.CRC}
			continue
		}
		if row.Length > max {
			return nil, fmt.Errorf("container: section %d has length %d, exceeds %d", row.ID, row.Length, max)
		}
		if _, dup := sections[row.ID]; dup {
			return nil, fmt.Errorf("container: duplicate section %d", row.ID)
		}
		buf, err := next(row, true)
		if err != nil {
			return nil, fmt.Errorf("container: reading section %d: %w", row.ID, err)
		}
		if got := Checksum(0, buf); got != row.CRC {
			return nil, fmt.Errorf("container: section %d checksum mismatch (got %08x, want %08x)", row.ID, got, row.CRC)
		}
		sections[row.ID] = Section{ID: row.ID, CRC: row.CRC, Payload: buf}
	}
	return sections, nil
}

// ReadN reads n bytes into a buffer that starts at 64 KiB and doubles as
// they arrive, ending at exactly n, so a length the stream does not
// deliver costs at most twice what it did.
func ReadN(r io.Reader, n uint64) ([]byte, error) {
	buf := make([]byte, 0, min(n, 64<<10))
	for {
		k, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		if buf = buf[:len(buf)+k]; err != nil {
			return nil, err
		}
		if uint64(len(buf)) == n {
			return buf, nil
		}
		buf = append(make([]byte, 0, min(n, 2*uint64(cap(buf)))), buf...)
	}
}

// SaveFile writes path through write: to path+".tmp", renamed over path
// once complete, so a failed save leaves a previous file intact — the one
// save path of every file written here but the WAL. Durable fsyncs the
// bytes before the rename publishes them (a checkpoint, a generation
// claim); a graph, index or report file is rebuildable and skips it.
func SaveFile(path string, durable bool, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err = write(f); err == nil && durable {
		err = f.Sync()
	}
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
