package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"unicode"
	"unicode/utf8"

	"highway/internal/container"
)

// Text edge-list format: one edge per line, "u v" (whitespace separated),
// lines starting with '#' or '%' are comments (SNAP and KONECT conventions,
// the sources of the paper's datasets). Vertex ids must be non-negative
// integers; they are used as-is, so files should be densely numbered or the
// caller should compact afterwards via LargestComponent or InducedSubgraph.

// ReadEdgeList parses a text edge list from r.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	b := NewBuilder(0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		// The line is parsed where the scanner holds it: no string, no
		// field slice, so nothing is allocated per line.
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' || line[0] == '%' {
			continue
		}
		first, rest := cutField(line)
		second, _ := cutField(rest)
		if len(second) == 0 {
			return nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", lineNo, line)
		}
		u, err := parseVertex(first)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad vertex %q: %v", lineNo, first, err)
		}
		v, err := parseVertex(second)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad vertex %q: %v", lineNo, second, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex id", lineNo)
		}
		if max(u, v) >= maxVertices {
			return nil, fmt.Errorf("graph: line %d: vertex id %d too large (a graph holds at most %d vertices)", lineNo, max(u, v), maxVertices)
		}
		b.AddEdgeGrow(int32(u), int32(v))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return b.Build()
}

// cutField returns the first white-space-separated field of line and what
// follows it; line has no leading white space. White space is what
// unicode.IsSpace says, asked only once a byte outside ASCII turns up.
func cutField(line []byte) (field, rest []byte) {
	end := len(line)
	for i, c := range line {
		if c == ' ' || c-'\t' < 5 { // blank, \t \n \v \f \r
			end = i
			break
		}
		if c >= utf8.RuneSelf {
			if j := bytes.IndexFunc(line[i:], unicode.IsSpace); j >= 0 {
				end = i + j
			}
			break
		}
	}
	return line[:end], bytes.TrimLeftFunc(line[end:], unicode.IsSpace)
}

// parseVertex is strconv.ParseInt(string(field), 10, 32), which it calls
// for the verdict on anything but a plain run of at most nine digits.
func parseVertex(field []byte) (int64, error) {
	if len(field) == 0 || len(field) > 9 {
		return strconv.ParseInt(string(field), 10, 32)
	}
	id := int64(0)
	for _, c := range field {
		if c < '0' || c > '9' {
			return strconv.ParseInt(string(field), 10, 32)
		}
		id = id*10 + int64(c-'0')
	}
	return id, nil
}

// LoadEdgeList reads a text edge list file.
func LoadEdgeList(path string) (*Graph, error) { return load(path, ReadEdgeList) }

// LoadBinary reads a graph file.
func LoadBinary(path string) (*Graph, error) { return load(path, ReadBinary) }

func load(path string, read func(io.Reader) (*Graph, error)) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return read(f)
}

// WriteEdgeList writes the graph as a text edge list (each undirected edge
// once, with u < v).
func (g *Graph) WriteEdgeList(w io.Writer) error {
	const flushAt = 1 << 20
	buf := make([]byte, 0, flushAt+64) // room for the line that crosses flushAt
	buf = fmt.Appendf(buf, "# undirected graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	for u := int32(0); u < int32(g.NumVertices()); u++ {
		for _, v := range g.Neighbors(u) {
			if u >= v {
				continue
			}
			buf = strconv.AppendInt(buf, int64(u), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(v), 10)
			buf = append(buf, '\n')
			if len(buf) >= flushAt {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
	}
	_, err := w.Write(buf)
	return err
}

// A graph file is a container (internal/container) whose header holds n
// and, in Aux1, 2m, with the CSR arrays as sections 9 (offsets,
// [n+1]uint64) and 10 (targets, [2m]uint32); a snapshot holds the same two
// beside the labelling's.
const (
	SectOffsets uint32 = 9
	SectTargets uint32 = 10

	maxVertices = math.MaxInt32 // ids are int32, compared against int32(n)
	maxTargets  = 1 << 33       // 2m
)

// Sections encodes g as sections 9 and 10, the one encoder of its arrays,
// and keeps their checksums as g's Fingerprint.
func (g *Graph) Sections() []container.Section {
	off := make([]byte, 0, 8*len(g.offsets))
	for _, o := range g.offsets {
		off = binary.LittleEndian.AppendUint64(off, uint64(o))
	}
	tgt := make([]byte, 0, 4*len(g.targets))
	for _, t := range g.targets {
		tgt = binary.LittleEndian.AppendUint32(tgt, uint32(t))
	}
	g.fp.Store(1<<32 | uint64(fingerprint(container.Checksum(0, off), container.Checksum(0, tgt))))
	return []container.Section{{ID: SectOffsets, Payload: off}, {ID: SectTargets, Payload: tgt}}
}

// WriteBinary writes g as a graph file.
func (g *Graph) WriteBinary(w io.Writer) error {
	h := container.Header{N: uint64(g.NumVertices()), Aux1: uint64(len(g.targets))}
	return container.WriteContainer(w, h, g.Sections())
}

// Bounds returns the longest sections 9 and 10 of a graph of n vertices.
// n comes from the header the sections arrive under, so no reader vouches
// for them, and FromSections refuses an n too large.
func Bounds(n uint64) map[uint32]uint64 {
	return map[uint32]uint64{SectOffsets: (n + 1) * 8, SectTargets: maxTargets * 4}
}

// ReadBinary reads a graph file written by WriteBinary.
func ReadBinary(r io.Reader) (*Graph, error) {
	h, sec, err := container.ReadContainer(r, false, func(h container.Header) (map[uint32]uint64, error) { return Bounds(h.N), nil })
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	g, err := FromSections(h.N, sec)
	if err == nil && uint64(len(g.targets)) != h.Aux1 {
		return nil, fmt.Errorf("graph: header claims 2m=%d, section %d holds %d", h.Aux1, SectTargets, len(g.targets))
	}
	return g, err
}

// FromSections decodes sections 9 and 10 of a graph of n vertices: the one
// decoder of the arrays, whatever framed them. Rows that are not canonical
// — where HasEdge's binary search would answer wrong — are rejected with
// the vertex at fault. The sections' CRCs make g's Fingerprint.
func FromSections(n uint64, sec map[uint32]container.Section) (*Graph, error) {
	off, hasOff := sec[SectOffsets]
	tgt, hasTgt := sec[SectTargets]
	if !hasOff || !hasTgt || n > maxVertices || uint64(len(off.Payload)) != (n+1)*8 || len(tgt.Payload)%4 != 0 {
		return nil, fmt.Errorf("graph: sections %d and %d hold %d and %d bytes, not the arrays of %d vertices", SectOffsets, SectTargets, len(off.Payload), len(tgt.Payload), n)
	}
	g := &Graph{offsets: make([]int64, n+1), targets: make([]int32, len(tgt.Payload)/4)}
	for i := range g.offsets {
		g.offsets[i] = int64(binary.LittleEndian.Uint64(off.Payload[8*i:]))
	}
	if err := checkOffsets(g.offsets, int64(len(g.targets))); err != nil {
		return nil, err
	}
	for i := range g.targets {
		g.targets[i] = int32(binary.LittleEndian.Uint32(tgt.Payload[4*i:]))
	}
	if err := checkRows(g); err != nil {
		return nil, err
	}
	g.fp.Store(1<<32 | uint64(fingerprint(off.CRC, tgt.CRC)))
	return g, nil
}

// Fingerprint names g's arrays, for an index file to record: the CRC-32C
// of the CRC-32Cs of sections 9 and 10. A graph read or written as a
// container has it already; one built in memory checksums the sections'
// bytes once, encoded a 64 KiB buffer at a time, not the sections whole.
func (g *Graph) Fingerprint() uint32 {
	if g.fp.Load() == 0 {
		buf := make([]byte, 0, 64<<10)
		offCRC, tgtCRC := checksumLE(buf, g.offsets), checksumLE(buf, g.targets)
		g.fp.Store(1<<32 | uint64(fingerprint(offCRC, tgtCRC)))
	}
	return uint32(g.fp.Load())
}

// checksumLE returns the CRC-32C of vals as little-endian bytes, encoded
// into buf cap(buf)/8 values at a time.
func checksumLE[T int32 | int64](buf []byte, vals []T) uint32 {
	var crc uint32
	for len(vals) > 0 {
		n, b := min(len(vals), cap(buf)/8), buf[:0]
		switch chunk := any(vals[:n]).(type) {
		case []int64:
			for _, v := range chunk {
				b = binary.LittleEndian.AppendUint64(b, uint64(v))
			}
		case []int32:
			for _, v := range chunk {
				b = binary.LittleEndian.AppendUint32(b, uint32(v))
			}
		}
		crc = container.Checksum(crc, b)
		vals = vals[n:]
	}
	return crc
}

func fingerprint(offCRC, tgtCRC uint32) uint32 {
	return container.Checksum(0, binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, offCRC), tgtCRC))
}

// SaveBinary writes the graph file at path through a temporary file.
func (g *Graph) SaveBinary(path string) error { return container.SaveFile(path, false, g.WriteBinary) }

// checkOffsets verifies the row starts alone, before a byte of the rows is
// read: they begin at 0, never step back and end at the target count.
func checkOffsets(offsets []int64, len2m int64) error {
	n := len(offsets) - 1
	if offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", offsets[0])
	}
	for v := 0; v < n; v++ {
		if offsets[v] > offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
	}
	if offsets[n] != len2m {
		return fmt.Errorf("graph: offsets[n]=%d != len(targets)=%d", offsets[n], len2m)
	}
	return nil
}

// checkRows verifies that g's rows are what canonicalize produces: every
// neighbour in range, each row strictly ascending (sorted, no duplicate),
// no vertex its own neighbour, and w in v's row exactly when v is in w's.
func checkRows(g *Graph) error {
	n := g.NumVertices()
	for v := int32(0); int(v) < n; v++ {
		prev := int32(-1)
		for _, w := range g.Neighbors(v) {
			switch {
			case w < 0 || int(w) >= n:
				return fmt.Errorf("graph: vertex %d: neighbour %d out of range [0,%d)", v, w, n)
			case w == v:
				return fmt.Errorf("graph: vertex %d lists itself as a neighbour", v)
			case w <= prev:
				return fmt.Errorf("graph: vertex %d: neighbours not strictly ascending (%d after %d)", v, w, prev)
			}
			prev = w
		}
	}
	// Symmetry, each edge once: visiting v in ascending order, every upper
	// neighbour w > v must have v as the next unmatched entry of its lower
	// part (the neighbours below w, a prefix of its sorted row), and by v's
	// own turn every u < v has done the same, so v's lower part must be used
	// up — its upper part starts at the cursor.
	off, tgt := g.offsets, g.targets
	used := make([]int32, n) // entries of each row's lower part matched so far
	for v := int32(0); int(v) < n; v++ {
		lo, hi := off[v]+int64(used[v]), off[v+1]
		if lo < hi && tgt[lo] < v {
			x := tgt[lo]
			return fmt.Errorf("graph: vertex %d lists %d, but %d does not list %d", v, x, x, v)
		}
		for _, w := range tgt[lo:hi] {
			p, end := off[w]+int64(used[w]), off[w+1] // w's next unmatched entry, its row's end
			switch {
			case p < end && tgt[p] < v:
				x := tgt[p]
				return fmt.Errorf("graph: vertex %d lists %d, but %d does not list %d", w, x, x, w)
			case p == end || tgt[p] != v:
				return fmt.Errorf("graph: vertex %d lists %d, but %d does not list %d", v, w, w, v)
			}
			used[w]++
		}
	}
	return nil
}
