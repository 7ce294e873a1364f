package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf8"
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
func LoadEdgeList(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(bufio.NewReaderSize(f, 1<<20))
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

// Binary format:
//
//	magic   [8]byte  "HWGRAPH1"
//	n       uint64
//	len2m   uint64   (len(targets))
//	offsets [n+1]uint64
//	targets [2m]uint32
//
// Little-endian throughout. The version byte in the magic allows future
// int64-target formats without breaking readers.
var binaryMagic = [8]byte{'H', 'W', 'G', 'R', 'A', 'P', 'H', '1'}

// WriteBinary serializes the graph in the compact binary format.
func (g *Graph) WriteBinary(w io.Writer) error {
	hdr := append(make([]byte, 0, 24), binaryMagic[:]...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(g.NumVertices()))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(g.targets)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if err := writeArray(w, g.offsets); err != nil {
		return err
	}
	return writeArray(w, g.targets)
}

// writeArray writes vals as little-endian values, encoding and writing a
// chunk at a time as readArray reads them.
func writeArray[T int32 | int64](w io.Writer, vals []T) error {
	const chunk = 1 << 16 // values per write
	buf := make([]byte, 0, min(len(vals), chunk)*binary.Size(T(0)))
	for len(vals) > 0 {
		k := min(len(vals), chunk)
		out, err := binary.Append(buf, binary.LittleEndian, vals[:k])
		if err != nil {
			return err
		}
		if _, err := w.Write(out); err != nil {
			return err
		}
		vals = vals[k:]
	}
	return nil
}

// maxVertices is the largest vertex count a Graph holds: ids are int32 and
// loops compare them against int32(n).
const maxVertices = math.MaxInt32

// ReadBinary deserializes a graph written by WriteBinary. The bytes may
// come from the network (a follower's snapshot bootstrap), so memory is
// allocated as the arrays arrive, not from the header's counts, and rows
// that are not canonical — where HasEdge's binary search would answer
// wrong — are rejected with the vertex at fault.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q (not a HWGRAPH1 file)", magic[:])
	}
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[0:])
	len2m := binary.LittleEndian.Uint64(hdr[8:])
	if n > maxVertices || len2m > 1<<33 {
		return nil, fmt.Errorf("graph: header claims n=%d, 2m=%d: too large", n, len2m)
	}
	offsets, err := readArray[int64](br, n+1)
	if err != nil {
		return nil, fmt.Errorf("graph: reading offsets: %w", err)
	}
	if err := checkOffsets(offsets, int64(len2m)); err != nil {
		return nil, err
	}
	targets, err := readArray[int32](br, len2m)
	if err != nil {
		return nil, fmt.Errorf("graph: reading targets: %w", err)
	}
	g := &Graph{offsets: offsets, targets: targets}
	if err := checkRows(g); err != nil {
		return nil, err
	}
	return g, nil
}

// readArray reads count little-endian values. The result grows by doubling
// as chunks arrive and ends at exactly count, so a header that lies about
// its counts costs at most twice the bytes the stream really delivers, plus
// one chunk.
func readArray[T int32 | int64](r io.Reader, count uint64) ([]T, error) {
	const chunk = 1 << 16 // values per read
	size := binary.Size(T(0))
	out := make([]T, 0, min(count, chunk))
	buf := make([]byte, cap(out)*size)
	for uint64(len(out)) < count {
		if len(out) == cap(out) {
			out = append(make([]T, 0, min(count, 2*uint64(cap(out)))), out...)
		}
		k := min(cap(out)-len(out), chunk)
		if _, err := io.ReadFull(r, buf[:k*size]); err != nil {
			return nil, err
		}
		out = out[:len(out)+k]
		if _, err := binary.Decode(buf[:k*size], binary.LittleEndian, out[len(out)-k:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SaveBinary writes the graph to a file in binary format.
func (g *Graph) SaveBinary(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteBinary(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadBinary reads a binary graph file.
func LoadBinary(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}

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
	// Symmetry in one pass: visiting v in ascending order, the next
	// unmatched entry of each sorted row w must be v itself.
	next := slices.Clone(g.offsets[:n])
	for v := int32(0); int(v) < n; v++ {
		for _, w := range g.Neighbors(v) {
			i := next[w]
			switch {
			case i < g.offsets[w+1] && g.targets[i] < v:
				x := g.targets[i]
				return fmt.Errorf("graph: vertex %d lists %d, but %d does not list %d", w, x, x, w)
			case i == g.offsets[w+1] || g.targets[i] != v:
				return fmt.Errorf("graph: vertex %d lists %d, but %d does not list %d", v, w, w, v)
			}
			next[w]++
		}
	}
	return nil
}
