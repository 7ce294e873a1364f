package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"highway/internal/container"
)

// referenceBuild is the construction Builder.Build used before the
// linear-time kernel, kept as the oracle the kernel is compared against:
// pack every edge as min<<32|max, sort the whole list, skip repeats while
// counting degrees and scattering, then sort each row.
func referenceBuild(n int, edges [][2]int32) (*Graph, error) {
	var packed []uint64
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if u < 0 || int(v) >= n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, n)
		}
		packed = append(packed, uint64(uint32(u))<<32|uint64(uint32(v)))
	}
	sort.Slice(packed, func(i, j int) bool { return packed[i] < packed[j] })
	unique := packed[:0]
	for i, e := range packed {
		if i == 0 || e != packed[i-1] {
			unique = append(unique, e)
		}
	}
	offsets := make([]int64, n+1)
	for _, e := range unique {
		offsets[int32(e>>32)+1]++
		offsets[int32(uint32(e))+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]int32, 2*len(unique))
	cursor := append([]int64(nil), offsets[:n]...)
	for _, e := range unique {
		u, v := int32(e>>32), int32(uint32(e))
		targets[cursor[u]] = v
		cursor[u]++
		targets[cursor[v]] = u
		cursor[v]++
	}
	g := &Graph{offsets: offsets, targets: targets}
	for v := int32(0); int(v) < n; v++ {
		nb := g.Neighbors(v)
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
	}
	return g, nil
}

// adjacencyOf is the edge list as the rows a caller of FromAdjacency
// holds: both directions of every edge in arrival order, repeats and
// self-loops included. An endpoint outside [0,n) has no row of its own and
// appears only in its partner's.
func adjacencyOf(n int, edges [][2]int32) [][]int32 {
	rows := make([][]int32, n)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u >= 0 && int(u) < n {
			rows[u] = append(rows[u], v)
		}
		if v >= 0 && int(v) < n && u != v {
			rows[v] = append(rows[v], u)
		}
	}
	return rows
}

func graphBytes(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomMultigraph draws an edge list that holds everything the builders
// must absorb: self-loops, repeated and reversed edges, vertices no edge
// touches, and one hub adjacent to at least half the vertices.
func randomMultigraph(rng *rand.Rand, n int) [][2]int32 {
	if n == 0 {
		return nil
	}
	var edges [][2]int32
	v := func() int32 { return int32(rng.Intn((n + 1) / 2)) } // the upper half stays isolated but for the hub
	for i, m := 0, rng.Intn(4*n+1); i < m; i++ {
		e := [2]int32{v(), v()}
		edges = append(edges, e)
		switch rng.Intn(4) {
		case 0:
			edges = append(edges, e)
		case 1:
			edges = append(edges, [2]int32{e[1], e[0]})
		}
	}
	hub := v()
	for _, w := range rng.Perm(n)[:(n+1)/2] {
		edges = append(edges, [2]int32{hub, int32(w)})
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// TestBuildMatchesReference is the differential gate on the construction
// kernels: over seeded random multigraphs, Builder.Build and FromAdjacency
// must serialize to exactly the reference's bytes, and so must the
// subgraph InducedSubgraph cuts out of them. Sizes lie on both sides of
// parallelSlots and GOMAXPROCS is 1, 2 and 4, so every row pass runs
// serial and split.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sizes := []int{0, 1, 2, 3, 17, 200, 1500, 9000, 60000}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for round := 0; round < 27; round++ {
		n := sizes[round%len(sizes)]
		runtime.GOMAXPROCS(1 << (round / len(sizes))) // 1, 2, 4
		edges := randomMultigraph(rng, n)
		for n == 60000 && 2*len(edges) < 2*parallelSlots { // large enough to split
			edges = randomMultigraph(rng, n)
		}
		want, err := referenceBuild(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		built, err := FromEdges(n, edges)
		if err != nil {
			t.Fatalf("n=%d: Build: %v", n, err)
		}
		if !bytes.Equal(graphBytes(t, built), graphBytes(t, want)) {
			t.Fatalf("n=%d, %d raw edges: Build gives %v, reference %v, bytes differ", n, len(edges), built, want)
		}
		fromRows, err := FromAdjacency(adjacencyOf(n, edges))
		if err != nil {
			t.Fatalf("n=%d: FromAdjacency: %v", n, err)
		}
		if !bytes.Equal(graphBytes(t, fromRows), graphBytes(t, want)) {
			t.Fatalf("n=%d, %d raw edges: FromAdjacency gives %v, reference %v, bytes differ", n, len(edges), fromRows, want)
		}
		if err := checkRows(built); err != nil {
			t.Fatalf("n=%d: built graph is not canonical: %v", n, err)
		}
		// Every third vertex dropped, the rest in order: the rows of the
		// reference, renumbered, without the dropped neighbours.
		var keep []int32
		newID := make([]int32, n)
		for v := range newID {
			newID[v] = -1
			if v%3 != 0 {
				newID[v] = int32(len(keep))
				keep = append(keep, int32(v))
			}
		}
		var kept [][2]int32
		for _, e := range edges {
			if a, b := newID[e[0]], newID[e[1]]; a >= 0 && b >= 0 {
				kept = append(kept, [2]int32{a, b})
			}
		}
		wantSub, _ := referenceBuild(len(keep), kept)
		sub, _, err := built.InducedSubgraph(keep)
		if err != nil {
			t.Fatalf("n=%d: InducedSubgraph: %v", n, err)
		}
		if !bytes.Equal(graphBytes(t, sub), graphBytes(t, wantSub)) {
			t.Fatalf("n=%d: InducedSubgraph gives %v, reference %v, bytes differ", n, sub, wantSub)
		}
	}
}

// TestBuildOutOfRangeMatchesReference: an endpoint outside [0,n) is the
// same error from all three constructions, and of several such edges the
// one named is the first in the order they were added.
func TestBuildOutOfRangeMatchesReference(t *testing.T) {
	for _, bad := range [][2]int32{{2, 9}, {9, 2}, {-1, 3}, {3, -4}} {
		edges := [][2]int32{{0, 1}, {1, 2}, bad, {3, 4}, {7, 1}, {-2, -3}}
		_, want := referenceBuild(5, edges)
		if want == nil {
			t.Fatalf("reference accepted %v", bad)
		}
		if _, err := FromEdges(5, edges); err == nil || err.Error() != want.Error() {
			t.Errorf("Build with %v: error %v, want %v", bad, err, want)
		}
		if _, err := FromAdjacency(adjacencyOf(5, edges[:4])); err == nil || err.Error() != want.Error() {
			t.Errorf("FromAdjacency with %v: error %v, want %v", bad, err, want)
		}
	}
}

// TestInducedSubgraphAnyOrder: keep in ascending, descending and shuffled
// order gives the graph a Builder makes from the renumbered edges.
func TestInducedSubgraphAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := MustFromEdges(400, randomMultigraph(rng, 400))
	keep := make([]int32, 0, 250)
	for _, v := range rng.Perm(400)[:250] {
		keep = append(keep, int32(v))
	}
	orders := map[string]func(){
		"ascending":  func() { slices.Sort(keep) },
		"descending": func() { slices.Sort(keep); slices.Reverse(keep) },
		"shuffled":   func() { rng.Shuffle(len(keep), func(i, j int) { keep[i], keep[j] = keep[j], keep[i] }) },
	}
	for name, order := range orders {
		order()
		sub, orig, err := g.InducedSubgraph(keep)
		if err != nil {
			t.Fatal(err)
		}
		var edges [][2]int32
		for i, u := range keep {
			for j, v := range keep {
				if i < j && g.HasEdge(u, v) {
					edges = append(edges, [2]int32{int32(i), int32(j)})
				}
			}
		}
		want, _ := referenceBuild(len(keep), edges)
		if !bytes.Equal(graphBytes(t, sub), graphBytes(t, want)) {
			t.Errorf("%s keep: induced subgraph %v differs from the reference %v", name, sub, want)
		}
		if !slices.Equal(orig, keep) {
			t.Errorf("%s keep: orig is not keep", name)
		}
	}
}

// rawGraphBytes serializes arrays that need not form a canonical graph.
func rawGraphBytes(t testing.TB, offsets []int64, targets []int32) []byte {
	return graphBytes(t, &Graph{offsets: offsets, targets: targets})
}

// TestReadBinaryRejectsNonCanonical: every way a stream can hold
// well-formed arrays that are not a canonical graph is refused, naming the
// vertex.
func TestReadBinaryRejectsNonCanonical(t *testing.T) {
	for _, tc := range []struct {
		name    string
		offsets []int64
		targets []int32
		want    string
	}{
		{"unsorted row", []int64{0, 2, 3, 4}, []int32{2, 1, 0, 0}, "vertex 0: neighbours not strictly ascending"},
		{"duplicate neighbour", []int64{0, 2, 4}, []int32{1, 1, 0, 0}, "vertex 0: neighbours not strictly ascending"},
		{"self-loop", []int64{0, 1, 2}, []int32{1, 1}, "vertex 1 lists itself"},
		{"one-way edge", []int64{0, 1, 1, 2}, []int32{1, 0}, "vertex 0 lists 1, but 1 does not list 0"},
		{"one-way edge, earlier row", []int64{0, 1, 3, 4}, []int32{1, 0, 2, 0}, "vertex 2 lists 0, but 0 does not list 2"},
		{"target out of range", []int64{0, 1, 2}, []int32{1, 7}, "vertex 1: neighbour 7 out of range"},
		{"offsets step back", []int64{0, 2, 1, 2}, []int32{1, 0}, "offsets not monotone at vertex 1"},
		{"offsets end early", []int64{0, 1, 1}, []int32{1, 0}, "offsets[n]=1"},
	} {
		_, err := ReadBinary(bytes.NewReader(rawGraphBytes(t, tc.offsets, tc.targets)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// lyingHeader is a stream whose header and table claim the largest graph
// the format allows and whose sections are a few bytes.
func lyingHeader() []byte {
	var data bytes.Buffer
	h := container.Header{N: maxVertices, Aux1: maxTargets}
	if err := container.WriteContainer(&data, h, []container.Section{{ID: SectOffsets}, {ID: SectTargets}}); err != nil {
		panic(err)
	}
	raw := data.Bytes()
	table := len(raw) - 2*16 // the two rows: id, crc, then the length to inflate
	binary.LittleEndian.PutUint64(raw[table+8:], (maxVertices+1)*8)
	binary.LittleEndian.PutUint64(raw[table+16+8:], maxTargets*4)
	return append(raw, make([]byte, 64)...)
}

// allocatedBy returns the bytes fn allocates, as the runtime counts them.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// readBinaryBudget is what ReadBinary may allocate on a stream of size
// bytes: its read buffer and first chunks, then no more than a few times
// what the stream delivered (the sections, one doubling behind them, the
// decoded arrays, the symmetry cursor).
func readBinaryBudget(size int) uint64 { return 4<<20 + 8*uint64(size) }

func TestReadBinaryAllocationTracksInput(t *testing.T) {
	data := lyingHeader()
	var err error
	got := allocatedBy(func() { _, err = ReadBinary(bytes.NewReader(data)) })
	if err == nil {
		t.Fatal("truncated stream accepted")
	}
	if got > readBinaryBudget(len(data)) {
		t.Fatalf("ReadBinary allocated %d bytes on a %d-byte stream", got, len(data))
	}
}

func TestReadEdgeListRejectsHugeVertexID(t *testing.T) {
	_, err := ReadEdgeList(strings.NewReader("0 1\n1 2147483647\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("vertex id 2^31-1: error %v, want a line-2 error", err)
	}
}

// referenceReadEdgeList is ReadEdgeList as it was while it made a string
// and a field slice of every line; the parser that works in the scanner's
// buffer must accept and reject the same inputs with the same words.
func referenceReadEdgeList(r io.Reader) (*Graph, error) {
	b := NewBuilder(0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad vertex %q: %v", lineNo, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad vertex %q: %v", lineNo, fields[1], err)
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

// sameEdgeListVerdict fails unless both readers return the same graph or
// the same error for input.
func sameEdgeListVerdict(t *testing.T, input string) {
	t.Helper()
	want, wantErr := referenceReadEdgeList(strings.NewReader(input))
	got, err := ReadEdgeList(strings.NewReader(input))
	switch {
	case (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()):
		t.Fatalf("input %q: error %v, reference %v", input, err, wantErr)
	case err == nil && !bytes.Equal(graphBytes(t, got), graphBytes(t, want)):
		t.Fatalf("input %q: read %v, reference %v, bytes differ", input, got, want)
	}
}

var edgeListCorpus = []string{
	"0 1\n1 2\n",
	"# c\n% c\n\n0 1\n  # indented comment\n1 2\n",
	"0\t1\r\n1 \t 2 \r\n",             // tabs, CRLF, trailing blanks
	"0 1 0.5 1700000000\n2 1 x\n",     // weights and timestamps after the ids
	"007 +8\n",                        // leading zeros, a plus sign
	"3 3\n",                           // self-loop
	"0\u00a01\n1\u20282\n",            // Unicode white space separates too
	"123456789 x\n", "1234567890 x\n", // nine digits are parsed in place, ten are not
	"0 1\n5\n",        // one field
	"0 1\n \t \n7 \n", // blank line, then one field and a blank
	"a b\n", "0 x\n", "0 1x\n", "0x10 1\n", "1_0 2\n", "1.0 2\n", "\x00 1\n", "1 \xff\n",
	"-1 2\n", "2 -0\n", "-0 2\n",
	"0 1\n1 2147483647\n",      // the largest int32 is not a vertex
	"2147483648 1\n",           // out of int32
	"1 99999999999999999999\n", // out of int64
	"0 1",                      // no final newline
	"",
}

func TestReadEdgeListMatchesReference(t *testing.T) {
	for _, input := range edgeListCorpus {
		sameEdgeListVerdict(t, input)
	}
}

// FuzzReadEdgeList runs the same comparison on arbitrary bytes. Inputs
// with seven digits in a row are left out: both readers would build a
// graph with that many vertices.
func FuzzReadEdgeList(f *testing.F) {
	for _, input := range edgeListCorpus {
		f.Add(input)
	}
	longID := regexp.MustCompile(`[0-9]{7}`)
	f.Fuzz(func(t *testing.T, input string) {
		if longID.MatchString(input) {
			t.Skip()
		}
		sameEdgeListVerdict(t, input)
	})
}

// TestReadEdgeListAllocations: what ReadEdgeList allocates is its buffers
// and the graph, none of it per line.
func TestReadEdgeListAllocations(t *testing.T) {
	allocs := func(lines int) float64 {
		var text strings.Builder
		for i := 0; i < lines; i++ {
			fmt.Fprintf(&text, "%d %d\n", i%1000, (i*7+1)%1000)
		}
		input := text.String()
		return testing.AllocsPerRun(5, func() {
			if _, err := ReadEdgeList(strings.NewReader(input)); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Sixteen times the lines regrow the edge buffer a few more times.
	if few, many := allocs(5_000), allocs(80_000); many > 2*few {
		t.Fatalf("%v allocations for 5000 lines, %v for 80000: allocation grows with the line count", few, many)
	}
}

// FuzzReadBinary holds the graph file reader total on arbitrary bytes —
// the same container reader and section decoder take a follower's snapshot
// from the network: it never panics, allocates in proportion to the bytes
// it was given whatever the header and table claim, and whatever it
// accepts answers HasEdge the same from both ends and, framed as
// WriteBinary frames it, serializes back to exactly the bytes it was read
// from. CI runs this target in the fuzz job.
func FuzzReadBinary(f *testing.F) {
	f.Add(graphBytes(f, pathGraph(5)))
	f.Add(graphBytes(f, MustFromEdges(6, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 4}})))
	f.Add(graphBytes(f, NewBuilder(0).MustBuild()))
	f.Add(rawGraphBytes(f, []int64{0, 2, 3, 4}, []int32{2, 1, 0, 0}))
	f.Add(rawGraphBytes(f, []int64{0, 1, 1, 2}, []int32{1, 0}))
	f.Add(lyingHeader())
	f.Add([]byte(container.Magic))

	f.Fuzz(func(t *testing.T, data []byte) {
		var g *Graph
		var err error
		if got := allocatedBy(func() { g, err = ReadBinary(bytes.NewReader(data)) }); got > readBinaryBudget(len(data)) {
			t.Fatalf("ReadBinary allocated %d bytes on a %d-byte stream", got, len(data))
		}
		if err != nil {
			return
		}
		out := graphBytes(t, g)
		h, rows, _ := container.ReadTable(bytes.NewReader(data))
		if h.K == 0 && h.Aux2 == 0 && len(rows) == 2 && rows[0].ID == SectOffsets && rows[1].ID == SectTargets && !bytes.Equal(out, data[:len(out)]) {
			t.Fatalf("accepted stream re-encodes differently: %x vs %x", out, data[:len(out)])
		}
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			for _, w := range g.Neighbors(v) {
				if w == v || !g.HasEdge(w, v) {
					t.Fatalf("accepted graph: %d lists %d but HasEdge(%d,%d) is %v", v, w, w, v, g.HasEdge(w, v))
				}
			}
		}
	})
}
