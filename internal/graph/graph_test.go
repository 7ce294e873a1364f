package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"highway/internal/container"
)

// pathGraph returns the path 0-1-2-...-(n-1).
func pathGraph(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.MustBuild()
}

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("zero Graph: n=%d m=%d, want 0,0", g.NumVertices(), g.NumEdges())
	}
	if g.AvgDegree() != 0 {
		t.Fatalf("zero Graph avg degree = %v", g.AvgDegree())
	}
	if d, v := g.MaxDegree(); d != 0 || v != -1 {
		t.Fatalf("zero Graph max degree = %d,%d", d, v)
	}
	built := NewBuilder(0).MustBuild()
	if built.NumVertices() != 0 {
		t.Fatalf("built empty graph has %d vertices", built.NumVertices())
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self-loop dropped
	b.AddEdge(3, 1)
	g := b.MustBuild()
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d, want 2", g.NumEdges())
	}
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []int32{0, 3}) {
		t.Fatalf("Neighbors(1) = %v, want [0 3]", got)
	}
	if g.Degree(2) != 0 {
		t.Fatalf("Degree(2) = %d, want 0 (self-loop dropped)", g.Degree(2))
	}
}

func TestBuilderOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted out-of-range edge")
	}
	b2 := NewBuilder(0)
	b2.AddEdgeGrow(0, 5)
	g := b2.MustBuild()
	if g.NumVertices() != 6 {
		t.Fatalf("AddEdgeGrow: n = %d, want 6", g.NumVertices())
	}
}

func TestNeighborsSortedProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, extra uint16) bool {
		n := int(nRaw%50) + 2
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(n)
		for i := 0; i < int(extra%500); i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.MustBuild()
		for v := int32(0); v < int32(n); v++ {
			nb := g.Neighbors(v)
			if !sort.SliceIsSorted(nb, func(i, j int) bool { return nb[i] < nb[j] }) {
				return false
			}
			for i := 1; i < len(nb); i++ {
				if nb[i] == nb[i-1] {
					return false // duplicate neighbor
				}
			}
			for _, w := range nb {
				if w == v {
					return false // self loop survived
				}
				if !g.HasEdge(w, v) {
					return false // asymmetric adjacency
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHasEdge(t *testing.T) {
	g := MustFromEdges(5, [][2]int32{{0, 1}, {1, 2}, {3, 4}})
	cases := []struct {
		u, v int32
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {1, 2, true}, {0, 2, false},
		{3, 4, true}, {4, 3, true}, {0, 4, false}, {2, 2, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

// TestHasEdgeIsolatedVertex pins the degenerate empty-adjacency case:
// probing from or to a vertex with no neighbors must return false
// without touching the targets array.
func TestHasEdgeIsolatedVertex(t *testing.T) {
	g := MustFromEdges(4, [][2]int32{{0, 1}})
	for _, c := range [][2]int32{{2, 0}, {2, 3}, {3, 2}, {2, 2}} {
		if g.HasEdge(c[0], c[1]) {
			t.Errorf("HasEdge(%d,%d) = true on isolated vertex", c[0], c[1])
		}
	}
}

func TestSearchInt32(t *testing.T) {
	cases := []struct {
		a    []int32
		x    int32
		want int
	}{
		{nil, 5, 0},
		{[]int32{}, 5, 0},
		{[]int32{3}, 2, 0},
		{[]int32{3}, 3, 0},
		{[]int32{3}, 4, 1},
		{[]int32{1, 3, 5, 7}, 0, 0},
		{[]int32{1, 3, 5, 7}, 4, 2},
		{[]int32{1, 3, 5, 7}, 5, 2},
		{[]int32{1, 3, 5, 7}, 8, 4},
	}
	for _, c := range cases {
		if got := SearchInt32(c.a, c.x); got != c.want {
			t.Errorf("SearchInt32(%v, %d) = %d, want %d", c.a, c.x, got, c.want)
		}
	}
}

// TestCSRView verifies the flat-array view matches the method-based one.
func TestCSRView(t *testing.T) {
	g := MustFromEdges(4, [][2]int32{{0, 1}, {1, 2}, {0, 3}})
	off, tgt := g.CSR()
	if len(off) != g.NumVertices()+1 || int64(len(tgt)) != 2*g.NumEdges() {
		t.Fatalf("CSR shape: %d offsets, %d targets", len(off), len(tgt))
	}
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		nb := tgt[off[v]:off[v+1]]
		want := g.Neighbors(v)
		if len(nb) != len(want) {
			t.Fatalf("vertex %d: CSR degree %d, Neighbors %d", v, len(nb), len(want))
		}
		for i := range nb {
			if nb[i] != want[i] {
				t.Fatalf("vertex %d neighbor %d: CSR %d, Neighbors %d", v, i, nb[i], want[i])
			}
		}
	}
}

func TestDegreeStats(t *testing.T) {
	// Star: center 0 with 4 leaves.
	g := MustFromEdges(5, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if d, v := g.MaxDegree(); d != 4 || v != 0 {
		t.Fatalf("MaxDegree = %d,%d want 4,0", d, v)
	}
	if got := g.AvgDegree(); got != 8.0/5.0 {
		t.Fatalf("AvgDegree = %v, want 1.6", got)
	}
	if g.SizeBytes() != int64(6*8+8*4) {
		t.Fatalf("SizeBytes = %d", g.SizeBytes())
	}
}

func TestDegreeOrder(t *testing.T) {
	// degrees: 0->4 (star center), 1..4 -> 1 each; plus edge {1,2}: deg1=deg2=2.
	g := MustFromEdges(5, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}})
	order := g.DegreeOrder()
	want := []int32{0, 1, 2, 3, 4} // degrees 4,2,2,1,1; ties by id
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("DegreeOrder = %v, want %v", order, want)
	}
}

func TestDegreeOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(80) + 1
		b := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.MustBuild()
		order := g.DegreeOrder()
		if len(order) != n {
			return false
		}
		seen := make([]bool, n)
		for i, v := range order {
			if seen[v] {
				return false
			}
			seen[v] = true
			if i > 0 {
				du, dv := g.Degree(order[i-1]), g.Degree(v)
				if du < dv || (du == dv && order[i-1] > v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := MustFromEdges(6, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {1, 4}})
	sub, orig, err := g.InducedSubgraph([]int32{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumVertices() != 3 {
		t.Fatalf("n = %d, want 3", sub.NumVertices())
	}
	// Edges among {1,2,4}: {1,2} and {1,4}. New ids: 1->0, 2->1, 4->2.
	if sub.NumEdges() != 2 || !sub.HasEdge(0, 1) || !sub.HasEdge(0, 2) || sub.HasEdge(1, 2) {
		t.Fatalf("induced edges wrong: %v", sub)
	}
	if !reflect.DeepEqual(orig, []int32{1, 2, 4}) {
		t.Fatalf("orig = %v", orig)
	}
}

func TestInducedSubgraphErrors(t *testing.T) {
	g := pathGraph(4)
	if _, _, err := g.InducedSubgraph([]int32{0, 0}); err == nil {
		t.Fatal("duplicate vertex accepted")
	}
	if _, _, err := g.InducedSubgraph([]int32{9}); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
}

func TestLargestComponent(t *testing.T) {
	// Component A: path of 4; component B: triangle.
	g := MustFromEdges(7, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 4}})
	lcc, orig := LargestComponent(g)
	if lcc.NumVertices() != 4 {
		t.Fatalf("LCC size = %d, want 4", lcc.NumVertices())
	}
	if !reflect.DeepEqual(orig, []int32{0, 1, 2, 3}) {
		t.Fatalf("orig = %v", orig)
	}
	// Connected graph: LargestComponent returns the graph itself.
	p := pathGraph(5)
	same, ids := LargestComponent(p)
	if same != p || len(ids) != 5 {
		t.Fatal("connected graph not returned as-is")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := MustFromEdges(6, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {1, 4}})
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, g2) {
		t.Fatal("edge list round trip mismatch")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",
		"a b\n",
		"0 x\n",
		"-1 2\n",
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(bytes.NewBufferString(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
	// Comments and blanks OK.
	g, err := ReadEdgeList(bytes.NewBufferString("# c\n% c\n\n0 1\n1 2\n"))
	if err != nil || g.NumEdges() != 2 {
		t.Fatalf("comment parsing failed: %v %v", g, err)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder(200)
	for i := 0; i < 900; i++ {
		b.AddEdge(int32(rng.Intn(200)), int32(rng.Intn(200)))
	}
	g := b.MustBuild()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, g2) {
		t.Fatal("binary round trip mismatch")
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewBufferString("not a graph file at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Corrupt a valid stream.
	g := pathGraph(5)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-1] = 0xFF // target out of range
	if _, err := ReadBinary(bytes.NewBuffer(data)); err == nil {
		t.Fatal("corrupted targets accepted")
	}
	// Offsets and no targets section: not an edgeless graph.
	buf.Reset()
	if err := container.WriteContainer(&buf, container.Header{N: 1}, []container.Section{{ID: SectOffsets, Payload: make([]byte, 16)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(&buf); err == nil {
		t.Fatal("file without a targets section accepted")
	}
}

func TestBinaryFileRoundTrip(t *testing.T) {
	g := pathGraph(16)
	path := t.TempDir() + "/g.bin"
	if err := g.SaveBinary(path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, g2) {
		t.Fatal("file round trip mismatch")
	}
}

func graphsEqual(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := int32(0); v < int32(a.NumVertices()); v++ {
		if !reflect.DeepEqual(a.Neighbors(v), b.Neighbors(v)) {
			return false
		}
	}
	return true
}
