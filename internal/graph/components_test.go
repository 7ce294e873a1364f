package graph_test

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"highway/internal/gen"
	"highway/internal/graph"
)

// referenceComponents labels every vertex with a component id in
// [0, count), ids in order of each component's smallest vertex, by a BFS
// from every vertex not yet labelled.
func referenceComponents(g *graph.Graph) (labels []int32, count int) {
	labels = make([]int32, g.NumVertices())
	for i := range labels {
		labels[i] = -1
	}
	var queue []int32
	for v := range int32(len(labels)) {
		if labels[v] >= 0 {
			continue
		}
		labels[v] = int32(count)
		queue = append(queue[:0], v)
		for head := 0; head < len(queue); head++ {
			for _, w := range g.Neighbors(queue[head]) {
				if labels[w] < 0 {
					labels[w] = int32(count)
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return labels, count
}

// referenceLargestComponent is LargestComponent as it was before it swept:
// every component labelled, the first of the largest cut out by
// InducedSubgraph.
func referenceLargestComponent(g *graph.Graph) (*graph.Graph, []int32) {
	labels, count := referenceComponents(g)
	if count <= 1 {
		ids := make([]int32, g.NumVertices())
		for i := range ids {
			ids[i] = int32(i)
		}
		return g, ids
	}
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	best := int32(0)
	for c := range int32(count) {
		if sizes[c] > sizes[best] {
			best = c
		}
	}
	var keep []int32
	for v, l := range labels {
		if l == best {
			keep = append(keep, int32(v))
		}
	}
	sub, orig, err := g.InducedSubgraph(keep)
	if err != nil {
		panic(err)
	}
	return sub, orig
}

// sameLargestComponent fails unless LargestComponent and the reference
// give the same graph bytes and the same ids, and returns the graph.
func sameLargestComponent(t *testing.T, name string, g *graph.Graph) *graph.Graph {
	t.Helper()
	got, ids := graph.LargestComponent(g)
	want, wantIDs := referenceLargestComponent(g)
	if (got == g) != (want == g) {
		t.Fatalf("%s: %v: returned as it is: %v, the reference: %v", name, g, got == g, want == g)
	}
	if string(bytesOf(t, got)) != string(bytesOf(t, want)) || !slices.Equal(ids, wantIDs) {
		t.Fatalf("%s: %v: LargestComponent gives %v, the reference %v", name, g, got, want)
	}
	return got
}

// edgesOf returns g's edges, each once, shifted by offset.
func edgesOf(g *graph.Graph, offset int32) [][2]int32 {
	var edges [][2]int32
	for u := range int32(g.NumVertices()) {
		for _, v := range g.Neighbors(u) {
			if u < v {
				edges = append(edges, [2]int32{u + offset, v + offset})
			}
		}
	}
	return edges
}

// againstPasses returns a graph whose hub's leaves overflow the sweep's
// stack at once, with paths hanging off the hub whose ids fall away from
// it, so that each bottom-up pass over ascending ids reaches one more
// vertex of each path: the order that takes the most passes.
func againstPasses(leaves, paths, length int) *graph.Graph {
	n := 1 + leaves + paths*length
	var edges [][2]int32
	for l := 1; l <= leaves; l++ {
		edges = append(edges, [2]int32{0, int32(l)})
	}
	next := int32(n)
	for range paths {
		prev := int32(0)
		for range length {
			next--
			edges = append(edges, [2]int32{prev, next})
			prev = next
		}
	}
	return graph.MustFromEdges(n, edges)
}

func TestLargestComponentMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		sameLargestComponent(t, "raw R-MAT", gen.RMAT(12, 8, 0.57, 0.19, 0.19, seed))
	}
	ba := gen.BarabasiAlbert(2000, 3, 5)
	for _, at := range [][2]int32{{0, 2000}, {40, 0}} {
		// BA's vertices from at[0] on; from at[1] on, a triangle and a
		// pair in every 8 of 40 vertices, the others isolated.
		edges := edgesOf(ba, at[0])
		for v := at[1]; v < at[1]+40; v += 8 {
			edges = append(edges, [2]int32{v, v + 1}, [2]int32{v + 1, v + 2}, [2]int32{v + 2, v}, [2]int32{v + 4, v + 5})
		}
		sameLargestComponent(t, "BA with small components", graph.MustFromEdges(ba.NumVertices()+40, edges))
	}
	// Two halves of equal size: the one with the smaller least vertex is
	// kept, whichever holds the hub.
	path, star := gen.Path(10), gen.Star(10)
	halves := map[string]*graph.Graph{
		"path then star": graph.MustFromEdges(20, append(edgesOf(path, 0), edgesOf(star, 10)...)),
		"star then path": graph.MustFromEdges(20, append(edgesOf(star, 0), edgesOf(path, 10)...)),
	}
	interleaved := make([][2]int32, 0)
	for _, e := range edgesOf(star, 0) {
		interleaved = append(interleaved, [2]int32{2*e[0] + 1, 2*e[1] + 1})
	}
	for _, e := range edgesOf(path, 0) {
		interleaved = append(interleaved, [2]int32{2 * e[0], 2 * e[1]})
	}
	halves["interleaved"] = graph.MustFromEdges(20, interleaved)
	for name, g := range halves {
		if lcc := sameLargestComponent(t, name, g); lcc.NumVertices() != 10 {
			t.Fatalf("%s: kept %d vertices", name, lcc.NumVertices())
		}
	}
	// The hub in a minority component: a star of 6 beside a path of 50
	// and a cycle of 30, so several sweeps are needed.
	minority := append(edgesOf(gen.Star(6), 0), edgesOf(gen.Path(50), 6)...)
	minority = append(minority, edgesOf(gen.Cycle(30), 56)...)
	if lcc := sameLargestComponent(t, "hub in a minority", graph.MustFromEdges(90, minority)); lcc.NumVertices() != 50 {
		t.Fatalf("hub in a minority: kept %d vertices", lcc.NumVertices())
	}
	// Paths numbered against the bottom-up passes: one long one, fewer
	// than the stack holds (each pass hands them to top-down) and more
	// (each pass is followed by another), with and without a part cut off.
	sameLargestComponent(t, "one path against the passes", againstPasses(3000, 1, 2000))
	sameLargestComponent(t, "paths against the passes", againstPasses(300, 200, 40))
	sameLargestComponent(t, "more paths than the stack holds", againstPasses(300, 400, 20))
	cut := againstPasses(300, 200, 40)
	cut = graph.MustFromEdges(cut.NumVertices()+500, append(edgesOf(cut, 0), edgesOf(gen.Path(500), int32(cut.NumVertices()))...))
	sameLargestComponent(t, "paths against the passes beside a path", cut)
	for n := range 3 {
		sameLargestComponent(t, "edgeless", graph.MustFromEdges(n, nil))
	}
	sameLargestComponent(t, "one edge", gen.Path(2))
	sameLargestComponent(t, "star", gen.Star(100))
	sameLargestComponent(t, "complete", gen.Complete(20))
	rng := rand.New(rand.NewSource(9))
	for range 200 {
		n := 1 + rng.Intn(300)
		var edges [][2]int32
		for range rng.Intn(n + 1) {
			edges = append(edges, [2]int32{rng.Int31n(int32(n)), rng.Int31n(int32(n))})
		}
		sameLargestComponent(t, "random", graph.MustFromEdges(n, edges))
	}
}

// TestLargestComponentStaysLinear: on paths numbered against the
// bottom-up passes, the sweep takes no more than a small multiple of the
// reference's one BFS; a sweep that gave each pass only its next vertex
// would take thousands of times longer.
func TestLargestComponentStaysLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("times two cuts of a 2^17-vertex graph")
	}
	g := againstPasses(1<<13, 4, 1<<15) // the leaves overflow the stack of n/32
	best := func(fn func(*graph.Graph) (*graph.Graph, []int32)) time.Duration {
		d := time.Duration(1 << 62)
		for range 3 {
			t0 := time.Now()
			fn(g)
			d = min(d, time.Since(t0))
		}
		return d
	}
	got, want := best(graph.LargestComponent), best(referenceLargestComponent)
	if got > 50*want+10*time.Millisecond {
		t.Fatalf("LargestComponent took %v, the reference %v", got, want)
	}
}

// FuzzLargestComponent holds LargestComponent to the reference on graphs
// of up to 64 vertices made from the bytes: a vertex count, then pairs of
// endpoints.
func FuzzLargestComponent(f *testing.F) {
	f.Add([]byte{7, 0, 1, 1, 2, 4, 5})
	f.Add([]byte{64, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 2, 0, 4, 0, 6})
	f.Add([]byte{20, 19, 18, 18, 17, 17, 16, 0, 19, 0, 1, 0, 2, 0, 3})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 65
		b := graph.NewBuilder(n)
		for i := 1; n > 0 && i+1 < len(data); i += 2 {
			b.AddEdge(int32(int(data[i])%n), int32(int(data[i+1])%n))
		}
		sameLargestComponent(t, "fuzz", b.MustBuild())
	})
}

// TestConnectedComponents holds IsConnected and the reference labelling
// to hand-made graphs.
func TestConnectedComponents(t *testing.T) {
	// Two triangles and an isolated vertex.
	g := graph.MustFromEdges(7, [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	labels, count := referenceComponents(g)
	if want := []int32{0, 0, 0, 1, 1, 1, 2}; count != 3 || !slices.Equal(labels, want) {
		t.Fatalf("labels %v (%d components), want %v", labels, count, want)
	}
	for _, c := range []struct {
		g    *graph.Graph
		want bool
	}{
		{g, false},
		{gen.Path(10), true},
		{graph.MustFromEdges(0, nil), true},
		{graph.MustFromEdges(1, nil), true},
		{graph.MustFromEdges(2, nil), false},
		{againstPasses(300, 200, 40), true},
		{gen.BarabasiAlbert(2000, 3, 5), true},
		{gen.RMAT(10, 8, 0.57, 0.19, 0.19, 1), false},
	} {
		if got := graph.IsConnected(c.g); got != c.want {
			t.Fatalf("IsConnected(%v) = %v", c.g, got)
		}
	}
}

// TestLargestComponentAllocations: beyond its result — the identity ids
// of a connected graph, or the cut's three arrays — LargestComponent
// allocates at most a byte a vertex (its bits, its stack and a rank a
// word), beside the page the allocator may round each of the result's
// arrays up to. TotalAlloc counts every goroutine's allocations, so the
// least over a few calls is what the call allocates.
func TestLargestComponentAllocations(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"connected BA-20k", gen.BarabasiAlbert(20_000, 5, 42)},
		{"raw R-MAT-14", gen.RMAT(14, 8, 0.57, 0.19, 0.19, 42)},
	} {
		used := ^uint64(0)
		var result uint64
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			lcc, ids := graph.LargestComponent(c.g)
			runtime.ReadMemStats(&after)
			used = min(used, after.TotalAlloc-before.TotalAlloc)
			result = 4 * uint64(cap(ids))
			if lcc != c.g {
				offsets, targets := lcc.CSR()
				result += 8*uint64(cap(offsets)) + 4*uint64(cap(targets))
			}
		}
		if n := uint64(c.g.NumVertices()); used > result+n+3*8192 {
			t.Fatalf("%s: allocated %d bytes, %d beyond its %d-byte result on %d vertices", c.name, used, used-result, result, n)
		}
	}
}
