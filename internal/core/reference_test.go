package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"highway/internal/gen"
	"highway/internal/graph"
)

// referencePrunedBFS is the paper's Algorithm 1 for one landmark, as
// written: two queues per depth, Qprune expanded before Qlabel so that a
// pruned parent claims a vertex first. It returns per vertex the distance
// root labels it with (-1: no entry) and root's highway row. The kernel in
// build.go is tested against it and shares no code with it.
func referencePrunedBFS(g *graph.Graph, root int32, rankOf []int32, k int) (label, highway []int32) {
	visited := make([]bool, g.NumVertices())
	label = make([]int32, g.NumVertices())
	for v := range label {
		label[v] = -1
	}
	highway = make([]int32, k)
	for r := range highway {
		highway[r] = Infinity
	}
	qLabel, qPrune := []int32{root}, []int32(nil)
	visited[root], highway[rankOf[root]] = true, 0
	for d := int32(1); len(qLabel)+len(qPrune) > 0; d++ {
		var nextLabel, nextPrune []int32
		for _, u := range qPrune {
			for _, v := range g.Neighbors(u) {
				if !visited[v] {
					visited[v] = true
					nextPrune = append(nextPrune, v)
					if r := rankOf[v]; r >= 0 {
						highway[r] = d
					}
				}
			}
		}
		for _, u := range qLabel {
			for _, v := range g.Neighbors(u) {
				if visited[v] {
					continue
				}
				visited[v] = true
				if r := rankOf[v]; r >= 0 {
					highway[r] = d
					nextPrune = append(nextPrune, v)
				} else {
					label[v] = d
					nextLabel = append(nextLabel, v)
				}
			}
		}
		qLabel, qPrune = nextLabel, nextPrune
	}
	return label, highway
}

// referenceIndex builds the index rank by rank from referencePrunedBFS,
// keeping the labels referenceKept says.
func referenceIndex(g *graph.Graph, landmarks []int32) *Index {
	n, k := g.NumVertices(), len(landmarks)
	ix := &Index{g: g, landmarks: landmarks, rankOf: make([]int32, n), isLandmark: make([]bool, n)}
	for v := range ix.rankOf {
		ix.rankOf[v] = -1
	}
	for r, v := range landmarks {
		ix.rankOf[v], ix.isLandmark[v] = int32(r), true
	}
	labels := make([][]int32, k)
	for r, root := range landmarks {
		var row []int32
		labels[r], row = referencePrunedBFS(g, root, ix.rankOf, k)
		ix.highway = append(ix.highway, row...)
	}
	ranksOf := func(v int) (ranks []int32) {
		for r := range labels {
			if labels[r][v] >= 0 {
				ranks = append(ranks, int32(r))
			}
		}
		return ranks
	}
	kept := referenceKept(g, landmarks, ranksOf)
	var slots []int     // the vertices kept, in order
	var dists [][]int32 // each kept label's distances, by rank
	for v := range n {
		ix.entries += int64(len(ranksOf(v)))
		if !kept[v] {
			continue
		}
		slots = append(slots, v)
		dists = append(dists, nil)
		for r := range labels {
			if d := labels[r][v]; d >= 0 {
				dists[len(dists)-1] = append(dists[len(dists)-1], d)
			}
		}
	}
	if len(slots) < n { // and the slot each elided vertex reads, by search
		ix.leaves.words = make([]uint64, (n+31)/32)
		elided := 0
		for v := range n {
			if v%32 == 0 {
				ix.leaves.words[v/32] = uint64(elided) << 32
			}
			if !kept[v] {
				ix.leaves.words[v/32] |= 1 << (v % 32)
				s, _ := slices.BinarySearch(slots, int(g.Neighbors(int32(v))[0]))
				ix.rankOf[v] = ^int32(s)
				elided++
			}
		}
	}
	sec := plainRanks(len(slots), k, func(s int) []int32 { return ranksOf(slots[s]) })
	ix.labelMask = newRankBits(sec[sectLabelBits], sec[sectLabelDir], k)
	dist, over := bruteDist(dists)
	ix.setDist(dist)
	ix.overflow = over
	return ix
}

// referenceKept returns, from the definitions, whether a labelling of the
// landmarks lm on g whose ranks ranksOf gives keeps each vertex's label:
// all but the leaves — a vertex of degree one and no landmark whose
// neighbour is neither a landmark nor of degree one — when their rank
// bits and directory are more than 8 bytes for every 32 vertices fewer
// than all vertices', and every one otherwise.
func referenceKept(g *graph.Graph, lm []int32, ranksOf func(v int) []int32) []bool {
	n, k, isLandmark := g.NumVertices(), len(lm), landmarkMask(g, lm)
	kept, all := make([]bool, n), make([]bool, n)
	var others []int
	for v := range n {
		nb := g.Neighbors(int32(v))
		all[v], kept[v] = true, len(nb) != 1 || isLandmark[v] || isLandmark[nb[0]] || g.Degree(nb[0]) == 1
		if kept[v] {
			others = append(others, v)
		}
	}
	_, allMask := rankFormBytes(plainRanks(n, k, ranksOf))
	_, keptMask := rankFormBytes(plainRanks(len(others), k, func(s int) []int32 { return ranksOf(others[s]) }))
	if allMask-keptMask <= (n+31)/32*8 {
		return all
	}
	return kept
}

// bruteDist is the distance section a labelling whose labels have these
// distances (by rank) must carry, from the definitions: every base width
// with every excess width (section 16), a label escaping whole where the
// base does not hold its smallest distance or the excess its span, laid out
// bit by bit, the one whose section and 9-byte records take the fewest
// bytes — the wider base, then the narrower excess, on a tie. It returns
// the section and the distances of the escaped entries by position.
func bruteDist(labels [][]int32) (sect []byte, over map[int64]int32) {
	put := func(b []byte, at, w int, c int32) { // code c of w bits at code position at, LSB first
		for i := range w {
			b[(at*w+i)/8] |= byte(c>>i&1) << ((at*w + i) % 8)
		}
	}
	n, entries, best := len(labels), 0, -1
	for _, l := range labels {
		entries += len(l)
	}
	for _, wb := range []int{8, 4, 2} {
		for _, wo := range []int{0, 1, 2, 4} {
			baseLen := (n*wb + 7) / 8
			s, o, p := make([]byte, 2+baseLen+(entries*wo+7)/8), map[int64]int32{}, 0
			s[0], s[1] = byte(wb), byte(wo)
			for v, l := range labels {
				if len(l) == 0 {
					continue
				}
				lo := slices.Min(l)
				escaped := lo-1 >= 1<<wb-1 || slices.Max(l)-lo >= 1<<wo
				for _, d := range l {
					if escaped {
						o[int64(p)] = d
					} else {
						put(s[2+baseLen:], p, wo, d-lo)
					}
					p++
				}
				if escaped {
					lo = 1 << wb // the base code all ones
				}
				put(s[2:], v, wb, lo-1)
			}
			if size := len(s) + 9*len(o); best < 0 || size < best {
				best, sect, over = size, s, o
			}
		}
	}
	return sect, over
}

// spread returns k distinct landmarks: the highest-degree vertices first,
// as a build would choose them, shuffled so that rank order and vertex
// order disagree.
func spread(g *graph.Graph, k int, seed int64) []int32 {
	lm := slices.Clone(g.DegreeOrder()[:min(k, g.NumVertices())])
	rand.New(rand.NewSource(seed)).Shuffle(len(lm), func(i, j int) { lm[i], lm[j] = lm[j], lm[i] })
	return lm
}

// kernelCases are the graphs the kernel is held to the reference on. The
// two large ones are past parallelPullVertices, so Workers > 1 really
// shares their pulled levels; the rest pin the shapes a level-synchronous
// multi-source traversal could get wrong.
func kernelCases() map[string]*graph.Graph {
	towns, _ := twoTowns(300, 2, 5)
	isolated := graph.MustFromEdges(400, append(edgesOf(gen.BarabasiAlbert(300, 3, 2)), [2]int32{350, 351}, [2]int32{351, 352}))
	rmat, _ := graphLargestComponent(gen.RMAT(14, 8, 0.57, 0.19, 0.19, 3))
	return map[string]*graph.Graph{
		"two components":      towns,
		"isolated vertices":   isolated,
		"path600":             gen.Path(600), // hundreds of levels, distances past the 8-bit escape
		"star":                gen.Star(300),
		"complete (adjacent)": gen.Complete(70),
		"grid":                gen.Grid(20, 20),
		"ba10000":             gen.BarabasiAlbert(10000, 4, 9),
		"rmat14":              rmat,
	}
}

// TestKernelMatchesReference: for landmark counts on both sides of every
// group boundary, every worker count and every direction, the kernel's v2
// bytes equal those of Algorithm 1 run landmark by landmark. k is capped at
// the vertex count, which makes the smaller graphs all-landmark.
func TestKernelMatchesReference(t *testing.T) {
	for name, g := range kernelCases() {
		for _, k := range []int{1, 2, 31, 32, 33, 64, 65, 255} {
			lm := spread(g, k, int64(k))
			if name == "two components" && k >= 2 {
				lm[0], lm[1] = 0, 300 // one landmark in each town at least
				lm = slices.Compact(slices.Sorted(slices.Values(lm)))
			}
			want := v2Bytes(t, referenceIndex(g, lm))
			for _, workers := range []int{1, 2, 5} {
				for _, dir := range []direction{dirAuto, dirPush, dirPull} {
					ix, err := BuildOpts(context.Background(), g, lm, Options{Workers: workers, dir: dir})
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(v2Bytes(t, ix), want) {
						t.Fatalf("%s k=%d workers=%d direction=%d: index differs from the reference", name, len(lm), workers, dir)
					}
				}
			}
		}
	}
}

// FuzzPrunedBFSEquivalence: a random edge list and landmark set, decoded
// from the fuzz input, labelled by the kernel in every direction and by the
// reference.
func FuzzPrunedBFSEquivalence(f *testing.F) {
	f.Add(uint8(9), uint8(3), []byte{0, 1, 1, 2, 2, 3, 5, 6, 6, 7, 3, 7})
	f.Add(uint8(80), uint8(70), []byte("the quick brown fox jumps over the lazy dog"))
	f.Add(uint8(40), uint8(40), []byte{})
	// Leaf-heavy inputs: small R-MAT graphs with pendant trees (leafy). The
	// labellings of 8 and 40 landmarks keep no label for their leaves, the
	// second's ranks in rank bytes; those of 20 and 3 keep every label.
	elided := 0
	for i, c := range []struct{ n, k int }{{40, 8}, {60, 20}, {90, 40}, {95, 3}} {
		g := leafy(c.n, int64(i+1))
		var raw []byte
		for _, e := range edgesOf(g) {
			raw = append(raw, byte(e[0]), byte(e[1]))
		}
		if g.NumVertices() > 96 {
			f.Fatalf("leafy seed %d has %d vertices, more than the 96 the fuzz input names", i, g.NumVertices())
		}
		k := min(c.k, g.NumVertices())
		if ix, err := Build(g, spread(g, k, int64(len(raw)))); err == nil && ix.leaves.words != nil {
			elided++
		}
		f.Add(uint8(g.NumVertices()-1), uint8(k-1), raw)
	}
	if elided == 0 {
		f.Fatal("test premise broken: no leafy seed elides its leaves")
	}
	f.Fuzz(func(t *testing.T, nRaw, kRaw uint8, raw []byte) {
		n := int(nRaw)%96 + 1
		k := int(kRaw)%n + 1
		var edges [][2]int32
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, [2]int32{int32(int(raw[i]) % n), int32(int(raw[i+1]) % n)})
		}
		g := graph.MustFromEdges(n, edges)
		lm := spread(g, k, int64(len(raw)))
		want := v2Bytes(t, referenceIndex(g, lm))
		for _, dir := range []direction{dirAuto, dirPush, dirPull} {
			ix, err := BuildOpts(context.Background(), g, lm, Options{Workers: 2, dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v2Bytes(t, ix), want) {
				t.Fatalf("n=%d k=%d direction=%d edges=%v landmarks=%v: index differs from the reference", n, k, dir, edges, lm)
			}
		}
	})
}

// buildFixtures are the graphs of BenchmarkBuild and BenchmarkRepairSubset.
var buildFixtures = []struct {
	name string
	k    int
	g    func() *graph.Graph
}{
	{"ba100k-k20", 20, func() *graph.Graph { return gen.BarabasiAlbert(100_000, 5, 42) }},
	{"rmat16-k20", 20, func() *graph.Graph {
		g, _ := graphLargestComponent(gen.RMAT(16, 8, 0.57, 0.19, 0.19, 42))
		return g
	}},
	{"ba20k-k16", 16, func() *graph.Graph { return gen.BarabasiAlbert(20_000, 3, 42) }},
	{"ba20k-k64", 64, func() *graph.Graph { return gen.BarabasiAlbert(20_000, 3, 42) }},
}

// BenchmarkBuild times one whole build (every level of every group, and
// Assemble) and reports the arcs the traversal examined, which do not
// depend on the worker count.
func BenchmarkBuild(b *testing.B) {
	for _, fx := range buildFixtures {
		g := fx.g()
		lm := g.DegreeOrder()[:fx.k]
		for _, workers := range []int{1, 0} {
			b.Run(fmt.Sprintf("%s/workers=%d", fx.name, workers), func(b *testing.B) {
				var arcs int64
				for b.Loop() {
					ix, err := BuildOpts(context.Background(), g, lm, Options{Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					arcs = ix.BuildStats().Traversal.EdgesScanned()
				}
				b.ReportMetric(float64(arcs), "arcs/op")
			})
		}
	}
}

// BenchmarkRepairSubset times what a dynhl batch pays in core after one
// edge change: re-running 1, 4 or all 16 ranks and assembling, which for a
// proper subset includes merging the untouched ranks' entries.
func BenchmarkRepairSubset(b *testing.B) {
	g := gen.BarabasiAlbert(20_000, 3, 42)
	lm := g.DegreeOrder()[:16]
	base, err := Build(g, lm)
	if err != nil {
		b.Fatal(err)
	}
	g2 := graph.MustFromEdges(g.NumVertices(), append(edgesOf(g), [2]int32{12_345, 19_999}))
	for _, dirty := range []int{1, 4, 16} {
		ranks := make([]int, dirty)
		for i := range ranks {
			ranks[i] = i * (16 / dirty)
		}
		b.Run(fmt.Sprintf("ranks=%d", dirty), func(b *testing.B) {
			var arcs int64
			rw := RowsOf(base)
			for b.Loop() {
				stats, err := rw.Run(context.Background(), g2, ranks, Options{})
				if err != nil {
					b.Fatal(err)
				}
				rw.Assemble(g2)
				arcs = stats.Traversal.EdgesScanned()
			}
			b.ReportMetric(float64(arcs), "arcs/op")
		})
	}
}
