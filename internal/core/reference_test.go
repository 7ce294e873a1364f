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

// referenceIndex builds the index rank by rank from referencePrunedBFS.
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
	sizes := make([]uint8, n)
	var ranks []uint8
	var dists []int32
	size := (k + 7) / 8
	mask := make([]byte, n*size)
	for v := range sizes {
		for r := range labels {
			if d := labels[r][v]; d >= 0 {
				ranks = append(ranks, uint8(r))
				mask[v*size+r/8] |= 1 << (r % 8)
				dists = append(dists, d)
				sizes[v]++
			}
		}
	}
	ix.labelOff, _ = newOffsets(sizes)
	if len(mask) < len(ranks) { // the smaller form, rank bytes on a tie
		ix.labelMask = mask
	} else {
		ix.labelRank = ranks
	}
	w := bruteWidth(dists)
	codes := make([]byte, (len(dists)*int(w)+7)/8)
	v := int32(0)
	for p, d := range dists {
		for ix.labelOff.at(v+1) <= int64(p) {
			v++
		}
		code := min(d-1, 1<<w-1)
		if code == 1<<w-1 {
			if ix.overflow == nil {
				ix.overflow = map[int64]int32{}
			}
			ix.overflow[int64(p)] = d
		}
		for b := range int(w) { // bit by bit, LSB first
			bit := p*int(w) + b
			codes[bit/8] |= byte(code>>b&1) << (bit % 8)
		}
	}
	ix.setDist(append([]byte{w}, codes...))
	return ix
}

// bruteWidth is the code width section 12 must carry for a labelling with
// these distances, from its definition: of 2, 4 and 8 bits, the width
// whose codes (⌈entries·w/8⌉ bytes) and 9-byte records for the distances
// d ≥ 2^w take the fewest bytes, the wider on a tie.
func bruteWidth(dists []int32) uint8 {
	size := func(w int) int {
		bytes := (len(dists)*w + 7) / 8
		for _, d := range dists {
			if d >= 1<<w {
				bytes += 9
			}
		}
		return bytes
	}
	best := 8
	for _, w := range []int{4, 2} {
		if size(w) < size(best) {
			best = w
		}
	}
	return uint8(best)
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
