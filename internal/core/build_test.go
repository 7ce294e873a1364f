package core

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"testing"

	"highway/internal/gen"
	"highway/internal/graph"
)

// buildOverhead is what BuildOpts may allocate a vertex beyond the arrays
// of the index it returns: the sweep's seen, front and next words (20 B)
// and its labelled, low and high (6 B), the layout's smallest code and span
// of each label (2 B), and the events of later depths, the frontiers of
// pushed levels and the excess codes before they are copied into their
// section. An event for every first depth (12 B each, about one a vertex),
// a list of every vertex a pulled level claims or a byte for every entry
// (5 to 10 a vertex here) goes past it.
const buildOverhead = 50

// TestBuildAllocations holds a one-worker build to buildOverhead: on BA-20k
// (k = 16), whose labels span up to a few depths, on R-MAT-16 (k = 20),
// whose hubs label most vertices at one depth and which elides its leaves,
// and on a smaller R-MAT with a pendant on each leaf, of which a larger
// share is elided. TotalAlloc counts every goroutine's allocations, so the
// least over a few calls is what the build allocates.
func TestBuildAllocations(t *testing.T) {
	leafy, _ := graphLargestComponent(gen.RMAT(14, 8, 0.57, 0.19, 0.19, 9))
	leafy = pendants(leafy)
	for _, c := range []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"ba20k-k16", buildFixtures[2].g(), 16},
		{"rmat16-k20", buildFixtures[1].g(), 20},
		{"rmat14-pendants-k20", leafy, 20},
	} {
		lm := c.g.DegreeOrder()[:c.k]
		used, index := ^uint64(0), int64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ix, err := BuildOpts(context.Background(), c.g, lm, Options{Workers: 1})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if c.name != "ba20k-k16" && ix.leaves.words == nil {
				t.Fatalf("test premise broken: %s elides no leaf", c.name)
			}
			used, index = min(used, after.TotalAlloc-before.TotalAlloc), ix.ActualBytes()
		}
		n := int64(c.g.NumVertices())
		if beyond := int64(used) - index; beyond > buildOverhead*n {
			t.Errorf("%s: allocated %d bytes, %d beyond its %d-byte index: %.1f a vertex, more than %d", c.name, used, beyond, index, float64(beyond)/float64(n), buildOverhead)
		}
	}
}

// comb is three landmarks, 0, 1 and 2, and teeth of four vertices x-y,
// x-z-w joined to them: x is one hop from 0, two from 1 through y and
// three from 2 through z and w, and no shortest path between a landmark
// and a tooth crosses another landmark. x, y and w are labelled at three
// depths each, z at two.
func comb(teeth int) (*graph.Graph, []int32) {
	var edges [][2]int32
	for i := range int32(teeth) {
		x, y, z, w := 3+4*i, 4+4*i, 5+4*i, 6+4*i
		edges = append(edges, [2]int32{0, x}, [2]int32{x, y}, [2]int32{y, 1}, [2]int32{x, z}, [2]int32{z, w}, [2]int32{w, 2})
	}
	return graph.MustFromEdges(3+4*teeth, edges), []int32{0, 1, 2}
}

// checkReference fails t unless every build of lm on g — pushed or
// pulled, on one worker or two — is byte for byte the labelling
// Algorithm 1 makes landmark by landmark.
func checkReference(t *testing.T, g *graph.Graph, lm []int32) {
	t.Helper()
	want := v2Bytes(t, referenceIndex(g, lm))
	for _, workers := range []int{1, 2} {
		for _, dir := range []direction{dirPush, dirPull} {
			ix, err := BuildOpts(context.Background(), g, lm, Options{Workers: workers, dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v2Bytes(t, ix), want) {
				t.Fatalf("workers=%d direction=%d: index differs from the reference", workers, dir)
			}
		}
	}
}

// wantLabel fails t unless v's label holds the distances want, by rank.
func wantLabel(t *testing.T, g *graph.Graph, lm []int32, v int32, want ...int32) *Index {
	t.Helper()
	ix, err := Build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	if _, dists := ix.Label(v); !slices.Equal(dists, want) {
		t.Fatalf("test premise broken: L(%d) has distances %v, want %v", v, dists, want)
	}
	return ix
}

// The sweep records no event for the depth a vertex is first labelled at,
// which is its low; the layout writes those codes from it and the later
// depths' from their events. The inputs below are past parallelVertices,
// so that two workers share their pulled levels and their layout.

// TestFirstDepthThreeDepths: three vertices of each tooth of a comb of
// 2 500 are labelled at three depths, by one group of landmarks (the low
// and events), and by two: landmark 0 in the first and 1 and 2 in the second,
// which labels x at two depths, the first of them not the label's
// smallest (its low, and an event, each coded from the first group's).
func TestFirstDepthThreeDepths(t *testing.T) {
	g, lm := comb(2500)
	t.Run("one group", func(t *testing.T) {
		wantLabel(t, g, lm, 3, 1, 2, 3)
		checkReference(t, g, lm)
	})
	t.Run("two groups", func(t *testing.T) {
		// 31 isolated landmarks put 0, 1 and 2 at ranks 0, 32 and 33.
		n := int32(g.NumVertices())
		spaced := graph.MustFromEdges(int(n)+31, edgesOf(g))
		lm2 := []int32{0}
		for v := n; v < n+31; v++ {
			lm2 = append(lm2, v)
		}
		lm2 = append(lm2, 1, 2)
		ix := wantLabel(t, spaced, lm2, 3, 1, 2, 3)
		if ranks, _ := ix.Label(3); !slices.Equal(ranks, []int32{0, 32, 33}) {
			t.Fatalf("test premise broken: L(3) has ranks %v", ranks)
		}
		checkReference(t, spaced, lm2)
	})
}

// TestFirstDepthPastAByte: on the path 0-1-…-599 with both ends
// landmarks, beside a comb, the middle vertices are first labelled more
// than 255 hops away, where the sweep's low no longer gives the distance.
func TestFirstDepthPastAByte(t *testing.T) {
	c, clm := comb(2200)
	g := union(gen.Path(600), c)
	lm := []int32{0, 599}
	for _, v := range clm {
		lm = append(lm, v+600)
	}
	wantLabel(t, g, lm, 300, 300, 299)
	checkReference(t, g, lm)
}

// TestFirstDepthEscaped: beside a comb, whose labels span at most three
// hops, a vertex one hop from landmark P and 20 from landmark Q, along a
// path that crosses no landmark, has a label no excess code holds, so it
// escapes whole to the overflow records.
func TestFirstDepthEscaped(t *testing.T) {
	c, clm := comb(2200)
	tail := gen.Path(22) // P = 0, the vertex 1, Q = 21
	g := union(c, tail)
	n := int32(c.NumVertices())
	lm := append(slices.Clone(clm), n, n+21)
	ix := wantLabel(t, g, lm, n+1, 1, 20)
	if s, leaf := ix.slotOf(n + 1); ix.distOf(s, leaf).esc != 0 {
		t.Fatalf("test premise broken: L(%d) is not escaped", n+1)
	}
	checkReference(t, g, lm)
}

// TestFirstDepthMovedByInsert: an edge from landmark 1 to the z of a tooth
// of a comb moves z's first depth from 2 (landmarks 0 and 2) to 1, making
// its first depth's ranks later ones. The comb's three landmarks are
// dirty and those of a town beside it clean. The repair that ApplyOps
// makes — the dirty ranks re-run, pushed or pulled, on one worker or two,
// and the clean ones' entries merged — gives byte for byte a rebuild and
// Algorithm 1's labelling.
func TestFirstDepthMovedByInsert(t *testing.T) {
	c, lm := comb(2000)
	town := gen.BarabasiAlbert(2000, 3, 5)
	g := union(c, town)
	for _, v := range town.DegreeOrder()[:3] {
		lm = append(lm, v+int32(c.NumVertices()))
	}
	const z = 5 + 4*7
	wantLabel(t, g, lm, z, 2, 3, 2)
	g2 := withEdges(g, [2]int32{1, z})
	wantLabel(t, g2, lm, z, 2, 1, 2)
	want := v2Bytes(t, referenceIndex(g2, lm))
	base, err := Build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	next, res, err := RowsOf(base).ApplyOps(InsertOps([][2]int32{{1, z}}))
	if err != nil || res.Dirty == 0 || res.Dirty == len(lm) {
		t.Fatalf("ApplyOps = %+v, %v: want a proper subset of the ranks re-run", res, err)
	}
	rebuilt, err := Build(g2, lm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v2Bytes(t, rebuilt), want) || !bytes.Equal(v2Bytes(t, next), want) {
		t.Fatal("ApplyOps or the rebuild differs from the reference")
	}
	var dirty []int
	for r := range lm {
		if base.LandmarkDistance(int32(r), 1) != base.LandmarkDistance(int32(r), z) {
			dirty = append(dirty, r)
		}
	}
	for _, workers := range []int{1, 2} {
		for _, dir := range []direction{dirPush, dirPull} {
			rw := RowsOf(base)
			if _, err := rw.run(context.Background(), g2, dirty, Options{Workers: workers, dir: dir}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v2Bytes(t, rw.assemble(g2)), want) {
				t.Fatalf("workers=%d direction=%d: repair differs from the reference", workers, dir)
			}
		}
	}
}

// TestLayAcrossEmptyBlocks: BA-10k's vertices numbered so that every other
// block of pullBlock slots holds only isolated vertices, whose labels are
// empty. The codes of two blocks with an empty one between them then share
// words, which two workers write at once. With 40 landmarks, in two groups,
// and on a repair that merges kept entries, first depths that are not the
// label's smallest are coded in the last pass of the layout; the builds,
// pushed or pulled, on one worker or two, and the repair are byte for byte
// Algorithm 1's labelling. Run it under -race.
func TestLayAcrossEmptyBlocks(t *testing.T) {
	ba := gen.BarabasiAlbert(10000, 3, 11)
	spread := func(v int32) int32 { return v/pullBlock*2*pullBlock + v%pullBlock }
	var edges [][2]int32
	for _, e := range edgesOf(ba) {
		edges = append(edges, [2]int32{spread(e[0]), spread(e[1])})
	}
	g := graph.MustFromEdges(int(spread(int32(ba.NumVertices()-1)))+1+pullBlock, edges)
	lm := g.DegreeOrder()[:40]
	checkReference(t, g, lm)

	a, b := spread(9000), spread(9990)
	g2 := withEdges(g, [2]int32{a, b})
	want := v2Bytes(t, referenceIndex(g2, lm))
	base, err := Build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	var dirty []int
	for r := range lm {
		if base.LandmarkDistance(int32(r), a) != base.LandmarkDistance(int32(r), b) {
			dirty = append(dirty, r)
		}
	}
	if len(dirty) == 0 || len(dirty) == len(lm) {
		t.Fatalf("test premise broken: %d of %d ranks dirty", len(dirty), len(lm))
	}
	for _, dir := range []direction{dirPush, dirPull} {
		rw := RowsOf(base)
		if _, err := rw.run(context.Background(), g2, dirty, Options{Workers: 2, dir: dir}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v2Bytes(t, rw.assemble(g2)), want) {
			t.Fatalf("direction=%d: repair differs from the reference", dir)
		}
	}
}
