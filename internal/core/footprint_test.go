package core

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"highway/internal/gen"
	"highway/internal/graph"
)

// savedBA100k builds the BA n=100k, k=20 index and saves it under dir.
func savedBA100k(tb testing.TB, dir string) (g *graph.Graph, ix *Index, path string, size int64) {
	tb.Helper()
	g = gen.BarabasiAlbert(100_000, 5, 42)
	ix, err := Build(g, g.DegreeOrder()[:20])
	if err != nil {
		tb.Fatal(err)
	}
	path = filepath.Join(dir, "ba100k.idx")
	if err := ix.Save(path); err != nil {
		tb.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		tb.Fatal(err)
	}
	return g, ix, path, st.Size()
}

// TestActualBytesIsTheHeap holds ActualBytes, which hlserve batch's
// "memory=" report and the serving tests' retention limits stand on, to
// what the runtime says a built index keeps alive, for an index of each
// rank form: BA-20k's ranks take the mask, a 100×100 grid's keep rank
// bytes, and R-MAT-16's take the mask and keep no label for its leaves,
// beside the elided set and a rankOf of its own. The tenth of slack is the
// allocator's: every array is rounded up to whole pages.
func TestActualBytesIsTheHeap(t *testing.T) {
	ba, grid := gen.BarabasiAlbert(20_000, 3, 42), gen.Grid(100, 100)
	rmat, _ := graph.LargestComponent(gen.RMAT(16, 8, 0.57, 0.19, 0.19, 3))
	for _, c := range []struct {
		g            *graph.Graph
		lm           []int32
		mask, elided bool
	}{{ba, ba.DegreeOrder()[:16], true, false}, {grid, grid.DegreeOrder()[:20], false, false}, {rmat, rmat.DegreeOrder()[:20], true, true}} {
		checkActualBytes(t, c.g, c.lm, c.mask, c.elided)
	}
}

// checkActualBytes is TestActualBytesIsTheHeap for the index of lm on g,
// whose ranks take the mask if mask is set and which keeps no label for
// its leaves if elided is.
func checkActualBytes(t *testing.T, g *graph.Graph, lm []int32, mask, elided bool) {
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the first may leave the sweep of what it freed unfinished
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	ix, err := Build(g, lm)
	if err != nil {
		t.Fatal(err)
	}
	held := heap() - before
	if (ix.labelMask.bits != nil) != mask || (ix.leaves.words != nil) != elided {
		t.Fatalf("test premise broken: mask form %v, leaves elided %v; want %v, %v", ix.labelMask.bits != nil, ix.leaves.words != nil, mask, elided)
	}
	if want := ix.ActualBytes(); held < want*9/10 || held > want*11/10 {
		t.Fatalf("a built index holds %d bytes of heap, ActualBytes says %d", held, want)
	}
	runtime.KeepAlive(ix)
	runtime.KeepAlive(g)
}

// TestLoadAdoptsSections: a load allocates what it keeps. The offset and
// label sections — BA-100k's ranks take the mask, section 13 — are read
// into the buffers the index then serves from, so
// loading allocates the file once, rankOf and isLandmark (5 B a vertex, 6
// with slack for the small sections' decoded copies) and the 64 KiB reader,
// and what the loaded index writes is the file.
func TestLoadAdoptsSections(t *testing.T) {
	g, _, path, size := savedBA100k(t, t.TempDir())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ix, err := Load(path, g)
	runtime.ReadMemStats(&after)
	if err != nil || ix.labelMask.bits == nil {
		t.Fatalf("%v, or test premise broken: the ranks keep rank bytes", err)
	}
	if got, limit := int64(after.TotalAlloc-before.TotalAlloc), size+6*int64(g.NumVertices())+64<<10; got > limit {
		t.Fatalf("loading a %d-byte index allocated %d bytes, more than the file, 6 B a vertex and the reader (%d)", size, got, limit)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v2Bytes(t, ix), file) {
		t.Fatal("the loaded index does not write the file it was loaded from")
	}
}

// BenchmarkLoad and BenchmarkSaveIndex put the bytes allocated per load and
// per save of the BA n=100k, k=20 index file in every benchmark log.
func BenchmarkLoad(b *testing.B) {
	g, _, path, size := savedBA100k(b, b.TempDir())
	b.ReportAllocs()
	b.SetBytes(size)
	for b.Loop() {
		if _, err := Load(path, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSaveIndex(b *testing.B) {
	_, ix, path, size := savedBA100k(b, b.TempDir())
	b.ReportAllocs()
	b.SetBytes(size)
	for b.Loop() {
		if err := ix.Save(path); err != nil {
			b.Fatal(err)
		}
	}
}
