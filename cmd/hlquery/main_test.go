package main

import (
	"bytes"
	"context"
	"math/bits"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"highway"
	"highway/internal/container"
	"highway/internal/gen"
)

func fixture(t *testing.T) (string, string, *highway.Graph) {
	t.Helper()
	g := highway.BarabasiAlbert(300, 3, 7)
	dir := t.TempDir()
	gp := filepath.Join(dir, "g.hwg")
	if err := highway.SaveGraph(g, gp); err != nil {
		t.Fatal(err)
	}
	lm, err := highway.SelectLandmarks(g, 6, highway.ByDegree, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := highway.Build(context.Background(), g, lm, highway.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ip := gp + ".idx"
	if err := ix.Save(ip); err != nil {
		t.Fatal(err)
	}
	return gp, ip, g
}

func TestOneShot(t *testing.T) {
	gp, ip, _ := fixture(t)
	if err := run([]string{"-graph", gp, "-index", ip, "-s", "1", "-t", "250"}); err != nil {
		t.Fatal(err)
	}
	// Default index path (graph + .idx).
	if err := run([]string{"-graph", gp, "-s", "0", "-t", "10"}); err != nil {
		t.Fatal(err)
	}
}

// TestStatsAndV1Index: -stats works on a saved index, and on each
// committed file of a retired layout — both v1 files and the one with its
// offsets in section 3 — it fails with one line naming hlbuild migrate, as
// every other mode does.
func TestStatsAndV1Index(t *testing.T) {
	gp, ip, _ := fixture(t)
	if err := run([]string{"-graph", gp, "-index", ip, "-stats"}); err != nil {
		t.Fatal(err)
	}
	testdata := filepath.Join("..", "..", "internal", "core", "testdata")
	for name, g := range map[string]*highway.Graph{"tiny.hl1": gen.PaperFigure2(), "path300.hl1": gen.Path(300), "tiny_off64.hl2": gen.PaperFigure2()} {
		graphPath := filepath.Join(t.TempDir(), "g.hwg")
		if err := highway.SaveGraph(g, graphPath); err != nil {
			t.Fatal(err)
		}
		for _, mode := range [][]string{{"-stats"}, {"-s", "1", "-t", "2"}} {
			err := run(append([]string{"-graph", graphPath, "-index", filepath.Join(testdata, name)}, mode...))
			if err == nil || !strings.Contains(err.Error(), "hlbuild migrate") || strings.Contains(err.Error(), "\n") {
				t.Fatalf("%s %v: %v, want one line naming hlbuild migrate", name, mode, err)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing -graph accepted")
	}
	gp, ip, _ := fixture(t)
	if err := run([]string{"-graph", gp, "-index", ip, "-s", "1", "-t", "99999"}); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if err := run([]string{"-graph", "/does/not/exist", "-s", "1", "-t", "2"}); err == nil {
		t.Error("missing graph accepted")
	}
}

func TestCheckVertex(t *testing.T) {
	_, _, g := fixture(t)
	if err := checkVertex(g, 0); err != nil {
		t.Error(err)
	}
	if err := checkVertex(g, -1); err == nil {
		t.Error("negative vertex accepted")
	}
	if err := checkVertex(g, g.NumVertices()); err == nil {
		t.Error("n accepted")
	}
	// An id beyond int32 must be rejected, not wrapped to a small id.
	// Only expressible where int is 64-bit; on 32-bit platforms flag
	// parsing cannot produce such a value in the first place.
	if bits.UintSize == 64 {
		big := 1
		big <<= 32
		if err := checkVertex(g, big); err == nil {
			t.Error("id beyond int32 accepted")
		}
	}
}

// TestAnyMethodIndex: hlquery loads the paper's labelling only. An index
// file a baseline method wrote before those formats were retired fails
// every mode with one line naming the method.
func TestAnyMethodIndex(t *testing.T) {
	gp, _, g := fixture(t)
	for _, name := range []string{"pll", "isl", "fd", "dynhl"} {
		var file bytes.Buffer
		h := container.Header{N: uint64(g.NumVertices()), K: 6}
		if err := container.WriteContainer(&file, h, []container.Section{{ID: container.SectTag, Payload: []byte(name)}}); err != nil {
			t.Fatal(err)
		}
		ip := filepath.Join(t.TempDir(), name+".idx")
		if err := os.WriteFile(ip, file.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mode := range [][]string{{"-s", "1", "-t", "250"}, {"-stats"}} {
			err := run(append([]string{"-graph", gp, "-index", ip}, mode...))
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(name)) ||
				!strings.Contains(err.Error(), "no longer loadable") || strings.Contains(err.Error(), "\n") {
				t.Fatalf("%s %v: err = %v, want one line naming %q as no longer loadable", name, mode, err, name)
			}
		}
	}
}
