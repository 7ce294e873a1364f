package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"highway"
	"highway/internal/container"
	"highway/internal/core"
	"highway/internal/gen"
	"highway/internal/legacy"
	"highway/internal/serve"
)

func writeGraph(t *testing.T) string {
	t.Helper()
	g := highway.BarabasiAlbert(400, 3, 5)
	path := filepath.Join(t.TempDir(), "g.hwg")
	if err := highway.SaveGraph(g, path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunBuild(t *testing.T) {
	gp := writeGraph(t)
	if err := run([]string{"-graph", gp, "-k", "8", "-verify", "200"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(gp + ".idx"); err != nil {
		t.Fatal("default index path not written:", err)
	}
	// Load it back through the facade.
	g, err := highway.LoadGraph(gp)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := highway.LoadIndex(gp+".idx", g)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumLandmarks() != 8 {
		t.Fatalf("k = %d", ix.NumLandmarks())
	}
}

// TestRunBuildClampsK: a -k above the vertex count makes every vertex a
// landmark instead of failing the selection.
func TestRunBuildClampsK(t *testing.T) {
	g := gen.Path(5)
	gp := filepath.Join(t.TempDir(), "path5.hwg")
	if err := highway.SaveGraph(g, gp); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-graph", gp, "-k", "20", "-verify", "50"}); err != nil {
		t.Fatal(err)
	}
	ix, err := highway.LoadIndex(gp+".idx", g)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.NumLandmarks(); got != g.NumVertices() {
		t.Fatalf("-k 20 on %d vertices built %d landmarks, want %d", g.NumVertices(), got, g.NumVertices())
	}
}

func TestRunBuildTextGraph(t *testing.T) {
	g := highway.BarabasiAlbert(100, 2, 2)
	dir := t.TempDir()
	gp := filepath.Join(dir, "edges.txt")
	f, err := os.Create(gp)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.WriteEdgeList(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out := filepath.Join(dir, "custom.idx")
	if err := run([]string{"-graph", gp, "-k", "4", "-out", out, "-workers", "1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatal(err)
	}
}

// TestBuildStrategyFlagGone: the landmarks are the k highest-degree
// vertices, so the flags that chose another strategy and seeded it are
// gone.
func TestBuildStrategyFlagGone(t *testing.T) {
	gp := writeGraph(t)
	for _, args := range [][]string{{"-strategy", "random"}, {"-seed", "9"}} {
		err := run(append([]string{"-graph", gp, "-k", "5"}, args...))
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
			t.Fatalf("%s: %v, want flag provided but not defined", args[0], err)
		}
	}
}

// v1Fixture is the committed HWLIDX01 file (nothing writes v1 any more)
// and the graph it was built on, saved where the CLI can load it.
func v1Fixture(t *testing.T) (graphPath, indexPath string, g *highway.Graph) {
	t.Helper()
	g = gen.Path(300)
	graphPath = filepath.Join(t.TempDir(), "path300.hwg")
	if err := highway.SaveGraph(g, graphPath); err != nil {
		t.Fatal(err)
	}
	return graphPath, filepath.Join("..", "..", "internal", "core", "testdata", "path300.hl1"), g
}

func TestRunMigrate(t *testing.T) {
	gp, v1, g := v1Fixture(t)
	// With no -out the output path is the input's plus ".v2"; copy the
	// fixture so that lands in the temp dir.
	raw, err := os.ReadFile(v1)
	if err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(t.TempDir(), "old.idx")
	if err := os.WriteFile(old, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"migrate", "-graph", gp, "-in", old}); err != nil {
		t.Fatal(err)
	}
	ix2, err := highway.LoadIndex(old+".v2", g)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.NumLandmarks() != 1 || ix2.Distance(5, 295) != 290 {
		t.Fatal("migration changed the index")
	}
	if in, err := os.ReadFile(old); err != nil || !bytes.Equal(in, raw) {
		t.Fatalf("input: %v, want the v1 file intact", err)
	}
	if _, err := highway.LoadIndex(old, g); err == nil || !strings.Contains(err.Error(), "hlbuild migrate") {
		t.Fatalf("v1 file loaded: %v, want the line naming hlbuild migrate", err)
	}
	// A fresh build of the same landmark writes the same bytes: the
	// migrated file is a first-class v2 file.
	fresh := filepath.Join(t.TempDir(), "fresh.idx")
	if err := run([]string{"-graph", gp, "-k", "1", "-out", fresh}); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(old + ".v2")
	b, _ := os.ReadFile(fresh)
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatal("migrated v1 file differs from a fresh v2 build")
	}
	// The other v1 fixture migrates to the golden file of the same index.
	figGraph := filepath.Join(t.TempDir(), "fig2.hwg")
	if err := highway.SaveGraph(gen.PaperFigure2(), figGraph); err != nil {
		t.Fatal(err)
	}
	testdata := filepath.Join("..", "..", "internal", "core", "testdata")
	out := filepath.Join(t.TempDir(), "tiny.idx")
	if err := run([]string{"migrate", "-graph", figGraph, "-in", filepath.Join(testdata, "tiny.hl1"), "-out", out}); err != nil {
		t.Fatal(err)
	}
	a, _ = os.ReadFile(out)
	b, _ = os.ReadFile(filepath.Join(testdata, "figure2.hl2"))
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatal("tiny.hl1 migrated differs from figure2.hl2")
	}
}

// TestRunMigrateLegacyV2: a v2 file with its label offsets in section 3,
// as every build before sections 7 and 8 wrote them, migrates to the bytes
// of a fresh build. The committed fixture is such a build's own file; the
// other is a fresh hlbuild's file framed the old way.
func TestRunMigrateLegacyV2(t *testing.T) {
	testdata := filepath.Join("..", "..", "internal", "core", "testdata")
	dir := t.TempDir()
	figGraph := filepath.Join(dir, "fig2.hwg")
	if err := highway.SaveGraph(gen.PaperFigure2(), figGraph); err != nil {
		t.Fatal(err)
	}
	gp := writeGraph(t)
	fresh := filepath.Join(dir, "fresh.idx")
	if err := run([]string{"-graph", gp, "-k", "8", "-out", fresh}); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "old.idx")
	if err := os.WriteFile(old, withSection3(t, gp, fresh), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ graph, in, want string }{
		{figGraph, filepath.Join(testdata, "tiny_off64.hl2"), filepath.Join(testdata, "figure2.hl2")},
		{figGraph, filepath.Join(testdata, "tiny.hl2"), filepath.Join(testdata, "figure2.hl2")},
		{gp, old, fresh},
	} {
		out := filepath.Join(dir, "migrated.idx")
		if err := run([]string{"migrate", "-graph", c.graph, "-in", c.in, "-out", out}); err != nil {
			t.Fatal(err)
		}
		in, _ := os.ReadFile(c.in)
		got, _ := os.ReadFile(out)
		want, _ := os.ReadFile(c.want)
		if len(got) == 0 || !bytes.Equal(got, want) {
			t.Fatalf("%s migrated differs from %s", c.in, c.want)
		}
		if len(got) >= len(in) {
			t.Fatalf("%s: %d bytes migrated to %d, want fewer", c.in, len(in), len(got))
		}
	}
}

// TestRunMigratePreSection11: an index file as every writer from sections
// 7 and 8 until section 11 framed it — today's sections without the
// graph's fingerprint, held to its graph by n alone — no longer loads, and
// migrates to exactly the file a build writes today, but only beside its
// own graph: beside another of the same n and m it fails and writes
// nothing.
func TestRunMigratePreSection11(t *testing.T) {
	dir := t.TempDir()
	gp := writeGraph(t)
	g, err := highway.LoadGraph(gp)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Build(g, g.DegreeOrder()[:8])
	if err != nil {
		t.Fatal(err)
	}
	var old, want bytes.Buffer
	h, sections := legacy.ByteSections(ix)
	if err := container.WriteContainer(&old, h, sections); err != nil {
		t.Fatal(err)
	}
	if err := ix.Write(&want); err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "old.idx")
	if err := os.WriteFile(in, old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := highway.LoadIndex(in, g); err == nil || !strings.Contains(err.Error(), "hlbuild migrate") || strings.Contains(err.Error(), "\n") {
		t.Fatalf("pre-section-11 file loaded: %v, want one line naming hlbuild migrate", err)
	}
	out := filepath.Join(dir, "new.idx")
	if err := run([]string{"migrate", "-graph", gp, "-in", in, "-out", out}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("migrated to %d bytes (%v), not the %d Write gives", len(got), err, want.Len())
	}

	other := highway.BarabasiAlbert(400, 3, 6)
	if other.NumVertices() != g.NumVertices() || other.NumEdges() != g.NumEdges() {
		t.Fatalf("premise: %v and %v", other, g)
	}
	otherPath := filepath.Join(dir, "other.hwg")
	if err := highway.SaveGraph(other, otherPath); err != nil {
		t.Fatal(err)
	}
	wrong := filepath.Join(dir, "wrong.idx")
	if err := run([]string{"migrate", "-graph", otherPath, "-in", in, "-out", wrong, "-verify", "0"}); err == nil {
		t.Fatal("migrated beside another graph of the same n and m")
	}
	if left, _ := filepath.Glob(wrong + "*"); len(left) != 0 {
		t.Fatalf("refused migration left %v behind", left)
	}
}

// withSection3 writes the index file at path, built on the graph file at
// gp, as the last writer of section 3 did: one distance byte an entry in
// section 5, and the n+1 label offsets as uint64 in section 3, where
// sections 7 (one base per 256 vertices) and 8 (uint16 past the base) are.
func withSection3(t *testing.T, gp, path string) []byte {
	t.Helper()
	g, err := highway.LoadGraph(gp)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Load(path, g)
	if err != nil {
		t.Fatal(err)
	}
	h, sections := legacy.ByteSections(ix)
	off := make([]byte, 8)
	var at uint64
	for v := range int32(g.NumVertices()) {
		at += uint64(ix.LabelSize(v))
		off = binary.LittleEndian.AppendUint64(off, at)
	}
	sections = slices.DeleteFunc(sections, func(s container.Section) bool { return s.ID == 7 || s.ID == 8 })
	var out bytes.Buffer
	if err := container.WriteContainer(&out, h, slices.Insert(sections, 2, container.Section{ID: 3, Payload: off})); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestRunMigrateLegacyLayouts: the committed graph file and checkpoints of
// the layouts from before the graph became container sections, and the
// checkpoint whose labels kept one distance byte an entry, migrate,
// told apart by their first bytes and with no -graph, to exactly what
// SaveBinary and EncodeSnapshot write of the same state today. Building on
// the old graph file fails with the line that names migrate.
func TestRunMigrateLegacyLayouts(t *testing.T) {
	testdata := filepath.Join("..", "..", "internal", "core", "testdata")
	dir := t.TempDir()
	g := gen.PaperFigure2()
	ix, err := core.Build(g, gen.PaperLandmarks())
	if err != nil {
		t.Fatal(err)
	}
	var graphFile, snapshot bytes.Buffer
	if err := g.WriteBinary(&graphFile); err != nil {
		t.Fatal(err)
	}
	if err := serve.EncodeSnapshot(&snapshot, g, ix); err != nil {
		t.Fatal(err)
	}
	for in, want := range map[string][]byte{"tiny.hwg1": graphFile.Bytes(), "tiny.snap1": snapshot.Bytes(), "tiny.snap2": snapshot.Bytes()} {
		out := filepath.Join(dir, in+".migrated")
		if err := run([]string{"migrate", "-in", filepath.Join(testdata, in), "-out", out}); err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s migrated to %d bytes (%v), not the %d a fresh write gives", in, len(got), err, len(want))
		}
	}
	err = run([]string{"-graph", filepath.Join(testdata, "tiny.hwg1"), "-k", "2", "-out", filepath.Join(dir, "x.idx")})
	if err == nil || !strings.Contains(err.Error(), "hlbuild migrate") {
		t.Fatalf("build on a legacy graph file: %v, want the line naming hlbuild migrate", err)
	}
}

// TestRunMigrateMaskSection13: the index file whose ranks are masks in
// section 13 migrates, beside its graph, to the bytes a fresh build writes
// (figure2_top3.hl2), and the serving reader refuses it with the line
// naming migrate.
func TestRunMigrateMaskSection13(t *testing.T) {
	testdata := filepath.Join("..", "..", "internal", "core", "testdata")
	gp, out := filepath.Join(t.TempDir(), "fig2.hwg"), filepath.Join(t.TempDir(), "tiny.idx")
	if err := highway.SaveGraph(gen.PaperFigure2(), gp); err != nil {
		t.Fatal(err)
	}
	if _, err := highway.LoadIndex(filepath.Join(testdata, "tiny_mask.hl2"), gen.PaperFigure2()); err == nil || !strings.Contains(err.Error(), "hlbuild migrate") {
		t.Fatalf("section-13 file loaded: %v, want the line naming hlbuild migrate", err)
	}
	if err := run([]string{"migrate", "-graph", gp, "-in", filepath.Join(testdata, "tiny_mask.hl2"), "-out", out}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	want, werr := os.ReadFile(filepath.Join(testdata, "figure2_top3.hl2"))
	if err != nil || werr != nil || !bytes.Equal(got, want) {
		t.Fatalf("migrated to %d bytes (%v, %v), not figure2_top3.hl2's %d", len(got), err, werr, len(want))
	}
}

// TestRunMigrateSection12: the index files whose distances are a code an
// entry in section 12 (tiny_codes.hl2) beside ranks a byte an entry in
// section 4 (grid_ranks.hl2) migrate, beside their graph, to the bytes a
// fresh build writes (figure2.hl2, grid.hl2), after the serving reader
// refuses them with the line naming migrate; and a checkpoint of such
// labels beside its graph migrates with no -graph to what EncodeSnapshot
// writes today.
func TestRunMigrateSection12(t *testing.T) {
	testdata := filepath.Join("..", "..", "internal", "core", "testdata")
	dir := t.TempDir()
	for _, c := range []struct {
		g       *highway.Graph
		in, out string
	}{{gen.PaperFigure2(), "tiny_codes.hl2", "figure2.hl2"}, {gen.Grid(5, 6), "grid_ranks.hl2", "grid.hl2"}} {
		gp, out := filepath.Join(dir, c.in+".hwg"), filepath.Join(dir, c.out)
		if err := highway.SaveGraph(c.g, gp); err != nil {
			t.Fatal(err)
		}
		if _, err := highway.LoadIndex(filepath.Join(testdata, c.in), c.g); err == nil || !strings.Contains(err.Error(), "hlbuild migrate") || strings.Contains(err.Error(), "\n") {
			t.Fatalf("%s loaded: %v, want one line naming hlbuild migrate", c.in, err)
		}
		if err := run([]string{"migrate", "-graph", gp, "-in", filepath.Join(testdata, c.in), "-out", out}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		want, werr := os.ReadFile(filepath.Join(testdata, c.out))
		if err != nil || werr != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s migrated to %d bytes (%v, %v), not %s's %d", c.in, len(got), err, werr, c.out, len(want))
		}
	}
	// tiny_codes.hl2's label sections beside the graph's: a checkpoint of
	// the last writer of section 12.
	g := gen.PaperFigure2()
	raw, err := os.ReadFile(filepath.Join(testdata, "tiny_codes.hl2"))
	if err != nil {
		t.Fatal(err)
	}
	h, sec, err := container.ReadContainer(bytes.NewReader(raw), true, func(container.Header) (map[uint32]uint64, error) {
		return map[uint32]uint64{1: 1 << 10, 2: 1 << 10, 6: 1 << 10, 12: 1 << 10, 14: 1 << 10, 15: 1 << 10}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	labels := []container.Section{sec[1], sec[2], sec[14], sec[15], sec[12], sec[6]}
	var old, want bytes.Buffer
	if err := container.WriteContainer(&old, h, append(g.Sections(), labels...)); err != nil {
		t.Fatal(err)
	}
	ix, err := core.Build(g, gen.PaperLandmarks())
	if err != nil {
		t.Fatal(err)
	}
	if err := serve.EncodeSnapshot(&want, g, ix); err != nil {
		t.Fatal(err)
	}
	in, out := filepath.Join(dir, "old.snap"), filepath.Join(dir, "new.snap")
	if err := os.WriteFile(in, old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"migrate", "-in", in, "-out", out}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("the section-12 checkpoint migrated to %d bytes (%v), not the %d EncodeSnapshot writes", len(got), err, want.Len())
	}
}

// TestRunMigrateCurrentSnapshot: a checkpoint already in today's layout,
// such as one written before an operator runs migrate over every
// checkpoint, is rewritten as it is, with or without -graph, and exits 0.
func TestRunMigrateCurrentSnapshot(t *testing.T) {
	dir := t.TempDir()
	g := gen.BarabasiAlbert(500, 3, 7)
	ix, err := core.Build(g, g.DegreeOrder()[:8])
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := serve.EncodeSnapshot(&snap, g, ix); err != nil {
		t.Fatal(err)
	}
	in, gp := filepath.Join(dir, "s.wal.snap"), filepath.Join(dir, "g.hwg")
	if err := os.WriteFile(in, snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := highway.SaveGraph(g, gp); err != nil {
		t.Fatal(err)
	}
	for i, args := range [][]string{{"-in", in}, {"-graph", gp, "-in", in}} {
		out := filepath.Join(dir, fmt.Sprint("out", i))
		if err := run(append([]string{"migrate", "-out", out}, args...)); err != nil {
			t.Fatalf("migrate %v: %v", args, err)
		}
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, snap.Bytes()) {
			t.Fatalf("migrate %v rewrote %d bytes (%v), not the %d of the checkpoint", args, len(got), err, snap.Len())
		}
	}
}

// TestRunBuildCorruptBinaryGraph: a graph file is one by its first bytes,
// whatever its name, so a damaged one reports its damage, not a text
// parser's complaint about line 1.
func TestRunBuildCorruptBinaryGraph(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.graph")
	if err := highway.SaveGraph(highway.BarabasiAlbert(400, 3, 5), path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-graph", path, "-k", "4"})
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") || strings.Contains(err.Error(), "line 1") {
		t.Fatalf("corrupt graph file: %v, want its checksum error", err)
	}
}

func TestRunMigrateErrors(t *testing.T) {
	gp := writeGraph(t)
	if err := run([]string{"migrate"}); err == nil {
		t.Error("migrate without -graph/-in accepted")
	}
	if err := run([]string{"migrate", "-graph", gp, "-in", "/does/not/exist.idx"}); err == nil {
		t.Error("missing input index accepted")
	}
	if err := run([]string{"migrate", "-graph", gp, "-in", gp}); err == nil {
		t.Error("a graph file accepted as an index")
	}
	_, v1, _ := v1Fixture(t)
	if err := run([]string{"migrate", "-graph", gp, "-in", v1}); err == nil {
		t.Error("index migrated against the wrong graph")
	}
}

func TestRunBuildErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing -graph accepted")
	}
	if err := run([]string{"-graph", "/does/not/exist.hwg"}); err == nil {
		t.Error("missing file accepted")
	}
	gp := writeGraph(t)
	if err := run([]string{"-graph", gp, "-k", "0"}); err == nil {
		t.Error("k=0 accepted")
	}
	// One format is written: the flag that chose it is gone.
	if err := run([]string{"-graph", gp, "-format", "v1"}); err == nil {
		t.Error("-format accepted")
	}
	if err := run([]string{"migrate", "-graph", gp, "-in", gp + ".idx", "-format", "v1"}); err == nil {
		t.Error("migrate -format accepted")
	}
}

// TestRunDirectionFlagRemoved: the build pushes or pulls each level by the
// measured frontier and no flag forces it, not even one that used to be
// valid; -progress, which the old per-direction test also drove, changes
// no byte of the index.
func TestRunDirectionFlagRemoved(t *testing.T) {
	gp := writeGraph(t)
	err := run([]string{"-graph", gp, "-k", "8", "-direction", "topdown"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("-direction topdown: %v, want \"flag provided but not defined\"", err)
	}
	var want []byte
	for _, extra := range [][]string{nil, {"-progress"}} {
		out := filepath.Join(t.TempDir(), "out.idx")
		if err := run(append([]string{"-graph", gp, "-k", "8", "-out", out}, extra...)); err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = raw
		} else if !bytes.Equal(want, raw) {
			t.Fatalf("%v wrote different index bytes", extra)
		}
	}
}

// TestRunBuildMethods: hlbuild builds the paper's labelling and nothing
// else. The baselines are built in memory by hlbench; the flags that chose
// one of them, or its bit-parallel trees, are gone.
func TestRunBuildMethods(t *testing.T) {
	gp := writeGraph(t)
	for _, extra := range [][]string{{"-method", "pll"}, {"-method", "hl"}, {"-bitparallel", "4"}} {
		err := run(append([]string{"-graph", gp, "-k", "6"}, extra...))
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("%v: %v, want \"flag provided but not defined\"", extra, err)
		}
	}
}
