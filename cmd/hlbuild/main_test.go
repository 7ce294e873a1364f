package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"highway"
	"highway/internal/container"
	"highway/internal/core"
	"highway/internal/gen"
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

// testdata is where the committed index files and checkpoints are.
var testdata = filepath.Join("..", "..", "internal", "core", "testdata")

// TestRunMigrate: with no -out the output path is the input's plus ".v2",
// the input is left as it was, and the migrated file is a first-class one:
// the bytes a fresh build of the same landmarks writes. grid_ranks.hl2 is
// a 5×6 grid's labelling of its 15 highest-degree vertices, its ranks a
// byte an entry in section 4.
func TestRunMigrate(t *testing.T) {
	dir := t.TempDir()
	g := gen.Grid(5, 6)
	gp := filepath.Join(dir, "grid.hwg")
	if err := highway.SaveGraph(g, gp); err != nil {
		t.Fatal(err)
	}
	// Copy the fixture so the default output lands in the temp dir.
	raw, err := os.ReadFile(filepath.Join(testdata, "grid_ranks.hl2"))
	if err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "old.idx")
	if err := os.WriteFile(old, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"migrate", "-graph", gp, "-in", old}); err != nil {
		t.Fatal(err)
	}
	if in, err := os.ReadFile(old); err != nil || !bytes.Equal(in, raw) {
		t.Fatalf("input: %v, want grid_ranks.hl2 intact", err)
	}
	fresh := filepath.Join(dir, "fresh.idx")
	if err := run([]string{"-graph", gp, "-k", "15", "-out", fresh}); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(old + ".v2")
	b, _ := os.ReadFile(fresh)
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatal("migrated grid_ranks.hl2 differs from a fresh build")
	}
}

// TestRunMigrateLegacyLayouts: each committed file of a layout older than
// the one written before d2d3576 — the v1 index files, the one with its
// offsets in section 3, the index file and checkpoint with a distance byte
// an entry in section 5, the index file with masks in section 13, the
// graph file and checkpoint from before the graph became sections — and
// an index file without section 11 is refused, with or without -graph, in
// one line naming the release whose migrate reads it, and nothing is
// written; one subtest a file. Building on the old graph file fails with
// the same line. A file of a later layout without section 11 is damaged,
// and refused in one line naming no migrate.
func TestRunMigrateLegacyLayouts(t *testing.T) {
	dir := t.TempDir()
	figGraph := filepath.Join(dir, "fig2.hwg")
	pathGraph := filepath.Join(dir, "path300.hwg")
	if err := highway.SaveGraph(gen.PaperFigure2(), figGraph); err != nil {
		t.Fatal(err)
	}
	if err := highway.SaveGraph(gen.Path(300), pathGraph); err != nil {
		t.Fatal(err)
	}
	// tiny.hl2 without section 11, as writers before section 11 framed its
	// labels.
	noGraphPath := withoutSection11(t, "tiny.hl2", filepath.Join(dir, "no_section_11.hl2"))
	wantRefused := func(t *testing.T, what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "hlbuild migrate") || !strings.Contains(err.Error(), container.OldRelease) || strings.Contains(err.Error(), "\n") {
			t.Fatalf("%s: %v, want one line naming hlbuild migrate %s", what, err, container.OldRelease)
		}
	}
	td := func(name string) string { return filepath.Join(testdata, name) }
	for _, c := range []struct{ in, graph string }{
		{td("tiny.hl1"), figGraph}, {td("path300.hl1"), pathGraph}, {td("tiny_off64.hl2"), figGraph},
		{td("tiny.hl2"), figGraph}, {td("tiny_mask.hl2"), figGraph}, {noGraphPath, figGraph},
		{td("tiny.snap2"), ""}, {td("tiny.hwg1"), ""}, {td("tiny.snap1"), ""},
	} {
		t.Run(filepath.Base(c.in), func(t *testing.T) {
			argSets := [][]string{{"-graph", c.graph}}
			if c.graph == "" { // a graph file or checkpoint, which needs no -graph
				argSets = [][]string{nil, {"-graph", figGraph}}
			}
			for _, args := range argSets {
				out := filepath.Join(t.TempDir(), "out")
				err := run(append([]string{"migrate", "-in", c.in, "-out", out}, args...))
				wantRefused(t, fmt.Sprintf("migrate %v", args), err)
				if left, _ := filepath.Glob(out + "*"); len(left) != 0 {
					t.Fatalf("refused migration left %v behind", left)
				}
			}
		})
	}
	err := run([]string{"-graph", td("tiny.hwg1"), "-k", "2", "-out", filepath.Join(dir, "x.idx")})
	wantRefused(t, "build on a legacy graph file", err)
	// tiny_codes.hl2 has sections first written after section 11: without
	// it, the file is damaged, and no migrate reads it.
	damaged := withoutSection11(t, "tiny_codes.hl2", filepath.Join(dir, "damaged.hl2"))
	err = run([]string{"migrate", "-graph", figGraph, "-in", damaged, "-out", filepath.Join(dir, "damaged.out")})
	if err == nil || !strings.Contains(err.Error(), "damaged") || strings.Contains(err.Error(), "migrate") || strings.Contains(err.Error(), "\n") {
		t.Fatalf("migrate of tiny_codes.hl2 without section 11: %v, want one line saying the file is damaged", err)
	}
}

// withoutSection11 writes the committed index file name without its
// section 11 to path, and returns path.
func withoutSection11(t *testing.T, name, path string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(testdata, name))
	if err != nil {
		t.Fatal(err)
	}
	_, rows, err := container.ReadTable(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	h, sec, err := container.ReadContainer(bytes.NewReader(raw), true, func(container.Header) (map[uint32]uint64, error) {
		bounds := map[uint32]uint64{}
		for _, row := range rows {
			bounds[row.ID] = row.Length
		}
		return bounds, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var kept []container.Section
	for _, row := range rows {
		if row.ID != 11 {
			kept = append(kept, sec[row.ID])
		}
	}
	var out bytes.Buffer
	if err := container.WriteContainer(&out, h, kept); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
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

// TestRunMigrateStoredDirectory: files written before the reader derived
// the rank directory store it (section 15, or 18 where leaves are elided).
// They load as they are, and migrate rewrites them without it: the index
// files figure2_dir.hl2 and grid_dir.hl2, beside their graphs, to today's
// goldens figure2.hl2 and grid.hl2, and the checkpoints figure2_dir.snap
// and leaves_dir.snap, with no -graph, to what EncodeSnapshot writes of
// their state today.
func TestRunMigrateStoredDirectory(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		g       *highway.Graph
		in, out string
	}{{gen.PaperFigure2(), "figure2_dir.hl2", "figure2.hl2"}, {gen.Grid(5, 6), "grid_dir.hl2", "grid.hl2"}} {
		gp, out := filepath.Join(dir, c.in+".hwg"), filepath.Join(dir, c.out)
		if err := highway.SaveGraph(c.g, gp); err != nil {
			t.Fatal(err)
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
	for _, name := range []string{"figure2_dir.snap", "leaves_dir.snap"} {
		in, out := filepath.Join(testdata, name), filepath.Join(dir, name)
		f, err := os.Open(in)
		if err != nil {
			t.Fatal(err)
		}
		g, ix, err := serve.DecodeSnapshot(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		want, err := serve.SnapshotBytes(g, ix)
		if err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"migrate", "-in", in, "-out", out}); err != nil {
			t.Fatal(err)
		}
		raw, _ := os.ReadFile(in)
		got, err := os.ReadFile(out)
		if err != nil || !bytes.Equal(got, want) || len(got) >= len(raw) {
			t.Fatalf("%s migrated to %d bytes (%v), not the %d EncodeSnapshot writes, fewer than its %d", name, len(got), err, len(want), len(raw))
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
	// Grid(6, 5) has grid_ranks.hl2's n and m, but other vertex numbers.
	other, out := filepath.Join(t.TempDir(), "grid65.hwg"), filepath.Join(t.TempDir(), "wrong.idx")
	if err := highway.SaveGraph(gen.Grid(6, 5), other); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"migrate", "-graph", other, "-in", filepath.Join(testdata, "grid_ranks.hl2"), "-out", out, "-verify", "0"}); err == nil {
		t.Error("index migrated against the wrong graph")
	}
	if left, _ := filepath.Glob(out + "*"); len(left) != 0 {
		t.Errorf("refused migration left %v behind", left)
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
