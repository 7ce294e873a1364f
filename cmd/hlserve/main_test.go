package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"highway"
	"highway/internal/container"
	"highway/internal/gen"
)

// writeIndexedGraph saves a small graph and its index side by side and
// returns the graph path.
func writeIndexedGraph(t *testing.T) string {
	t.Helper()
	g := highway.BarabasiAlbert(300, 3, 5)
	dir := t.TempDir()
	gp := filepath.Join(dir, "g.hwg")
	if err := highway.SaveGraph(g, gp); err != nil {
		t.Fatal(err)
	}
	lms, err := highway.SelectLandmarks(g, 8, highway.ByDegree, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := highway.Build(context.Background(), g, lms, highway.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(gp + ".idx"); err != nil {
		t.Fatal(err)
	}
	return gp
}

func TestHelpListsCommands(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"help"}, nil, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"serve", "route", "batch", "genpairs"} {
		if !strings.Contains(out.String(), cmd) {
			t.Fatalf("help output lacks %q:\n%s", cmd, out.String())
		}
	}
}

func TestUnknownCommand(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"frobnicate"}, nil, &out, io.Discard); err == nil {
		t.Fatal("want error for unknown command")
	}
	if err := run(nil, nil, &out, io.Discard); err == nil {
		t.Fatal("want error for missing command")
	}
}

func TestGenpairs(t *testing.T) {
	gp := writeIndexedGraph(t)

	var pairs bytes.Buffer
	if err := run([]string{"genpairs", "-graph", gp, "-n", "100", "-seed", "1"}, nil, &pairs, io.Discard); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(pairs.String()), "\n")
	if len(lines) != 100 {
		t.Fatalf("genpairs emitted %d lines, want 100", len(lines))
	}
	if len(strings.Fields(lines[0])) != 2 {
		t.Fatalf("bad pair line %q", lines[0])
	}
}

func TestBatchFromStdin(t *testing.T) {
	gp := writeIndexedGraph(t)

	var out, errOut bytes.Buffer
	in := strings.NewReader("0 1\n5 9\n")
	if err := run([]string{"batch", "-graph", gp, "-workers", "2"}, in, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "2 pairs") {
		t.Fatalf("stats line %q lacks pair count", errOut.String())
	}
	got := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(got) != 2 {
		t.Fatalf("batch wrote %d lines, want 2: %q", len(got), out.String())
	}

	// Distances must match the library answer on the same pairs.
	g, err := highway.LoadGraph(gp)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := highway.LoadIndex(gp+".idx", g)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []highway.Pair{{S: 0, T: 1}, {S: 5, T: 9}} {
		want := strconv.Itoa(int(ix.Distance(p.S, p.T)))
		if got[i] != want {
			t.Fatalf("line %d = %q, want %s", i, got[i], want)
		}
	}
}

func TestMissingGraphFlag(t *testing.T) {
	var out bytes.Buffer
	for _, cmd := range []string{"genpairs", "serve"} {
		if err := run([]string{cmd}, nil, &out, io.Discard); err == nil {
			t.Fatalf("%s without -graph: want error", cmd)
		}
	}
}

func TestServeBadWALPath(t *testing.T) {
	gp := writeIndexedGraph(t)
	var out bytes.Buffer
	err := run([]string{"serve", "-graph", gp, "-wal", filepath.Join(gp, "impossible", "edges.wal")}, nil, &out, io.Discard)
	if err == nil {
		t.Fatal("want error for unopenable WAL path")
	}
}

// TestServeRebuildGrowthFlagGone: a checkpoint recomputes nothing, so
// there is no label growth to trigger on and the flag that set it is gone.
func TestServeRebuildGrowthFlagGone(t *testing.T) {
	gp := writeIndexedGraph(t)
	err := run([]string{"serve", "-graph", gp, "-rebuild-growth", "1.5"}, nil, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("-rebuild-growth: %v, want flag provided but not defined", err)
	}
}

// TestLoadCommandGone: load is measured by the benchmark harness, so
// hlserve has no load command of its own.
func TestLoadCommandGone(t *testing.T) {
	err := run([]string{"load", "-n", "100"}, nil, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown command "load"`) {
		t.Fatalf("load: %v, want unknown command \"load\"", err)
	}
}

// TestRouteShardsFlagGone: every member answers exactly on its own, so
// there is nothing to partition and the flag that configured it is gone;
// -followers is the one way to name the read members.
func TestRouteShardsFlagGone(t *testing.T) {
	err := run([]string{"route", "-shards", "a:9001;b:9001"}, nil, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("-shards: %v, want flag provided but not defined", err)
	}
	if err := run([]string{"route"}, nil, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "-followers") {
		t.Fatalf("route without members: %v, want an error naming -followers", err)
	}
}

// writeRetiredIndex saves a graph and, beside it at the default index
// path, an index file as a baseline method wrote it before those formats
// were retired: a container whose first section is the method tag. It
// returns the graph path.
func writeRetiredIndex(t *testing.T, methodName string) string {
	t.Helper()
	g := highway.BarabasiAlbert(300, 3, 5)
	gp := filepath.Join(t.TempDir(), "g.hwg")
	if err := highway.SaveGraph(g, gp); err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	h := container.Header{N: uint64(g.NumVertices()), K: 8}
	if err := container.WriteContainer(&file, h, []container.Section{{ID: container.SectTag, Payload: []byte(methodName)}}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gp+".idx", file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return gp
}

// wantRetired fails the test unless err is one line that names methodName
// and says its files no longer load.
func wantRetired(t *testing.T, what string, err error, methodName string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), strconv.Quote(methodName)) ||
		!strings.Contains(err.Error(), "no longer loadable") || strings.Contains(err.Error(), "\n") {
		t.Fatalf("%s: err = %v, want one line naming %q as no longer loadable", what, err, methodName)
	}
}

// TestServeV1IndexNamesMigrate: a server reads one index layout. Given the
// committed v1 file, serve exits with the one line naming the command that
// rewrites it, whether it would serve the index frozen, live, or live over
// a write-ahead log.
func TestServeV1IndexNamesMigrate(t *testing.T) {
	gp := filepath.Join(t.TempDir(), "fig2.hwg")
	if err := highway.SaveGraph(gen.PaperFigure2(), gp); err != nil {
		t.Fatal(err)
	}
	v1 := filepath.Join("..", "..", "internal", "core", "testdata", "tiny.hl1")
	for _, extra := range [][]string{{"-readonly"}, nil, {"-wal", filepath.Join(t.TempDir(), "edges.wal")}} {
		err := run(append([]string{"serve", "-graph", gp, "-index", v1, "-addr", "127.0.0.1:0"}, extra...), nil, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "hlbuild migrate -graph") || strings.Contains(err.Error(), "\n") {
			t.Fatalf("serve %v on a v1 index: %v, want one line naming hlbuild migrate", extra, err)
		}
	}
}

// TestBatchAnyMethod: the batch pipeline answers from the paper's
// labelling only. A PLL index file fails with one line naming the method,
// before any pair is answered.
func TestBatchAnyMethod(t *testing.T) {
	gp := writeRetiredIndex(t, "pll")
	var out bytes.Buffer
	err := run([]string{"batch", "-graph", gp, "-workers", "2"}, strings.NewReader("0 1\n5 9\n"), &out, io.Discard)
	wantRetired(t, "batch", err, "pll")
	if out.Len() != 0 {
		t.Fatalf("batch wrote %q from a file it could not load", out.String())
	}
}

// TestServeMethodMismatch: serve loads hl index files only, so the -method
// flag that cross-checked a file's method tag is gone, and a retired
// method's file fails every path that loads one — live, read-only and
// -wal — with one line naming the method, before listening.
func TestServeMethodMismatch(t *testing.T) {
	gp := writeRetiredIndex(t, "dynhl")
	err := run([]string{"serve", "-graph", gp, "-method", "hl", "-addr", "127.0.0.1:0"}, nil, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("-method: %v, want flag provided but not defined", err)
	}
	for _, args := range [][]string{
		{"serve", "-graph", gp, "-addr", "127.0.0.1:0"},
		{"serve", "-graph", gp, "-readonly", "-addr", "127.0.0.1:0"},
		{"serve", "-graph", gp, "-wal", filepath.Join(t.TempDir(), "edges.wal"), "-addr", "127.0.0.1:0"},
	} {
		wantRetired(t, strings.Join(args, " "), run(args, nil, io.Discard, io.Discard), "dynhl")
	}
}
