package main

import (
	"bytes"
	"context"
	"fmt"
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
	for _, cmd := range []string{"genpairs", "serve", "batch"} {
		if err := run([]string{cmd}, nil, &out, io.Discard); err == nil {
			t.Fatalf("%s without -graph: want error", cmd)
		}
	}
}

// TestBatchOneShot: -index names an index file away from the default
// path, and batch answers from it a single pair as the library does.
func TestBatchOneShot(t *testing.T) {
	gp := writeIndexedGraph(t)
	ip := filepath.Join(t.TempDir(), "elsewhere.idx")
	if err := os.Rename(gp+".idx", ip); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"batch", "-graph", gp, "-index", ip}, strings.NewReader("1 250\n"), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	g, err := highway.LoadGraph(gp)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := highway.LoadIndex(ip, g)
	if err != nil {
		t.Fatal(err)
	}
	if want := strconv.Itoa(int(ix.Distance(1, 250))) + "\n"; out.String() != want {
		t.Fatalf("batch 1 250 = %q, want %q", out.String(), want)
	}
}

// TestBatchRunErrors: a pair with an id outside the graph and a graph
// file that does not exist each fail batch with an error.
func TestBatchRunErrors(t *testing.T) {
	gp := writeIndexedGraph(t)
	if err := run([]string{"batch", "-graph", gp}, strings.NewReader("1 99999\n"), io.Discard, io.Discard); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if err := run([]string{"batch", "-graph", filepath.Join(t.TempDir(), "missing.hwg")}, strings.NewReader("1 2\n"), io.Discard, io.Discard); err == nil {
		t.Error("missing graph accepted")
	}
}

// TestBatchReportsIndex: batch reports the index it loaded — its Stats
// and its in-memory size — on stderr, so a run on empty stdin prints the
// index's summary and answers nothing.
func TestBatchReportsIndex(t *testing.T) {
	gp := writeIndexedGraph(t)
	var out, errOut bytes.Buffer
	if err := run([]string{"batch", "-graph", gp}, strings.NewReader(""), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("batch on empty stdin wrote %q to stdout", out.String())
	}
	g, err := highway.LoadGraph(gp)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := highway.LoadIndex(gp+".idx", g)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%s memory=%dB", ix.Stats(), ix.ActualBytes())
	if strings.Count(errOut.String(), want) != 1 {
		t.Fatalf("stderr %q: want one line containing %q", errOut.String(), want)
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

// TestRouteHealthIntervalFlagGone: the router's health cadence is a
// constant (500 ms), so the flag that set it is gone.
func TestRouteHealthIntervalFlagGone(t *testing.T) {
	err := run([]string{"route", "-followers", "a:9001", "-health-interval", "10"}, nil, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -health-interval") {
		t.Fatalf("-health-interval: %v, want flag provided but not defined", err)
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

// forEachRetiredLayout calls f with each committed index file of a
// retired layout — both v1 files, the v2 file with its offsets in section
// 3 and the one with a distance byte an entry in section 5 — and the path
// of a saved graph it was built on.
func forEachRetiredLayout(t *testing.T, f func(name, gp, ip string)) {
	t.Helper()
	testdata := filepath.Join("..", "..", "internal", "core", "testdata")
	for name, g := range map[string]*highway.Graph{"tiny.hl1": gen.PaperFigure2(), "path300.hl1": gen.Path(300), "tiny_off64.hl2": gen.PaperFigure2(), "tiny.hl2": gen.PaperFigure2()} {
		gp := filepath.Join(t.TempDir(), "g.hwg")
		if err := highway.SaveGraph(g, gp); err != nil {
			t.Fatal(err)
		}
		f(name, gp, filepath.Join(testdata, name))
	}
}

// wantMigrate fails the test unless err is one line naming the command
// that rewrites a retired index layout, and nothing was written to out.
func wantMigrate(t *testing.T, what string, err error, out *bytes.Buffer) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "hlbuild migrate -graph") || strings.Contains(err.Error(), "\n") {
		t.Fatalf("%s: %v, want one line naming hlbuild migrate", what, err)
	}
	if out.Len() != 0 {
		t.Fatalf("%s wrote %q", what, out.String())
	}
}

// TestServeV1IndexNamesMigrate: a server reads one index layout. Given
// each committed file of a retired layout, serve exits with the one line
// naming the command that rewrites it, whether it would serve the index
// frozen, live, or live over a write-ahead log.
func TestServeV1IndexNamesMigrate(t *testing.T) {
	forEachRetiredLayout(t, func(name, gp, ip string) {
		for _, extra := range [][]string{{"-readonly"}, nil, {"-wal", filepath.Join(t.TempDir(), "edges.wal")}} {
			var out bytes.Buffer
			err := run(append([]string{"serve", "-graph", gp, "-index", ip, "-addr", "127.0.0.1:0"}, extra...), nil, &out, io.Discard)
			wantMigrate(t, fmt.Sprintf("serve %v on %s", extra, name), err, &out)
		}
	})
}

// TestBatchV1IndexNamesMigrate: batch reads the same one layout. Given
// each committed file of a retired layout, it fails with the line naming
// hlbuild migrate before answering a pair or reporting the index.
func TestBatchV1IndexNamesMigrate(t *testing.T) {
	forEachRetiredLayout(t, func(name, gp, ip string) {
		var out, errOut bytes.Buffer
		err := run([]string{"batch", "-graph", gp, "-index", ip}, strings.NewReader("1 2\n"), &out, &errOut)
		wantMigrate(t, "batch on "+name, err, &out)
		if errOut.Len() != 0 {
			t.Fatalf("batch on %s reported %q for an index it could not load", name, errOut.String())
		}
	})
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

// TestBatchAnyMethodIndex: the other retired methods' files fail batch the
// same way as PLL's does, each with one line naming its method.
func TestBatchAnyMethodIndex(t *testing.T) {
	for _, name := range []string{"isl", "fd", "dynhl"} {
		gp := writeRetiredIndex(t, name)
		var out bytes.Buffer
		err := run([]string{"batch", "-graph", gp}, strings.NewReader("1 250\n"), &out, io.Discard)
		wantRetired(t, "batch", err, name)
		if out.Len() != 0 {
			t.Fatalf("batch wrote %q from a %s file it could not load", out.String(), name)
		}
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
