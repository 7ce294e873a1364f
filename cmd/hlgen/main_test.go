package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"highway"
)

func TestRunBA(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.hwg")
	if err := run([]string{"-family", "ba", "-n", "500", "-deg", "6", "-seed", "3", "-out", out}); err != nil {
		t.Fatal(err)
	}
	g, err := highway.LoadGraph(out)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 500 {
		t.Fatalf("n = %d", g.NumVertices())
	}
}

// TestRunBADegree: -deg is the average degree for ba, which attaches
// deg/2 edges a vertex: 1000 vertices at -deg 10 are the 6-clique's 15
// edges and 994 vertices' 5.
func TestRunBADegree(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.hwg")
	if err := run([]string{"-family", "ba", "-n", "1000", "-deg", "10", "-out", out}); err != nil {
		t.Fatal(err)
	}
	g, err := highway.LoadGraph(out)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4985 {
		t.Fatalf("m = %d, want 4985", g.NumEdges())
	}
}

func TestRunDataset(t *testing.T) {
	out := filepath.Join(t.TempDir(), "d.hwg")
	if err := run([]string{"-dataset", "Skitter", "-shrink", "64", "-out", out}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatal(err)
	}
}

func TestRunTextOutput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.txt")
	if err := run([]string{"-family", "er", "-n", "50", "-deg", "4", "-out", out, "-text"}); err != nil {
		t.Fatal(err)
	}
	g, err := highway.LoadEdgeList(out)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == 0 {
		t.Fatal("no edges in text output")
	}
}

func TestRunWS(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ws.hwg")
	if err := run([]string{"-family", "ws", "-n", "100", "-deg", "4", "-beta", "0.2", "-out", out}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRMAT(t *testing.T) {
	out := filepath.Join(t.TempDir(), "rm.hwg")
	if err := run([]string{"-family", "rmat", "-scale", "8", "-deg", "4", "-out", out}); err != nil {
		t.Fatal(err)
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing -out/-dataset accepted")
	}
	if err := run([]string{"-out", "/tmp/x.hwg"}); err == nil {
		t.Error("missing -dataset/-family accepted")
	}
	if err := run([]string{"-family", "bogus", "-out", filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Error("bogus family accepted")
	}
	if err := run([]string{"-dataset", "bogus", "-out", filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Error("bogus dataset accepted")
	}
}

// TestRunRejectsBadSizes: sizes a generator would panic on come back as an
// error that names the flag, and nothing is written.
func TestRunRejectsBadSizes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-family", "rmat", "-scale", "31"}, "-scale"},
		{[]string{"-family", "ws", "-n", "2"}, "-family ws"},
		{[]string{"-family", "ws", "-n", "100", "-deg", "1"}, "-family ws"},
		{[]string{"-family", "ws", "-n", "10", "-deg", "10"}, "-family ws"},
		{[]string{"-family", "ws", "-n", "100", "-deg", "4", "-beta", "1.5"}, "-beta"},
		{[]string{"-family", "ws", "-n", "100", "-deg", "4", "-beta", "-0.1"}, "-beta"},
		{[]string{"-family", "ws", "-n", "100", "-deg", "4", "-beta", "NaN"}, "-beta"},
		{[]string{"-family", "ba", "-n", "100", "-deg", "-6"}, "-deg"},
		{[]string{"-family", "rmat", "-scale", "8", "-deg", "-1"}, "-deg"},
		{[]string{"-family", "er", "-n", "-5"}, "-n"},
		{[]string{"-family", "ba", "-n", "2000000000", "-deg", "4"}, "-family ba"},
	} {
		out := filepath.Join(t.TempDir(), "g.hwg")
		err := run(append(tc.args, "-out", out))
		if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%v: error %v, want one line naming %s", tc.args, err, tc.want)
		}
		if _, statErr := os.Stat(out); statErr == nil {
			t.Errorf("%v: wrote %s all the same", tc.args, out)
		}
	}
}
