package legacy

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"highway/internal/core"
	"highway/internal/gen"
)

// fixture reads a committed file of internal/core/testdata: tiny.hwg1 is
// the paper's Figure 2 graph and tiny.snap1 that graph with its labelling,
// both written by the last commit to write them; the index files are
// described where they are used.
func fixture(tb testing.TB, name string) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "core", "testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

func indexBytes(tb testing.TB, ix *core.Index) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadFixtures: both fixtures decode to the state they were written
// from, and every truncation of either is refused.
func TestReadFixtures(t *testing.T) {
	want := gen.PaperFigure2()
	wantIx, err := core.Build(want, gen.PaperLandmarks())
	if err != nil {
		t.Fatal(err)
	}
	graphFile, snapshot := fixture(t, "tiny.hwg1"), fixture(t, "tiny.snap1")
	g, err := ReadGraph(bytes.NewReader(graphFile))
	if err != nil || g.Fingerprint() != want.Fingerprint() {
		t.Fatalf("graph file: %v, %v; want %v", g, err, want)
	}
	g, ix, err := ReadSnapshot(bytes.NewReader(snapshot))
	if err != nil || g.Fingerprint() != want.Fingerprint() || !bytes.Equal(indexBytes(t, ix), indexBytes(t, wantIx)) {
		t.Fatalf("snapshot: %v, %v", g, err)
	}
	for cut := range graphFile {
		if _, err := ReadGraph(bytes.NewReader(graphFile[:cut])); err == nil {
			t.Fatalf("graph file cut at %d accepted", cut)
		}
	}
	for cut := range snapshot {
		if _, _, err := ReadSnapshot(bytes.NewReader(snapshot[:cut])); err == nil {
			t.Fatalf("snapshot cut at %d accepted", cut)
		}
	}
	if _, _, err := ReadSnapshot(bytes.NewReader(graphFile)); err == nil {
		t.Fatal("graph file read as a snapshot")
	}
	if _, err := ReadGraph(bytes.NewReader(snapshot)); err == nil {
		t.Fatal("snapshot read as a graph file")
	}
}
