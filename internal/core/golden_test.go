package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"highway/internal/gen"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden index files")

// goldenIndex is the deterministic fixture behind the golden files: the
// paper's running example with its landmark set {1,5,9}.
func goldenIndex(tb testing.TB) *Index {
	tb.Helper()
	ix, err := Build(gen.PaperFigure2(), gen.PaperLandmarks())
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// TestGoldenV2 pins the v2 format bytes: if serialization drifts — field
// order, section ids, checksums, encoding — this fails before any user's
// index files stop loading. Regenerate deliberately with
// `go test ./internal/core -run TestGoldenV2 -update-golden` and call the
// change out in review: it breaks files written by older builds.
func TestGoldenV2(t *testing.T) {
	ix := goldenIndex(t)
	var buf bytes.Buffer
	if err := ix.WriteFormat(&buf, FormatV2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "tiny.hl2")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("v2 serialization drifted from golden file (%d bytes written, %d golden); "+
			"if intentional, regenerate with -update-golden and flag the compatibility break",
			buf.Len(), len(want))
	}

	// The checked-in bytes must also load and answer correctly.
	g := gen.PaperFigure2()
	ix2, err := Read(bytes.NewReader(want), g)
	if err != nil {
		t.Fatal(err)
	}
	if !indexesIdentical(ix, ix2) {
		t.Fatal("golden file decodes to a different index")
	}
	checkAllPairs(t, g, ix2)
}

// TestLegacyFixturesUntouched: the files no writer can produce any more are
// what the v1 and section-3 readers, and `hlbuild migrate`'s readers of the
// graph file and checkpoint from before the graph became container
// sections (tiny.hwg1 is gen.PaperFigure2(), tiny.snap1 that graph with its
// labelling), are tested on, so nothing — -update-golden least of all —
// may rewrite them.
func TestLegacyFixturesUntouched(t *testing.T) {
	for name, want := range map[string]string{
		"tiny.hl1":       "ed1b0762e5429ff792f8a1e6b3ef660395eb4ca1e35d0ea2c4ea96dccb482100",
		"path300.hl1":    "15b2542323ce20f716541b9f16ea4ba6d837e1bc0f67b3dadf6044c5ae67a088",
		"tiny_off64.hl2": "7c6fc134483f31da4aa3be4608989f37f9f2b550a5d45388cb5dee9ac6375948",
		"tiny.hwg1":      "e26fc490c6c337cef8120b79e06e3ec5ac86705d1cc3a18df812848fe9ff7e79",
		"tiny.snap1":     "c2fbfd2b8ca2dd14276305c5231ca2ba86cc4c178981ef7b133378b5149bef1e",
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != want {
			t.Errorf("testdata/%s has SHA-256 %x, want %s: restore it from git", name, sum, want)
		}
	}
}
