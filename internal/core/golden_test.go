package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"highway/internal/container"
	"highway/internal/gen"
	"highway/internal/graph"
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

// goldenMaskIndex is the paper's running example with its three
// highest-degree vertices as landmarks, 18 entries: tiny_bits.hl2 is its
// file, and tiny_mask.hl2 and tiny_ranks.hl2 what writers before sections
// 14 and 15 wrote for it.
func goldenMaskIndex(tb testing.TB) *Index {
	tb.Helper()
	g := gen.PaperFigure2()
	ix, err := Build(g, g.DegreeOrder()[:3])
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// goldenRankIndex is a labelling whose ranks keep rank bytes: a 5×6 grid
// with its 15 highest-degree vertices as landmarks, 17 entries, 87 bytes
// of rank bytes and offsets against 88 of bits and directory.
func goldenRankIndex(tb testing.TB) *Index {
	tb.Helper()
	g := gen.Grid(5, 6)
	ix, err := Build(g, g.DegreeOrder()[:15])
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// goldenExcessIndex is a labelling whose distances are kept per label: 3
// landmarks (0, 1, 2) joined to each of 41 shared leaves (3 … 43), whose
// labels are three entries at distance 1; vertex 44, beside landmark 0 and
// leaf 3, with the one label that spans a hop (1, 2, 2); and the tail
// 0-45-46-47-48, whose last label, (0, 4), escapes at a 2-bit base. 130
// entries: bases of 2 bits and excesses of 1 and one record, 41 bytes,
// against 43 for per-entry codes of 2 bits and their record.
func goldenExcessIndex(tb testing.TB) *Index {
	tb.Helper()
	edges := [][2]int32{{0, 44}, {3, 44}, {0, 45}, {45, 46}, {46, 47}, {47, 48}}
	for leaf := int32(3); leaf <= 43; leaf++ {
		edges = append(edges, [2]int32{0, leaf}, [2]int32{1, leaf}, [2]int32{2, leaf})
	}
	ix, err := Build(graph.MustFromEdges(49, edges), []int32{0, 1, 2})
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// TestGoldenV2 pins the v2 format bytes of both rank forms and both
// distance forms: if serialization drifts — field order, section ids,
// checksums, encoding — this fails before any user's index files stop
// loading. tiny_codes.hl2, tiny_bits.hl2 and hubs_excess.hl2 keep their
// ranks in sections 14 and 15, grid_ranks.hl2 in sections 7, 8 and 4;
// hubs_excess.hl2 keeps its distances per label in section 16, the others
// per entry in section 12. Regenerate deliberately with `go test
// ./internal/core -run TestGoldenV2 -update-golden` and call the change out
// in review: it breaks files written by older builds.
func TestGoldenV2(t *testing.T) {
	for name, ix := range map[string]*Index{"tiny_codes.hl2": goldenIndex(t), "tiny_bits.hl2": goldenMaskIndex(t), "grid_ranks.hl2": goldenRankIndex(t), "hubs_excess.hl2": goldenExcessIndex(t)} {
		t.Run(name, func(t *testing.T) {
			if mask, perLabel := ix.labelMask.bits != nil, formOf(ix).perLabel; mask != (name != "grid_ranks.hl2") || perLabel != (name == "hubs_excess.hl2") {
				t.Fatalf("test premise broken: mask form %v, per label %v", mask, perLabel)
			}
			checkGolden(t, ix, name)
		})
	}
}

// checkGolden is TestGoldenV2 for one index and its file.
func checkGolden(t *testing.T, ix *Index, name string) {
	var buf bytes.Buffer
	if err := ix.WriteFormat(&buf, FormatV2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
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
	g := ix.Graph()
	ix2, err := Read(bytes.NewReader(want), g)
	if err != nil {
		t.Fatal(err)
	}
	if !indexesIdentical(ix, ix2) {
		t.Fatal("golden file decodes to a different index")
	}
	checkAllPairs(t, g, ix2)
}

// TestRankBytesOfDenseLabellingLoad: writers before section 13 kept every
// labelling's ranks in section 4. tiny_ranks.hl2 is what the last of them
// wrote for goldenMaskIndex, whose ranks a writer of today puts in sections
// 14 and 15: it loads as the index a build gives, answers every pair as
// BFS does, and writes tiny_bits.hl2. rankBytesFile frames that file byte
// for byte, so the reader checks tested on its files are the ones such
// files meet. Either form is read as written and held in the one chosen.
func TestRankBytesOfDenseLabellingLoad(t *testing.T) {
	g, ix := gen.PaperFigure2(), goldenMaskIndex(t)
	old := testdata(t, "tiny_ranks.hl2")
	if !bytes.Equal(rankBytesFile(t, ix), old) {
		t.Fatal("rankBytesFile does not frame the file the writers before section 13 wrote")
	}
	got, err := Read(bytes.NewReader(old), g)
	if err != nil {
		t.Fatal(err)
	}
	if !indexesIdentical(ix, got) || !bytes.Equal(v2Bytes(t, got), testdata(t, "tiny_bits.hl2")) {
		t.Fatal("the section-4 file loads as another index than a build's, or writes another file")
	}
	checkAllPairs(t, g, got)

	// The other way round, which no writer produces: the grid's sparse
	// ranks as bits in sections 14 and 15 load as rank bytes.
	sparse := goldenRankIndex(t)
	plain := plainRanksOf(sparse)
	file := reframe(t, testdata(t, "grid_ranks.hl2"), func(_ *container.Header, sec map[uint32][]byte) {
		for _, id := range []uint32{sectLabelBase, sectLabelRel, sectLabelRank} {
			delete(sec, id)
		}
		sec[sectLabelBits], sec[sectLabelDir] = plain[sectLabelBits], plain[sectLabelDir]
	})
	if got, err := Read(bytes.NewReader(file), sparse.Graph()); err != nil || !indexesIdentical(sparse, got) || !bytes.Equal(v2Bytes(t, got), testdata(t, "grid_ranks.hl2")) {
		t.Fatalf("the grid's ranks as bits: %v, or another index than a build's", err)
	}
}

// TestLegacyFixturesUntouched: the files no writer can produce any more are
// what the v1, section-3 and section-5 readers, and `hlbuild migrate`'s
// readers of the graph file and checkpoint from before the graph became
// container sections (tiny.hwg1 is gen.PaperFigure2(), tiny.snap1 that
// graph with its labelling), are tested on, so nothing — -update-golden
// least of all — may rewrite them. tiny.hl2 is the golden index of the last
// writer of section 5, one distance byte an entry, and tiny.snap2 its
// checkpoint of the same graph and labelling. tiny_ranks.hl2 is a labelling
// whose ranks take the mask, as the last writer before section 13 wrote it,
// and tiny_mask.hl2 the same as the last writer of section 13 wrote it.
func TestLegacyFixturesUntouched(t *testing.T) {
	for name, want := range map[string]string{
		"tiny.hl1":       "ed1b0762e5429ff792f8a1e6b3ef660395eb4ca1e35d0ea2c4ea96dccb482100",
		"path300.hl1":    "15b2542323ce20f716541b9f16ea4ba6d837e1bc0f67b3dadf6044c5ae67a088",
		"tiny_off64.hl2": "7c6fc134483f31da4aa3be4608989f37f9f2b550a5d45388cb5dee9ac6375948",
		"tiny.hl2":       "df84c9564af2c19b84dddfd383a43d47c3baaeefebc72b4159422deff13b8c46",
		"tiny.snap2":     "54c2e6fc217b4378a679d07605baa991b2b50164c7f5dcb9662d73e92aaf383a",
		"tiny.hwg1":      "e26fc490c6c337cef8120b79e06e3ec5ac86705d1cc3a18df812848fe9ff7e79",
		"tiny.snap1":     "c2fbfd2b8ca2dd14276305c5231ca2ba86cc4c178981ef7b133378b5149bef1e",
		"tiny_ranks.hl2": "0f54628001cb89c7fd5673afd82185d26cbe83c9ed5d3c088fc39890192bd0b6",
		"tiny_mask.hl2":  "71778ea387deb8ea027ca083d0175d00ee0d17ab878bdf2913bf10c9ec550119",
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
