package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"slices"
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

// goldenTop3Index is the paper's running example with its three
// highest-degree vertices as landmarks, 18 entries: figure2_top3.hl2 is its
// file; tiny_mask.hl2 and tiny_ranks.hl2 are what writers before sections
// 14 and 15 wrote for it, and tiny_bits.hl2 what writers before section 16
// did.
func goldenTop3Index(tb testing.TB) *Index {
	tb.Helper()
	g := gen.PaperFigure2()
	ix, err := Build(g, g.DegreeOrder()[:3])
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// goldenGridIndex is a labelling whose ranks would take a byte fewer as
// rank bytes beside offsets: a 5×6 grid with its 15 highest-degree
// vertices as landmarks, 17 entries, 87 bytes of rank bytes and offsets
// against 88 of bits and directory. grid.hl2 is its file, and
// grid_ranks.hl2 what writers before section 16 wrote for it.
func goldenGridIndex(tb testing.TB) *Index {
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

// goldenLeafIndex is a labelling that keeps no label for its leaves: 8
// landmarks (0 … 7); 28 towns (8 … 35), town t joined to landmarks t, t+1,
// t+2 and t+3 mod 8, whose labels are four entries at distance 1; a leaf
// on each town (36 … 63); and the tail 0-64-65-66-67-68, whose vertex 67
// is 4 hops from landmark 0, an escape at a base of 2 bits, and whose end
// 68 is a leaf that reads 67's label through its record. The 29 leaves hold
// 113 of the 229 entries; elided, the mask is 40 vertices of 8 bits and its
// directory, 58 bytes against 98 for all 69, more than the 24 bytes of the
// elided set. The distances are kept per label: bases of 2 bits, no
// excess, and one record.
func goldenLeafIndex(tb testing.TB) *Index {
	tb.Helper()
	var edges [][2]int32
	for town := int32(8); town < 36; town++ {
		for i := int32(0); i < 4; i++ {
			edges = append(edges, [2]int32{(town + i) % 8, town})
		}
		edges = append(edges, [2]int32{town, town + 28})
	}
	edges = append(edges, [2]int32{0, 64}, [2]int32{64, 65}, [2]int32{65, 66}, [2]int32{66, 67}, [2]int32{67, 68})
	ix, err := Build(graph.MustFromEdges(69, edges), []int32{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// TestGoldenV2 pins the v2 format bytes of five labellings, one of which
// keeps no label for its leaves: if serialization drifts — field order,
// section ids, checksums, encoding — this fails before any user's index
// files stop loading. Every file keeps its ranks in section 14 —
// leaves.hl2, which elides its leaves, in 17 — without their directory,
// and its distances per label in section 16. Regenerate deliberately with
// `go test ./internal/core -run TestGoldenV2 -update-golden` and call the
// change out in review: it breaks files written by older builds.
func TestGoldenV2(t *testing.T) {
	for name, ix := range goldenIndexes(t) {
		t.Run(name, func(t *testing.T) {
			if elided := ix.leaves.words != nil; elided != (name == "leaves.hl2") {
				t.Fatalf("test premise broken: leaves elided %v", elided)
			}
			checkGolden(t, ix, name)
		})
	}
}

// TestKeptLeavesLoad: writers before sections 17 to 20 kept every label.
// leaves_kept.hl2 is what the last of them wrote for goldenLeafIndex, its
// ranks in sections 14 and 15 over all 69 vertices: it loads as the index
// a build gives, answers every pair as BFS does, and writes leaves.hl2.
// The kept labels' ranks as rank bytes in sections 19, 20 and 4, which no
// writer produced for this labelling, are a layout only `hlbuild migrate`
// reads: refused with its line.
func TestKeptLeavesLoad(t *testing.T) {
	ix, want := goldenLeafIndex(t), testdata(t, "leaves.hl2")
	t.Run("every label", func(t *testing.T) {
		got, err := Read(bytes.NewReader(testdata(t, "leaves_kept.hl2")), ix.Graph())
		if err != nil || !indexesIdentical(ix, got) || !bytes.Equal(v2Bytes(t, got), want) {
			t.Fatalf("%v, or another index than a build's, or another file than leaves.hl2", err)
		}
		checkAllPairs(t, ix.Graph(), got)
	})
	t.Run("rank bytes", func(t *testing.T) {
		plain := plainRanksOf(ix)
		file := reframe(t, want, func(_ *container.Header, sec map[uint32][]byte) {
			delete(sec, sectLeafBits)
			delete(sec, sectLeafDir)
			sec[sectLeafBase], sec[sectLeafRel], sec[sectLabelRank] = plain[sectLabelBase], plain[sectLabelRel], plain[sectLabelRank]
		})
		if _, err := Read(bytes.NewReader(file), ix.Graph()); !namesMigrate(err) {
			t.Fatalf("sections 19, 20 and 4: %v, want one line naming hlbuild migrate", err)
		}
	})
}

// goldenIndexes returns the golden labellings by the name of their file.
func goldenIndexes(tb testing.TB) map[string]*Index {
	return map[string]*Index{"figure2.hl2": goldenIndex(tb), "figure2_top3.hl2": goldenTop3Index(tb), "grid.hl2": goldenGridIndex(tb), "hubs_excess.hl2": goldenExcessIndex(tb), "leaves.hl2": goldenLeafIndex(tb)}
}

// goldenDirs names, for each golden file, what the writers before the
// reader derived the rank directory wrote for its labelling: the same
// sections with the directory stored in section 15 (18 for leaves.hl2).
var goldenDirs = map[string]string{
	"figure2.hl2": "figure2_dir.hl2", "figure2_top3.hl2": "figure2_top3_dir.hl2", "grid.hl2": "grid_dir.hl2",
	"hubs_excess.hl2": "hubs_excess_dir.hl2", "leaves.hl2": "leaves_dir.hl2",
}

// TestStoredDirectoryGoldens: each file the writers before the derived
// directory wrote for a golden labelling is its golden file with the
// directory stored (withDirectory), byte for byte, so the two layouts
// differ by that section and its table row alone; it loads as the index a
// build gives, its directory checked against its bits and adopted; and it
// writes the golden file.
func TestStoredDirectoryGoldens(t *testing.T) {
	for name, ix := range goldenIndexes(t) {
		t.Run(goldenDirs[name], func(t *testing.T) {
			old, want := testdata(t, goldenDirs[name]), testdata(t, name)
			if !bytes.Equal(withDirectory(t, ix), old) {
				t.Fatalf("%s is not %s with its directory stored", goldenDirs[name], name)
			}
			got, err := Read(bytes.NewReader(old), ix.Graph())
			if err != nil || !indexesIdentical(ix, got) || !bytes.Equal(got.labelMask.dir, ix.labelMask.dir) {
				t.Fatalf("%v, or another index than a build's", err)
			}
			if !bytes.Equal(v2Bytes(t, got), want) {
				t.Fatalf("loaded, it does not write %s", name)
			}
			checkAllPairs(t, ix.Graph(), got)
		})
	}
}

// TestReadDerivesDirectory: a file holds no rank directory, so a load
// derives it from the rank bits, and a wrong count there would misplace a
// label's entries even where the answers checked happen to match. For
// each golden labelling, BA-20k as cluster-ba20k builds it (every label
// kept, its bits over five blocks of 2¹⁶) and BA-20k with a leaf on every
// other vertex (the leaves elided), the directory Read(Write(ix)) holds is
// the built index's byte for byte, and the file has no directory section.
func TestReadDerivesDirectory(t *testing.T) {
	ba := gen.BarabasiAlbert(20_000, 5, 7)
	edges := edgesOf(ba)
	for v := range int32(10_000) {
		edges = append(edges, [2]int32{2 * v, 20_000 + v})
	}
	leafy := graph.MustFromEdges(30_000, edges)
	cases := goldenIndexes(t)
	for name, g := range map[string]*graph.Graph{"ba20k": ba, "ba20k+leaves": leafy} {
		ix, err := Build(g, g.DegreeOrder()[:16])
		if err != nil {
			t.Fatal(err)
		}
		cases[name] = ix
	}
	for name, ix := range cases {
		t.Run(name, func(t *testing.T) {
			if elided := ix.leaves.words != nil; elided != (name == "leaves.hl2" || name == "ba20k+leaves") {
				t.Fatalf("test premise broken: leaves elided %v", elided)
			}
			file := v2Bytes(t, ix)
			_, rows, err := container.ReadTable(bytes.NewReader(file))
			if err != nil || slices.ContainsFunc(rows, func(r container.Row) bool { return r.ID == sectLabelDir || r.ID == sectLeafDir }) {
				t.Fatalf("%v, or the file stores a directory", err)
			}
			got, err := Read(bytes.NewReader(file), ix.Graph())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.labelMask.dir, ix.labelMask.dir) || len(got.labelMask.base) != len(ix.labelMask.base) {
				t.Fatal("the derived directory differs from the built index's")
			}
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

// TestLegacyFixturesUntouched: the files no writer can produce any more are
// what the readers and `hlbuild migrate` are tested on — the stored
// directory, which they read, and the retired layouts every reader refuses
// in one line naming the release whose migrate reads them: v1, section 3,
// section 4, section 5, section 12, section 13 and the graph file and
// checkpoint from before the graph became container sections (tiny.hwg1
// is gen.PaperFigure2(), tiny.snap1 that graph with its labelling) — so
// nothing — -update-golden least of all — may rewrite them. tiny.hl2 is the golden index of the last
// writer of section 5, one distance byte an entry, and tiny.snap2 its
// checkpoint of the same graph and labelling. tiny_ranks.hl2 is a labelling
// whose ranks take the mask, as the last writer before section 13 wrote it,
// and tiny_mask.hl2 the same as the last writer of section 13 wrote it.
// leaves_kept.hl2 is goldenLeafIndex as the last writer before sections 17
// to 20 wrote it, every label kept. tiny_codes.hl2, tiny_bits.hl2 and
// grid_ranks.hl2 are goldenIndex, goldenTop3Index and goldenGridIndex as
// the last writer of section 12, a distance code an entry, wrote them, the
// grid's ranks a byte an entry beside offsets in sections 7, 8 and 4. The
// goldenDirs files are the golden labellings, and figure2_dir.snap and
// leaves_dir.snap checkpoints of goldenIndex and goldenLeafIndex beside
// their graphs, as the last writer of the rank directory (sections 15 and
// 18) wrote them.
func TestLegacyFixturesUntouched(t *testing.T) {
	for name, want := range map[string]string{
		"tiny.hl1":        "ed1b0762e5429ff792f8a1e6b3ef660395eb4ca1e35d0ea2c4ea96dccb482100",
		"path300.hl1":     "15b2542323ce20f716541b9f16ea4ba6d837e1bc0f67b3dadf6044c5ae67a088",
		"tiny_off64.hl2":  "7c6fc134483f31da4aa3be4608989f37f9f2b550a5d45388cb5dee9ac6375948",
		"tiny.hl2":        "df84c9564af2c19b84dddfd383a43d47c3baaeefebc72b4159422deff13b8c46",
		"tiny.snap2":      "54c2e6fc217b4378a679d07605baa991b2b50164c7f5dcb9662d73e92aaf383a",
		"tiny.hwg1":       "e26fc490c6c337cef8120b79e06e3ec5ac86705d1cc3a18df812848fe9ff7e79",
		"tiny.snap1":      "c2fbfd2b8ca2dd14276305c5231ca2ba86cc4c178981ef7b133378b5149bef1e",
		"tiny_ranks.hl2":  "0f54628001cb89c7fd5673afd82185d26cbe83c9ed5d3c088fc39890192bd0b6",
		"tiny_mask.hl2":   "71778ea387deb8ea027ca083d0175d00ee0d17ab878bdf2913bf10c9ec550119",
		"leaves_kept.hl2": "3e36d9b27c91f589a312d404f77102edadc8c851dc6ecb1bd40921482152b6f8",
		"tiny_codes.hl2":  "a2f13a4d0d96cf96af19107b8e5a772f3a7343c8b1b54c253e228a7d39aba8cc",
		"tiny_bits.hl2":   "4e5a0fe23e20d1e249e8ae6bb421dbe9f909513b861119a451deeeb10a75f498",
		"grid_ranks.hl2":  "90285f3eac7c8bc7102640644201eecd22958295f82671e0b23587337c9705a7",

		"figure2_dir.hl2":      "dcb4e98caf5b7f0cb55dce212427e3b3cd500d8a1fd98f8e5583ffb5ba8fdea7",
		"figure2_top3_dir.hl2": "5f9fdaa127984ebaeb45295c1031af31ab9c2488b6f4d9e876e13c92469e23ec",
		"grid_dir.hl2":         "c61544db693d5781881a99efa77931aa20f7395f7abb912fde7694367b158f34",
		"hubs_excess_dir.hl2":  "e8f7ce31ce31c514aec6f66824072f1539c990b3ac94ccff99bb4bd8584362ed",
		"leaves_dir.hl2":       "353e706e1868707c80a7ba5944cf9bbabd807eec11c1122d244cc95b53402f7d",
		"figure2_dir.snap":     "1167553df0fa3785f1c04154b86db0d151d8ea8d662e55ffa6871740049937bb",
		"leaves_dir.snap":      "d7066a8966a0cb6584faf43c80ff97bc25375564283e72e967b649f4d5df1033",
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
