package legacy

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"highway/internal/container"
	"highway/internal/core"
	"highway/internal/gen"
	"highway/internal/graph"
	"highway/internal/serve"
)

// fixture reads a committed file of internal/core/testdata; each is
// described where it is used.
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

// droppedFile is a file of a layout older than those this package reads,
// beside the graph it was built on.
type droppedFile struct {
	name     string
	raw      []byte
	g        *graph.Graph
	snapshot bool // a graph file or checkpoint, which serve decodes
}

// droppedFiles are the committed files of the older layouts — the v1
// index files tiny.hl1 and path300.hl1, tiny_off64.hl2 with its offsets in
// section 3, tiny.hl2 and its checkpoint tiny.snap2 with a distance byte
// an entry in section 5, tiny_mask.hl2 with its ranks as masks in section
// 13, the graph file tiny.hwg1 and checkpoint tiny.snap1 from before the
// graph became sections 9 and 10 — and tiny.hl2 without section 11, as
// writers before section 11 framed its labels.
func droppedFiles(tb testing.TB) []droppedFile {
	tb.Helper()
	fig := gen.PaperFigure2()
	noGraph := reframe(tb, fixture(tb, "tiny.hl2"), func(_ *container.Header, sec map[uint32][]byte) { delete(sec, sectGraph) })
	return []droppedFile{
		{"tiny.hl1", fixture(tb, "tiny.hl1"), fig, false},
		{"path300.hl1", fixture(tb, "path300.hl1"), gen.Path(300), false},
		{"tiny_off64.hl2", fixture(tb, "tiny_off64.hl2"), fig, false},
		{"tiny.hl2", fixture(tb, "tiny.hl2"), fig, false},
		{"tiny_mask.hl2", fixture(tb, "tiny_mask.hl2"), fig, false},
		{"tiny.hl2 without section 11", noGraph, fig, false},
		{"tiny.snap2", fixture(tb, "tiny.snap2"), fig, true},
		{"tiny.hwg1", fixture(tb, "tiny.hwg1"), fig, true},
		{"tiny.snap1", fixture(tb, "tiny.snap1"), fig, true},
	}
}

// TestReadFixtures: Layout names no committed file of today's layout and
// none of an older one, so `hlbuild migrate` hands the latter to the
// serving readers, which refuse each in one line naming the release whose
// migrate reads it; ReadIndex and ReadSnapshot refuse each in one line.
func TestReadFixtures(t *testing.T) {
	t.Run("current_layout", func(t *testing.T) {
		for _, name := range []string{"figure2.hl2", "figure2_top3.hl2", "grid.hl2", "leaves_kept.hl2"} {
			if got := Layout(bufio.NewReader(bytes.NewReader(fixture(t, name)))); got != "" {
				t.Errorf("Layout(%s) = %q, want \"\"", name, got)
			}
		}
	})
	for _, old := range droppedFiles(t) {
		t.Run(old.name, func(t *testing.T) {
			want, err := "", error(nil)
			if old.snapshot {
				if bytes.HasPrefix(old.raw, []byte(container.Magic)) {
					want = "snapshot"
				}
				_, _, err = serve.DecodeSnapshot(bytes.NewReader(old.raw))
			} else {
				_, err = core.Read(bytes.NewReader(old.raw), old.g)
			}
			if got := Layout(bufio.NewReader(bytes.NewReader(old.raw))); got != want {
				t.Fatalf("Layout = %q, want %q", got, want)
			}
			if !oneLine(err, "hlbuild migrate") || !oneLine(err, container.OldRelease) {
				t.Fatalf("the serving reader: %v, want one line naming hlbuild migrate %s", err, container.OldRelease)
			}
			if _, err := ReadIndex(bytes.NewReader(old.raw), old.g); !oneLine(err, "") {
				t.Fatalf("ReadIndex: %v, want a one-line refusal", err)
			}
			if _, _, err := ReadSnapshot(bytes.NewReader(old.raw)); !oneLine(err, "") {
				t.Fatalf("ReadSnapshot: %v, want a one-line refusal", err)
			}
		})
	}
}
