package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinyConfig shrinks everything so the whole harness runs in seconds.
func tinyConfig(buf *bytes.Buffer) Config {
	return Config{
		Out:         buf,
		Datasets:    []string{"Skitter", "Flickr"},
		Shrink:      32,
		Landmarks:   8,
		Pairs:       300,
		SlowPairs:   50,
		BuildBudget: 20 * time.Second,
	}
}

func TestNewRunnerValidation(t *testing.T) {
	if _, err := NewRunner(Config{}); err == nil {
		t.Error("nil Out accepted")
	}
	var buf bytes.Buffer
	if _, err := NewRunner(Config{Out: &buf, Datasets: []string{"NotADataset"}}); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := NewRunner(Config{Out: &buf, Landmarks: -1}); err == nil {
		t.Error("negative landmark count accepted")
	}
}

func TestDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.Landmarks != 20 || c.Pairs != 100_000 || c.SlowPairs != 1000 {
		t.Fatalf("paper defaults wrong: %+v", c)
	}
	if c.Shrink != 1 || c.BuildBudget != 60*time.Second || c.Workers < 1 || c.Seed == 0 {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	r, err := NewRunner(tinyConfig(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Table1(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "Skitter", "Flickr", "max.deg", "[paper n]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2(t *testing.T) {
	var buf bytes.Buffer
	r, err := NewRunner(tinyConfig(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Table2(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 2", "CT[HL-P]", "QT[Bi-BFS]", "ALS[IS-L]", "Skitter"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "DNF") {
		t.Fatalf("tiny graphs should not DNF:\n%s", out)
	}
}

// TestTable3 pins the paper's size table on the tiny configuration byte
// for byte, every method's label size on both datasets, so no change can
// move a cell unnoticed.
func TestTable3(t *testing.T) {
	var buf bytes.Buffer
	r, err := NewRunner(tinyConfig(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Table3(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "table3_tiny.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Fatalf("Table 3 changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestFigures(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.Datasets = []string{"Skitter"}
	cfg.Shrink = 64
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run([]string{"fig6", "fig7", "fig8", "fig9", "fig1a"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Figure 6", "distance distribution",
		"Figure 7", "CT[HL]",
		"Figure 8", "HL-50", "FD-20",
		"Figure 9", "pair coverage",
		"Figure 1(a)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig1bTiny(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.Shrink = 100 // sweep sizes ≈ 100..10k vertices
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Fig1b(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 1(b)") {
		t.Fatalf("missing header:\n%s", buf.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	r, err := NewRunner(tinyConfig(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run([]string{"tableX"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentIDs(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 10 {
		t.Fatalf("got %d experiment ids, want 10 (3 tables + 6 figure panels + ablation)", len(ids))
	}
}

// TestDNFBudget forces a DNF with a microscopic budget on a non-trivial
// build.
func TestDNFBudget(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.Datasets = []string{"Orkut"}
	cfg.Shrink = 4
	cfg.BuildBudget = 1 * time.Nanosecond
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Table2(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DNF") {
		t.Fatalf("nanosecond budget did not DNF:\n%s", buf.String())
	}
}

func TestAblation(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.Datasets = []string{"Skitter"}
	cfg.Shrink = 64
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run([]string{"ablation"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Ablation B", "bound only", "full query"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "Ablation A") {
		t.Fatalf("the retired strategy ablation ran:\n%s", out)
	}
}
