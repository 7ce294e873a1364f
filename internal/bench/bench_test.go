package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"highway/internal/workload"
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

// TestCellsMeasuredOnce pins the cell rule: one (dataset, method, k) is
// built and measured once, so every table that shows a measurement of it
// shows the same figure, and the report holds one record of it.
func TestCellsMeasuredOnce(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.Shrink = 100
	cfg.Landmarks = landmarkSweep[0]
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run([]string{"all"}); err != nil {
		t.Fatal(err)
	}
	tables := parseTables(buf.String())
	k := strconv.Itoa(cfg.Landmarks)
	fig1a := map[string]string{} // dataset and method → QT
	for _, row := range tables["Figure 1(a)"][1:] {
		fig1a[row[0]+"|"+row[1]] = row[3]
	}
	fig7 := map[string]string{} // dataset and k → QT[HL]
	for _, row := range tables["Figure 7"][1:] {
		fig7[row[0]+"|"+row[1]] = row[3]
	}
	table2 := tables["Table 2"]
	if len(table2) != 1+len(cfg.Datasets) {
		t.Fatalf("Table 2 has %d rows:\n%s", len(table2), buf.String())
	}
	for _, row := range table2[1:] {
		for _, m := range []MethodName{MethodHL, MethodFD, MethodPLL, MethodISL, MethodBiBFS} {
			qt := row[slices.Index(table2[0], "QT["+string(m)+"]")]
			if fig1a[row[0]+"|"+string(m)] != qt || qt == "-" {
				t.Errorf("%s: Table 2 QT[%s] = %s, Figure 1(a) %s", row[0], m, qt, fig1a[row[0]+"|"+string(m)])
			}
			if m == MethodHL && fig7[row[0]+"|"+k] != qt {
				t.Errorf("%s: Table 2 QT[HL] = %s, Figure 7 at k=%s %s", row[0], qt, k, fig7[row[0]+"|"+k])
			}
		}
	}
	fig9, ablation := tables["Figure 9"], tables["Ablation B"]
	for i, row := range fig9[1:] {
		cov, exact := row[slices.Index(fig9[0], "HL-"+k)], ablation[1+i][slices.Index(ablation[0], "bound==exact")]
		if cov != exact {
			t.Errorf("%s: Figure 9 HL-%s = %s, Ablation B bound==exact %s", row[0], k, cov, exact)
		}
	}
	seen := map[string]bool{}
	for _, rec := range r.Results() {
		id := fmt.Sprintf("%s|%s|%d", rec.Key, rec.Method, rec.Landmarks)
		if seen[id] {
			t.Errorf("two records of %s", id)
		}
		seen[id] = true
	}
}

// TestMeasureQueriesPasses pins measureQueries' timing loop: it answers
// the same pairs, in order, queryPasses = 5 times (a cell's QT is the
// median pass) while the passes fit the budget, starts no pass once they
// have taken longer, and answers nothing for no pairs.
func TestMeasureQueriesPasses(t *testing.T) {
	var asked []workload.Pair
	var delay time.Duration
	o := workload.OracleFunc(func(s, t int32) int32 {
		asked = append(asked, workload.Pair{S: s, T: t})
		time.Sleep(delay)
		return 0
	})
	pairs := []workload.Pair{{S: 1, T: 2}, {S: 3, T: 4}, {S: 5, T: 6}}
	measureQueries(o, pairs, time.Hour)
	if len(asked) != 5*len(pairs) {
		t.Fatalf("%d queries over %d pairs, want five passes", len(asked), len(pairs))
	}
	for i, p := range asked {
		if p != pairs[i%len(pairs)] {
			t.Fatalf("query %d asked %v, want %v", i, p, pairs[i%len(pairs)])
		}
	}
	// A pass of three 2 ms queries overruns a 5 ms budget: one pass only,
	// and its time is the cell's.
	asked, delay = nil, 2*time.Millisecond
	if qt := measureQueries(o, pairs, 5*time.Millisecond); len(asked) != len(pairs) || qt < delay {
		t.Fatalf("a pass over the budget: %d queries timed at %s each, want one pass of %d at %s or more", len(asked), qt, len(pairs), delay)
	}
	if asked = nil; measureQueries(o, nil, time.Hour) != 0 || len(asked) != 0 {
		t.Fatal("no pairs must time nothing")
	}
}

// TestFig6AblationDNF: Figure 6 and Ablation B take the HL cell, so they
// build under the budget, print a DNF row when it is exceeded and report
// the build.
func TestFig6AblationDNF(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	cfg.BuildBudget = time.Nanosecond
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run([]string{"fig6", "ablation"}); err != nil {
		t.Fatal(err)
	}
	tables := parseTables(buf.String())
	for _, title := range []string{"Figure 6", "Ablation B"} {
		rows := tables[title]
		if len(rows) != 1+len(cfg.Datasets) {
			t.Fatalf("%s has %d rows:\n%s", title, len(rows), buf.String())
		}
		for _, row := range rows[1:] {
			if row[1] != "DNF" {
				t.Errorf("%s: %v, want a DNF row", title, row)
			}
		}
	}
	res := r.Results()
	if len(res) != len(cfg.Datasets) {
		t.Fatalf("%d records, want one HL build a dataset: %+v", len(res), res)
	}
	for i, rec := range res {
		if rec.Key != cfg.Datasets[i] || rec.Method != string(MethodHL) || rec.Landmarks != cfg.Landmarks || !rec.DNF {
			t.Errorf("record %d: %+v, want the DNF HL build of %s", i, rec, cfg.Datasets[i])
		}
	}
}

// parseTables splits harness output into its tables by the title before
// the colon, each a list of rows, the header row first, of the cells
// tabwriter set at least two spaces apart.
var cellGap = regexp.MustCompile(` {2,}`)

func parseTables(out string) map[string][][]string {
	tables := map[string][][]string{}
	for _, chunk := range strings.Split(out, "\n== ")[1:] {
		lines := strings.Split(strings.TrimSpace(chunk), "\n")
		title, _, _ := strings.Cut(lines[0], ":")
		for _, line := range lines[1:] {
			tables[title] = append(tables[title], cellGap.Split(strings.TrimSpace(line), -1))
		}
	}
	return tables
}
