// Package bench is the evaluation harness behind cmd/hlbench: it
// re-runs the paper's experiments — the dataset statistics of Table 1,
// the construction/query/size comparisons of Tables 2-3, the query time,
// label size and scaling curves of Figures 1 and 6-9 — over the synthetic
// stand-in datasets of internal/datasets, plus the ablation study DESIGN.md
// calls out (bound-only vs full queries). Each experiment id maps to one
// Runner method; see DESIGN.md for the per-experiment index (what each
// id reproduces, which methods and measurements it involves) and
// EXPERIMENTS.md for recorded runs next to the paper's published
// numbers.
//
// Every experiment is a projection over cells: one method built on one
// graph with k landmarks, once per run, with its query time and pair
// coverage measured once per pair count. Methods that exceed the per-run
// build budget are reported as DNF rather than aborting the whole table,
// mirroring how the paper reports timeouts on its largest datasets.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"highway/internal/datasets"
	"highway/internal/gen"
	"highway/internal/graph"
	"highway/internal/workload"
)

// Config parameterizes a harness run. The zero value is completed by
// Defaults.
type Config struct {
	Out         io.Writer     // destination for tables (required)
	Datasets    []string      // registry names; empty = all 12
	Shrink      int           // dataset shrink divisor; 1 = standard stand-ins
	Landmarks   int           // |R| for Table 2/3 and Figure 1 (paper: 20)
	Pairs       int           // sampled query pairs (paper: 100,000)
	SlowPairs   int           // pairs for slow online methods (paper: 1,000 for Bi-BFS)
	BuildBudget time.Duration // per-method DNF budget
	Workers     int           // HL-P workers; 0 = GOMAXPROCS
	Seed        int64
	Progress    io.Writer // optional liveness notes (e.g. os.Stderr)
}

// Defaults fills unset fields with the paper-equivalent settings.
func (c Config) Defaults() Config {
	if c.Shrink < 1 {
		c.Shrink = 1
	}
	if c.Landmarks == 0 {
		c.Landmarks = 20
	}
	if c.Pairs == 0 {
		c.Pairs = 100_000
	}
	if c.SlowPairs == 0 {
		c.SlowPairs = 1_000
	}
	if c.BuildBudget == 0 {
		c.BuildBudget = 60 * time.Second
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Runner executes experiments over a fixed config. Cells (including
// DNFs) are cached per (dataset, method, k) so that experiments sharing
// one read one build and one measurement.
type Runner struct {
	cfg     Config
	sets    []datasets.Dataset // Config.Datasets, or the registry
	cells   map[string]*cell
	results []RecordedBuild
}

// RecordedBuild is one build outcome in the machine-readable report
// (hlbench -json). DNF rows are NOT blanked: they carry the method
// name and the reason (budget exceeded vs build error), which the
// human-readable tables can only render as "DNF"/"-".
type RecordedBuild struct {
	Key           string  `json:"key"` // dataset name or sweep point
	Method        string  `json:"method"`
	Landmarks     int     `json:"landmarks"`
	DNF           bool    `json:"dnf"`
	Reason        string  `json:"reason,omitempty"`
	BudgetSeconds float64 `json:"budget_seconds,omitempty"`
	CTSeconds     float64 `json:"ct_seconds"`
	Entries       int64   `json:"entries,omitempty"`
	AvgLabelSize  float64 `json:"avg_label_size,omitempty"`
	SizeBytes     int64   `json:"size_bytes,omitempty"`
}

// Results returns every distinct build the runner performed (cache
// hits are recorded once), in execution order.
func (r *Runner) Results() []RecordedBuild {
	return append([]RecordedBuild(nil), r.results...)
}

// WriteJSON emits the machine-readable report: the effective settings
// plus one record per distinct build, including DNFs with their
// reasons.
func (r *Runner) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Landmarks     int             `json:"landmarks"`
		Shrink        int             `json:"shrink"`
		BudgetSeconds float64         `json:"budget_seconds"`
		Seed          int64           `json:"seed"`
		Builds        []RecordedBuild `json:"builds"`
	}{
		Landmarks:     r.cfg.Landmarks,
		Shrink:        r.cfg.Shrink,
		BudgetSeconds: r.cfg.BuildBudget.Seconds(),
		Seed:          r.cfg.Seed,
		Builds:        r.results,
	})
}

// NewRunner validates the config and returns a Runner.
func NewRunner(cfg Config) (*Runner, error) {
	cfg = cfg.Defaults()
	if cfg.Out == nil {
		return nil, fmt.Errorf("bench: Config.Out is required")
	}
	if cfg.Landmarks < 1 {
		return nil, fmt.Errorf("bench: Config.Landmarks = %d, want ≥ 1", cfg.Landmarks)
	}
	r := &Runner{cfg: cfg, sets: datasets.Registry, cells: map[string]*cell{}}
	if len(cfg.Datasets) > 0 {
		r.sets = make([]datasets.Dataset, len(cfg.Datasets))
	}
	for i, name := range cfg.Datasets {
		d, err := datasets.ByName(name)
		if err != nil {
			return nil, err
		}
		r.sets[i] = d
	}
	return r, nil
}

type experiment struct {
	id  string
	run func(*Runner) error
}

// experiments maps each id to its Runner method, in the paper's order.
var experiments = []experiment{
	{"table1", (*Runner).Table1}, {"fig6", (*Runner).Fig6}, {"table2", (*Runner).Table2},
	{"table3", (*Runner).Table3}, {"fig1a", (*Runner).Fig1a}, {"fig1b", (*Runner).Fig1b},
	{"fig7", (*Runner).Fig7}, {"fig8", (*Runner).Fig8}, {"fig9", (*Runner).Fig9},
	{"ablation", (*Runner).AblationBounds},
}

// ExperimentIDs lists the known experiment ids in canonical order.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// Run executes the named experiments ("all" runs every one).
func (r *Runner) Run(ids []string) error {
	if len(ids) == 1 && ids[0] == "all" {
		ids = ExperimentIDs()
	}
	for _, id := range ids {
		i := slices.IndexFunc(experiments, func(e experiment) bool { return e.id == id })
		if i < 0 {
			return fmt.Errorf("bench: unknown experiment %q (known: %v)", id, ExperimentIDs())
		}
		if err := experiments[i].run(r); err != nil {
			return err
		}
	}
	return nil
}

func (r *Runner) header(title string) {
	fmt.Fprintf(r.cfg.Out, "\n== %s ==\n", title)
	if r.cfg.Progress != nil {
		fmt.Fprintf(r.cfg.Progress, "[hlbench] %s\n", title)
	}
}

// progress emits a per-row liveness note (tables are only flushed once per
// experiment so that tabwriter can align columns).
func (r *Runner) progress(row string) {
	if r.cfg.Progress != nil {
		fmt.Fprintf(r.cfg.Progress, "[hlbench]   done %s\n", row)
	}
}

// table prints one per-dataset experiment: its title, the header row and,
// dataset by dataset, the tab-separated lines rows returns.
func (r *Runner) table(title, head string, rows func(d datasets.Dataset, g *graph.Graph) []string) error {
	r.header(title)
	tw := tabwriter.NewWriter(r.cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, head)
	for _, d := range r.sets {
		for _, row := range rows(d, d.Load(r.cfg.Shrink)) {
			fmt.Fprintln(tw, row)
		}
		r.progress(d.Name)
	}
	return tw.Flush()
}

// cell returns method m's cell on g, the graph key names (a dataset or a
// sweep point), with g's min(k, n) highest-degree vertices as landmarks
// (NewRunner keeps k ≥ 1). The first call builds it under the DNF budget
// and records it; later calls return it as it is.
func (r *Runner) cell(m MethodName, key string, g *graph.Graph, k int) *cell {
	k = min(k, g.NumVertices())
	ck := fmt.Sprintf("%s|%s|%d", key, m, k)
	if c, ok := r.cells[ck]; ok {
		return c
	}
	c := &cell{BuildResult: buildMethod(m, g, k, r.cfg.BuildBudget, r.cfg.Workers), g: g, seed: r.cfg.Seed,
		budget: r.cfg.BuildBudget, qt: map[int]time.Duration{}, cov: map[int]float64{}}
	r.cells[ck] = c
	rec := RecordedBuild{
		Key:          key,
		Method:       string(m),
		Landmarks:    k,
		DNF:          c.DNF,
		Reason:       c.DNFReason,
		CTSeconds:    c.CT.Seconds(),
		Entries:      c.Stats.NumEntries,
		AvgLabelSize: c.Stats.AvgLabelSize,
		SizeBytes:    c.Stats.SizeBytes,
	}
	if c.DNF {
		rec.BudgetSeconds = r.cfg.BuildBudget.Seconds()
	}
	r.results = append(r.results, rec)
	return c
}

// queryPairs is how many pairs m's query time is taken over: the slow
// methods get SlowPairs.
func (r *Runner) queryPairs(m MethodName) int {
	if m == MethodISL || m == MethodBiBFS {
		return r.cfg.SlowPairs
	}
	return r.cfg.Pairs
}

// coveragePairs is how many pairs Figure 9 and Ablation B take.
func (r *Runner) coveragePairs() int { return min(r.cfg.Pairs, 20_000) }

// Table1 reproduces Table 1: the statistics of the 12 stand-in datasets.
func (r *Runner) Table1() error {
	return r.table("Table 1: datasets (synthetic stand-ins; paper scale in brackets)",
		"Dataset\tType\tn\tm\tm/n\tavg.deg\tmax.deg\t|G|\t[paper n]\t[paper m]",
		func(d datasets.Dataset, g *graph.Graph) []string {
			st := d.Describe(g)
			return []string{fmt.Sprintf("%s\t%s\t%d\t%d\t%.1f\t%.3f\t%d\t%s\t%s\t%s", st.Name, st.Type, st.N, st.M,
				st.MOverN, st.AvgDeg, st.MaxDeg, fmtBytes(st.SizeBytes), st.PaperN, st.PaperM)}
		})
}

// Table2 reproduces Table 2: construction time (HL-P, HL, FD, PLL, IS-L),
// average query time (HL, FD, PLL, IS-L, Bi-BFS) and average label size.
func (r *Runner) Table2() error {
	return r.table(fmt.Sprintf("Table 2: construction time, query time, label size (k=%d, %d pairs, %d slow pairs, budget %s)",
		r.cfg.Landmarks, r.cfg.Pairs, r.cfg.SlowPairs, r.cfg.BuildBudget),
		"Dataset\tCT[HL-P]\tCT[HL]\tCT[FD]\tCT[PLL]\tCT[IS-L]\tQT[HL]\tQT[FD]\tQT[PLL]\tQT[IS-L]\tQT[Bi-BFS]\tALS[HL]\tALS[FD]\tALS[PLL]\tALS[IS-L]",
		func(d datasets.Dataset, g *graph.Graph) []string {
			at := func(m MethodName) *cell { return r.cell(m, d.Name, g, r.cfg.Landmarks) }
			row := []string{d.Name}
			for _, m := range []MethodName{MethodHLP, MethodHL, MethodFD, MethodPLL, MethodISL} {
				row = append(row, fmtCT(at(m)))
			}
			for _, m := range []MethodName{MethodHL, MethodFD, MethodPLL, MethodISL, MethodBiBFS} {
				row = append(row, at(m).fmtQT(r.queryPairs(m)))
			}
			for _, m := range []MethodName{MethodHL, MethodFD, MethodPLL, MethodISL} {
				row = append(row, fmtALS(at(m)))
			}
			return []string{strings.Join(row, "\t")}
		})
}

// Table3 reproduces Table 3: labelling sizes of HL(8), HL, FD, PLL, IS-L.
func (r *Runner) Table3() error {
	return r.table(fmt.Sprintf("Table 3: labelling sizes (k=%d, budget %s)", r.cfg.Landmarks, r.cfg.BuildBudget),
		"Dataset\tHL(8)\tHL\tFD\tPLL\tIS-L",
		func(d datasets.Dataset, g *graph.Graph) []string {
			// HL(8) and HL share one build and differ only in accounting.
			hl := r.cell(MethodHLP, d.Name, g, r.cfg.Landmarks)
			row := []string{d.Name, fmtSize(hl, hl.Stats.Bytes8, "-"), fmtSize(hl, hl.Stats.SizeBytes, "-")}
			for _, m := range []MethodName{MethodFD, MethodPLL, MethodISL} {
				c := r.cell(m, d.Name, g, r.cfg.Landmarks)
				row = append(row, fmtSize(c, c.Stats.SizeBytes, "-"))
			}
			return []string{strings.Join(row, "\t")}
		})
}

// Fig1a reproduces Figure 1(a): query time vs labelling size per method.
func (r *Runner) Fig1a() error {
	return r.table(fmt.Sprintf("Figure 1(a): query time vs index size per method (k=%d)", r.cfg.Landmarks),
		"Dataset\tMethod\tIndexSize\tQT",
		func(d datasets.Dataset, g *graph.Graph) (rows []string) {
			for _, m := range []MethodName{MethodHL, MethodFD, MethodPLL, MethodISL, MethodBiBFS} {
				c := r.cell(m, d.Name, g, r.cfg.Landmarks)
				rows = append(rows, fmt.Sprintf("%s\t%s\t%s\t%s", d.Name, m, fmtSize(c, c.Stats.SizeBytes, "DNF"), c.fmtQT(r.queryPairs(m))))
			}
			return rows
		})
}

// Fig1b reproduces Figure 1(b): construction time vs network size. The
// sweep uses Barabási–Albert graphs of growing size; methods drop out as
// they hit the DNF budget, reproducing the paper's scalability ordering.
func (r *Runner) Fig1b() error {
	r.header(fmt.Sprintf("Figure 1(b): construction time vs network size (BA graphs, budget %s)", r.cfg.BuildBudget))
	tw := tabwriter.NewWriter(r.cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "n\tm\tCT[HL-P]\tCT[HL]\tCT[FD]\tCT[PLL]\tCT[IS-L]")
	for _, n := range []int{10_000, 30_000, 100_000, 300_000, 1_000_000} {
		n = max(n/r.cfg.Shrink, 100)
		g := gen.BarabasiAlbert(n, 5, 1000+int64(n))
		row := fmt.Sprintf("%d\t%d", g.NumVertices(), g.NumEdges())
		for _, m := range []MethodName{MethodHLP, MethodHL, MethodFD, MethodPLL, MethodISL} {
			row += "\t" + fmtCT(r.cell(m, fmt.Sprintf("fig1b-%d", n), g, r.cfg.Landmarks))
		}
		fmt.Fprintln(tw, row)
		r.progress(fmt.Sprintf("n=%d", n))
	}
	return tw.Flush()
}

// Fig6 reproduces Figure 6: the distance distribution of the sampled
// pairs on every dataset, answered by the HL cell.
func (r *Runner) Fig6() error {
	return r.table(fmt.Sprintf("Figure 6: distance distribution of %d random pairs", r.cfg.Pairs),
		"Dataset\tmean\tdistribution (fraction per distance)",
		func(d datasets.Dataset, g *graph.Graph) []string {
			c := r.cell(MethodHL, d.Name, g, r.cfg.Landmarks)
			if c.DNF {
				return []string{d.Name + "\tDNF\t-"}
			}
			dist := workload.DistanceDistribution(c.oracle(), c.pairs(r.cfg.Pairs))
			return []string{fmt.Sprintf("%s\t%.2f\t%s", d.Name, dist.Mean(), dist.String())}
		})
}

// landmarkSweep is the Figure 7-9 x axis.
var landmarkSweep = []int{10, 20, 30, 40, 50}

// Fig7 reproduces Figure 7: construction time (a-d) and query time (e-g)
// of HL under 10-50 landmarks.
func (r *Runner) Fig7() error {
	return r.table("Figure 7: HL construction and query time vs #landmarks", "Dataset\tk\tCT[HL]\tQT[HL]",
		func(d datasets.Dataset, g *graph.Graph) (rows []string) {
			for _, k := range landmarkSweep {
				if k <= g.NumVertices() {
					c := r.cell(MethodHL, d.Name, g, k)
					rows = append(rows, fmt.Sprintf("%s\t%d\t%s\t%s", d.Name, k, fmtCT(c), c.fmtQT(r.queryPairs(MethodHL))))
				}
			}
			return rows
		})
}

// Fig8 reproduces Figure 8: HL labelling sizes under 10-50 landmarks
// against FD's size at the paper's 20 landmarks.
func (r *Runner) Fig8() error {
	return r.sweep("Figure 8: labelling sizes, HL-10..HL-50 vs FD-20", MethodFD, func(c *cell) string {
		return fmtSize(c, c.Stats.SizeBytes, "DNF")
	})
}

// Fig9 reproduces Figure 9: pair coverage ratios of HL under 10-50
// landmarks and of FD under 20. The paper's FD carries 64 bit-parallel
// neighbors per landmark, which is what lifts its coverage above HL's at
// equal k.
func (r *Runner) Fig9() error {
	return r.sweep("Figure 9: pair coverage ratio, HL-10..HL-50 vs FD-20", MethodFDBP, func(c *cell) string {
		if c.DNF {
			return "DNF"
		}
		return fmt.Sprintf("%.3f", c.coverage(r.coveragePairs()))
	})
}

// sweep prints one row a dataset: show of HL's cell at each k of the
// sweep ("-" past n), then of fd's at the paper's 20 landmarks.
func (r *Runner) sweep(title string, fd MethodName, show func(*cell) string) error {
	return r.table(title, "Dataset\tHL-10\tHL-20\tHL-30\tHL-40\tHL-50\tFD-20",
		func(d datasets.Dataset, g *graph.Graph) []string {
			row := []string{d.Name}
			for _, k := range landmarkSweep {
				if k > g.NumVertices() {
					row = append(row, "-")
				} else {
					row = append(row, show(r.cell(MethodHL, d.Name, g, k)))
				}
			}
			row = append(row, show(r.cell(fd, d.Name, g, 20)))
			return []string{strings.Join(row, "\t")}
		})
}
