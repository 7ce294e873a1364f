// Package bench is the evaluation harness behind cmd/hlbench: it
// re-runs the paper's experiments — the dataset statistics of Table 1,
// the construction/query/size comparisons of Tables 2-3, the speedup
// and scaling curves of Figures 1 and 6-9 — over the synthetic stand-in
// datasets of internal/datasets, plus the ablation study DESIGN.md
// calls out (bound-only vs full queries). Each experiment id maps to one
// Runner method; see DESIGN.md for the per-experiment index (what each
// id reproduces, which methods and measurements it involves) and
// EXPERIMENTS.md for recorded runs next to the paper's published
// numbers.
//
// Methods that exceed the per-run build budget are reported as DNF
// rather than aborting the whole table, mirroring how the paper reports
// timeouts on its largest datasets. Build results are cached per
// (dataset, method, k) so experiments sharing a build pay for it once.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"highway/internal/core"
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

// Runner executes experiments over a fixed config. Build results
// (including DNFs) are cached per (dataset, method, k) so that
// experiments sharing a build pay for it once.
type Runner struct {
	cfg     Config
	cache   map[string]BuildResult
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
	for _, name := range cfg.Datasets {
		if _, err := datasets.ByName(name); err != nil {
			return nil, err
		}
	}
	return &Runner{cfg: cfg, cache: map[string]BuildResult{}}, nil
}

// Experiments maps experiment ids to their runner methods; Run resolves
// ids through it. Order mirrors the paper.
var experimentOrder = []string{"table1", "fig6", "table2", "table3", "fig1a", "fig1b", "fig7", "fig8", "fig9", "ablation"}

// ExperimentIDs lists the known experiment ids in canonical order.
func ExperimentIDs() []string { return append([]string(nil), experimentOrder...) }

// Run executes the named experiments ("all" runs every one).
func (r *Runner) Run(ids []string) error {
	if len(ids) == 1 && ids[0] == "all" {
		ids = ExperimentIDs()
	}
	for _, id := range ids {
		var err error
		switch id {
		case "table1":
			err = r.Table1()
		case "table2":
			err = r.Table2()
		case "table3":
			err = r.Table3()
		case "fig1a":
			err = r.Fig1a()
		case "fig1b":
			err = r.Fig1b()
		case "fig6":
			err = r.Fig6()
		case "fig7":
			err = r.Fig7()
		case "fig8":
			err = r.Fig8()
		case "fig9":
			err = r.Fig9()
		case "ablation":
			err = r.AblationBounds()
		default:
			err = fmt.Errorf("bench: unknown experiment %q (known: %v)", id, ExperimentIDs())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *Runner) selected() []datasets.Dataset {
	if len(r.cfg.Datasets) == 0 {
		return datasets.Registry
	}
	var out []datasets.Dataset
	for _, name := range r.cfg.Datasets {
		d, err := datasets.ByName(name)
		if err != nil {
			panic(err) // validated in NewRunner
		}
		out = append(out, d)
	}
	return out
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

// landmarksFor returns g's min(k, n) highest-degree vertices, as
// landmark.Select picks them: k exceeds n only on degenerate shrink
// settings, and NewRunner keeps k ≥ 1.
func (r *Runner) landmarksFor(g *graph.Graph, k int) []int32 {
	return g.DegreeOrder()[:min(k, g.NumVertices())]
}

// build runs a method through the per-runner cache. key identifies the
// graph (dataset name or sweep point); the landmark count is part of the
// cache key so the Figure 7-9 sweeps cache per k.
func (r *Runner) build(m MethodName, key string, g *graph.Graph, lm []int32) BuildResult {
	ck := fmt.Sprintf("%s|%s|%d", key, m, len(lm))
	if res, ok := r.cache[ck]; ok {
		return res
	}
	workers := 1
	if m == MethodHLP {
		workers = r.cfg.Workers
	}
	res := buildMethod(m, g, lm, r.cfg.BuildBudget, workers)
	r.cache[ck] = res
	rec := RecordedBuild{
		Key:          key,
		Method:       string(m),
		Landmarks:    len(lm),
		DNF:          res.DNF,
		Reason:       res.DNFReason,
		CTSeconds:    res.CT.Seconds(),
		Entries:      res.NumEntries,
		AvgLabelSize: res.ALS,
		SizeBytes:    res.SizeBytes,
	}
	if res.DNF {
		rec.BudgetSeconds = r.cfg.BuildBudget.Seconds()
	}
	r.results = append(r.results, rec)
	return res
}

// Table1 reproduces Table 1: the statistics of the 12 stand-in datasets.
func (r *Runner) Table1() error {
	r.header("Table 1: datasets (synthetic stand-ins; paper scale in brackets)")
	tw := tabwriter.NewWriter(r.cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tType\tn\tm\tm/n\tavg.deg\tmax.deg\t|G|\t[paper n]\t[paper m]")
	for _, d := range r.selected() {
		g := d.Load(r.cfg.Shrink)
		st := d.Describe(g)
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.1f\t%.3f\t%d\t%s\t%s\t%s\n",
			st.Name, st.Type, st.N, st.M, st.MOverN, st.AvgDeg, st.MaxDeg,
			fmtBytes(st.SizeBytes), st.PaperN, st.PaperM)
	}
	return tw.Flush()
}

// Table2 reproduces Table 2: construction time (HL-P, HL, FD, PLL, IS-L),
// average query time (HL, FD, PLL, IS-L, Bi-BFS) and average label size.
func (r *Runner) Table2() error {
	r.header(fmt.Sprintf("Table 2: construction time, query time, label size (k=%d, %d pairs, %d slow pairs, budget %s)",
		r.cfg.Landmarks, r.cfg.Pairs, r.cfg.SlowPairs, r.cfg.BuildBudget))
	tw := tabwriter.NewWriter(r.cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tCT[HL-P]\tCT[HL]\tCT[FD]\tCT[PLL]\tCT[IS-L]\tQT[HL]\tQT[FD]\tQT[PLL]\tQT[IS-L]\tQT[Bi-BFS]\tALS[HL]\tALS[FD]\tALS[PLL]\tALS[IS-L]")
	for _, d := range r.selected() {
		g := d.Load(r.cfg.Shrink)
		lm := r.landmarksFor(g, r.cfg.Landmarks)
		pairs := workload.RandomPairs(g, r.cfg.Pairs, r.cfg.Seed)
		slow := workload.RandomPairs(g, r.cfg.SlowPairs, r.cfg.Seed)

		hlp := r.build(MethodHLP, d.Name, g, lm)
		hl := r.build(MethodHL, d.Name, g, lm)
		fdr := r.build(MethodFD, d.Name, g, lm)
		pllr := r.build(MethodPLL, d.Name, g, lm)
		islr := r.build(MethodISL, d.Name, g, lm)
		bi := r.build(MethodBiBFS, d.Name, g, lm)

		qt := func(res BuildResult, ps []workload.Pair) string {
			if res.DNF {
				return "-"
			}
			return fmtQT(measureQueries(res.NewSearcher(), ps), false)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			d.Name,
			fmtCT(hlp), fmtCT(hl), fmtCT(fdr), fmtCT(pllr), fmtCT(islr),
			qt(hl, pairs), qt(fdr, pairs), qt(pllr, pairs), qt(islr, slow), qt(bi, slow),
			fmtALS(hl), fmtALS(fdr), fmtALS(pllr), fmtALS(islr))
		r.progress(d.Name)
	}
	return tw.Flush()
}

// Table3 reproduces Table 3: labelling sizes of HL(8), HL, FD, PLL, IS-L.
func (r *Runner) Table3() error {
	r.header(fmt.Sprintf("Table 3: labelling sizes (k=%d, budget %s)", r.cfg.Landmarks, r.cfg.BuildBudget))
	tw := tabwriter.NewWriter(r.cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tHL(8)\tHL\tFD\tPLL\tIS-L")
	for _, d := range r.selected() {
		g := d.Load(r.cfg.Shrink)
		lm := r.landmarksFor(g, r.cfg.Landmarks)
		size := func(m MethodName) string {
			res := r.build(m, d.Name, g, lm)
			if res.DNF {
				return "-"
			}
			return fmtBytes(res.SizeBytes)
		}
		// HL(8) and HL share one build and differ only in accounting.
		hl8 := "-"
		hl := "-"
		if res := r.build(MethodHLP, d.Name, g, lm); !res.DNF {
			hl8 = fmtBytes(res.SizeBytes8)
			hl = fmtBytes(res.SizeBytes)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n",
			d.Name, hl8, hl, size(MethodFD), size(MethodPLL), size(MethodISL))
		r.progress(d.Name)
	}
	return tw.Flush()
}

// Fig1a reproduces Figure 1(a): query time vs labelling size per method.
func (r *Runner) Fig1a() error {
	r.header(fmt.Sprintf("Figure 1(a): query time vs index size per method (k=%d)", r.cfg.Landmarks))
	tw := tabwriter.NewWriter(r.cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tMethod\tIndexSize\tQT")
	for _, d := range r.selected() {
		g := d.Load(r.cfg.Shrink)
		lm := r.landmarksFor(g, r.cfg.Landmarks)
		pairs := workload.RandomPairs(g, r.cfg.Pairs, r.cfg.Seed)
		slow := workload.RandomPairs(g, r.cfg.SlowPairs, r.cfg.Seed)
		for _, m := range []MethodName{MethodHL, MethodFD, MethodPLL, MethodISL, MethodBiBFS} {
			res := r.build(m, d.Name, g, lm)
			if res.DNF {
				fmt.Fprintf(tw, "%s\t%s\tDNF\t-\n", d.Name, m)
				continue
			}
			ps := pairs
			if m == MethodISL || m == MethodBiBFS {
				ps = slow
			}
			qt := measureQueries(res.NewSearcher(), ps)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", d.Name, m, fmtBytes(res.SizeBytes), fmtQT(qt, false))
		}
		r.progress(d.Name)
	}
	return tw.Flush()
}

// Fig1b reproduces Figure 1(b): construction time vs network size. The
// sweep uses Barabási–Albert graphs of growing size; methods drop out as
// they hit the DNF budget, reproducing the paper's scalability ordering.
func (r *Runner) Fig1b() error {
	sizes := fig1bSizes(r.cfg.Shrink)
	r.header(fmt.Sprintf("Figure 1(b): construction time vs network size (BA graphs, budget %s)", r.cfg.BuildBudget))
	tw := tabwriter.NewWriter(r.cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "n\tm\tCT[HL-P]\tCT[HL]\tCT[FD]\tCT[PLL]\tCT[IS-L]")
	for _, n := range sizes {
		g := gen.BarabasiAlbert(n, 5, 1000+int64(n))
		lm := r.landmarksFor(g, r.cfg.Landmarks)
		row := []string{}
		for _, m := range []MethodName{MethodHLP, MethodHL, MethodFD, MethodPLL, MethodISL} {
			res := r.build(m, fmt.Sprintf("fig1b-%d", n), g, lm)
			row = append(row, fmtCT(res))
		}
		fmt.Fprintf(tw, "%d\t%d\t%s\t%s\t%s\t%s\t%s\n", g.NumVertices(), g.NumEdges(),
			row[0], row[1], row[2], row[3], row[4])
		r.progress(fmt.Sprintf("n=%d", n))
	}
	return tw.Flush()
}

func fig1bSizes(shrink int) []int {
	base := []int{10_000, 30_000, 100_000, 300_000, 1_000_000}
	out := make([]int, 0, len(base))
	for _, n := range base {
		n /= shrink
		if n < 100 {
			n = 100
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Fig6 reproduces Figure 6: the distance distribution of the sampled
// pairs on every dataset.
func (r *Runner) Fig6() error {
	r.header(fmt.Sprintf("Figure 6: distance distribution of %d random pairs", r.cfg.Pairs))
	tw := tabwriter.NewWriter(r.cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tmean\tdistribution (fraction per distance)")
	for _, d := range r.selected() {
		g := d.Load(r.cfg.Shrink)
		lm := r.landmarksFor(g, r.cfg.Landmarks)
		ix, err := core.BuildParallel(g, lm)
		if err != nil {
			return fmt.Errorf("fig6: %s: %w", d.Name, err)
		}
		sr := ix.NewSearcher()
		pairs := workload.RandomPairs(g, r.cfg.Pairs, r.cfg.Seed)
		dist := workload.DistanceDistribution(workload.OracleFunc(sr.Distance), pairs)
		fmt.Fprintf(tw, "%s\t%.2f\t%s\n", d.Name, dist.Mean(), dist.String())
		r.progress(d.Name)
	}
	return tw.Flush()
}

// landmarkSweep is the Figure 7-9 x axis.
var landmarkSweep = []int{10, 20, 30, 40, 50}

// Fig7 reproduces Figure 7: construction time (a-d) and query time (e-g)
// of HL under 10-50 landmarks.
func (r *Runner) Fig7() error {
	r.header("Figure 7: HL construction and query time vs #landmarks")
	tw := tabwriter.NewWriter(r.cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tk\tCT[HL]\tQT[HL]")
	for _, d := range r.selected() {
		g := d.Load(r.cfg.Shrink)
		pairs := workload.RandomPairs(g, r.cfg.Pairs, r.cfg.Seed)
		for _, k := range landmarkSweep {
			if k > g.NumVertices() {
				continue
			}
			lm := r.landmarksFor(g, k)
			res := r.build(MethodHL, d.Name, g, lm)
			if res.DNF {
				fmt.Fprintf(tw, "%s\t%d\tDNF\t-\n", d.Name, k)
				continue
			}
			qt := measureQueries(res.NewSearcher(), pairs)
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\n", d.Name, k, fmtCT(res), fmtQT(qt, false))
		}
		r.progress(d.Name)
	}
	return tw.Flush()
}

// Fig8 reproduces Figure 8: HL labelling sizes under 10-50 landmarks
// against FD's size at the paper's 20 landmarks.
func (r *Runner) Fig8() error {
	r.header("Figure 8: labelling sizes, HL-10..HL-50 vs FD-20")
	tw := tabwriter.NewWriter(r.cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tHL-10\tHL-20\tHL-30\tHL-40\tHL-50\tFD-20")
	for _, d := range r.selected() {
		g := d.Load(r.cfg.Shrink)
		row := d.Name
		for _, k := range landmarkSweep {
			if k > g.NumVertices() {
				row += "\t-"
				continue
			}
			res := r.build(MethodHL, d.Name, g, r.landmarksFor(g, k))
			if res.DNF {
				row += "\tDNF"
				continue
			}
			row += "\t" + fmtBytes(res.SizeBytes)
		}
		fdRes := r.build(MethodFD, d.Name, g, r.landmarksFor(g, 20))
		if fdRes.DNF {
			row += "\tDNF"
		} else {
			row += "\t" + fmtBytes(fdRes.SizeBytes)
		}
		fmt.Fprintln(tw, row)
		r.progress(d.Name)
	}
	return tw.Flush()
}

// Fig9 reproduces Figure 9: pair coverage ratios of HL under 10-50
// landmarks and of FD under 20.
func (r *Runner) Fig9() error {
	r.header("Figure 9: pair coverage ratio, HL-10..HL-50 vs FD-20")
	tw := tabwriter.NewWriter(r.cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tHL-10\tHL-20\tHL-30\tHL-40\tHL-50\tFD-20")
	for _, d := range r.selected() {
		g := d.Load(r.cfg.Shrink)
		pairs := workload.RandomPairs(g, min(r.cfg.Pairs, 20_000), r.cfg.Seed)
		row := d.Name
		for _, k := range landmarkSweep {
			if k > g.NumVertices() {
				row += "\t-"
				continue
			}
			res := r.build(MethodHL, d.Name, g, r.landmarksFor(g, k))
			if res.DNF {
				row += "\tDNF"
				continue
			}
			cov := workload.PairCoverage(res.Bounder, res.NewSearcher(), pairs)
			row += fmt.Sprintf("\t%.3f", cov)
		}
		// The paper's FD carries 64 bit-parallel neighbors per landmark,
		// which is what lifts its coverage above HL's at equal k.
		fdRes := r.build(MethodFDBP, d.Name, g, r.landmarksFor(g, 20))
		if fdRes.DNF {
			fmt.Fprintf(tw, "%s\tDNF\n", row)
		} else {
			cov := workload.PairCoverage(fdRes.Bounder, fdRes.NewSearcher(), pairs)
			fmt.Fprintf(tw, "%s\t%.3f\n", row, cov)
		}
		r.progress(d.Name)
	}
	return tw.Flush()
}
