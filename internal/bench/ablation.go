package bench

import (
	"fmt"
	"text/tabwriter"

	"highway/internal/core"
	"highway/internal/workload"
)

// The ablation experiment goes beyond the paper's published evaluation:
// it isolates the two halves of the query framework, timing label-only
// upper bounds (approximate) against the full bounded search (exact) and
// reporting how often the bound is already exact (the pair coverage of
// Figure 9 seen from the latency side).

// AblationBounds times the offline half of a query (label upper bound)
// against the full exact query, and reports the fraction of pairs where
// the bound is already exact.
func (r *Runner) AblationBounds() error {
	r.header(fmt.Sprintf("Ablation B: label-only bound vs full bounded query (k=%d)", r.cfg.Landmarks))
	tw := tabwriter.NewWriter(r.cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tQT[bound only]\tQT[full query]\tbound==exact")
	for _, d := range r.selected() {
		g := d.Load(r.cfg.Shrink)
		lm := r.landmarksFor(g, r.cfg.Landmarks)
		ix, err := core.BuildParallel(g, lm)
		if err != nil {
			return fmt.Errorf("ablation: %s: %w", d.Name, err)
		}
		pairs := workload.RandomPairs(g, min(r.cfg.Pairs, 20_000), r.cfg.Seed)
		sr := ix.NewSearcher()
		qtBound := measureQueries(workload.OracleFunc(sr.UpperBound), pairs)
		qtFull := measureQueries(workload.OracleFunc(sr.Distance), pairs)
		cov := workload.PairCoverage(ix, workload.OracleFunc(sr.Distance), pairs)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.3f\n", d.Name, fmtQT(qtBound, false), fmtQT(qtFull, false), cov)
		r.progress(d.Name)
	}
	return tw.Flush()
}
