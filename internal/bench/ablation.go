package bench

import (
	"fmt"

	"highway/internal/datasets"
	"highway/internal/graph"
	"highway/internal/workload"
)

// The ablation experiment goes beyond the paper's published evaluation:
// it isolates the two halves of the query framework, timing label-only
// upper bounds (approximate) against the full bounded search (exact) and
// reporting how often the bound is already exact (the pair coverage of
// Figure 9 seen from the latency side).

// AblationBounds times the offline half of a query (label upper bound)
// against the full exact query of the HL cell, and reports the fraction
// of pairs where the bound is already exact.
func (r *Runner) AblationBounds() error {
	return r.table(fmt.Sprintf("Ablation B: label-only bound vs full bounded query (k=%d)", r.cfg.Landmarks),
		"Dataset\tQT[bound only]\tQT[full query]\tbound==exact",
		func(d datasets.Dataset, g *graph.Graph) []string {
			c, n := r.cell(MethodHL, d.Name, g, r.cfg.Landmarks), r.coveragePairs()
			if c.DNF {
				return []string{d.Name + "\tDNF\t-\t-"}
			}
			bound := measureQueries(workload.OracleFunc(c.Index.NewSearcher().UpperBound), c.pairs(n), c.budget)
			return []string{fmt.Sprintf("%s\t%s\t%s\t%.3f", d.Name, fmtQT(bound), fmtQT(c.queryTime(n)), c.coverage(n))}
		})
}
