package bench

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"highway/internal/bfs"
	"highway/internal/core"
	"highway/internal/fd"
	"highway/internal/graph"
	"highway/internal/isl"
	"highway/internal/landmark"
	"highway/internal/method"
	"highway/internal/pll"
	"highway/internal/workload"
)

// MethodName identifies one competitor row/column in the tables. The
// names are the paper's display names; Build maps each onto its package's
// build in the paper's configuration, except the online Bi-BFS baseline,
// which has no index to build.
type MethodName string

const (
	MethodHLP   MethodName = "HL-P"   // parallel highway labelling (ours)
	MethodHL    MethodName = "HL"     // sequential highway labelling (ours)
	MethodFD    MethodName = "FD"     // Hayashi et al. 2016
	MethodFDBP  MethodName = "FD+BP"  // FD with per-landmark bit-parallel trees ("20+64")
	MethodPLL   MethodName = "PLL"    // Akiba et al. 2013
	MethodISL   MethodName = "IS-L"   // Fu et al. 2013
	MethodBiBFS MethodName = "Bi-BFS" // online bidirectional BFS
)

// BuildResult captures one method's build on one graph, with the paper's
// DNF semantics: a build that exceeds its budget reports DNF and no
// index. DNFReason records WHY — "build budget 60s exceeded" for a
// timeout, the build error otherwise — so the JSON report (hlbench
// -json) can say which method timed out instead of leaving a blank row.
type BuildResult struct {
	Method MethodName
	CT     time.Duration
	DNF    bool
	// DNFReason is empty on success.
	DNFReason string

	// Index is the built labelling and Stats its summary; both are zero
	// on DNF and for Bi-BFS, which has no index.
	Index method.DistanceIndex
	Stats method.Stats
}

// Build builds one competitor in the paper's configuration of it,
// cancelled with ctx. Only HL-P uses workers.
func Build(ctx context.Context, m MethodName, g *graph.Graph, landmarks []int32, workers int) (method.DistanceIndex, error) {
	switch m {
	case MethodHLP:
		return core.BuildOpts(ctx, g, landmarks, core.Options{Workers: workers})
	case MethodHL:
		return core.BuildOpts(ctx, g, landmarks, core.Options{Workers: 1})
	case MethodFD:
		return fd.Build(ctx, g, landmarks)
	case MethodFDBP:
		return fd.BuildBP(ctx, g, landmarks)
	case MethodPLL:
		// The paper's PLL configuration: 50 bit-parallel trees plus the
		// pruned labelling (Section 6.2).
		return pll.BuildBP(ctx, g, 50)
	case MethodISL:
		return isl.Build(ctx, g, isl.DefaultOptions())
	default:
		panic(fmt.Sprintf("bench: unknown method %q", m))
	}
}

// buildMethod builds m on g's k highest-degree vertices under a
// wall-clock budget; the online Bi-BFS baseline builds nothing.
func buildMethod(m MethodName, g *graph.Graph, k int, budget time.Duration, workers int) BuildResult {
	res := BuildResult{Method: m}
	if m == MethodBiBFS {
		return res
	}
	lm, err := landmark.Select(g, landmark.Options{K: k})
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	if err == nil {
		res.Index, err = Build(ctx, m, g, lm, workers)
	}
	res.CT = time.Since(start)
	if err != nil {
		res.DNF, res.DNFReason = true, err.Error()
		if errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
			res.DNFReason = fmt.Sprintf("build budget %s exceeded", budget)
		}
		return res
	}
	res.Stats = res.Index.Stats()
	return res
}

// cell is one (graph, method, k) of the paper's tables: its build, and its
// query time and pair coverage memoized per pair count. A count of c pairs
// is the first c of the graph's one seeded stream, so every experiment
// that asks a cell for one count reads one measurement.
type cell struct {
	BuildResult
	g      *graph.Graph
	seed   int64
	budget time.Duration // the run's DNF budget, which also bounds query timing
	qt     map[int]time.Duration
	cov    map[int]float64
}

// pairs returns the first count pairs of the cell's graph's stream.
func (c *cell) pairs(count int) []workload.Pair {
	return workload.RandomPairs(c.g, count, c.seed)
}

// oracle returns a single-goroutine exact-distance oracle: the index's
// searcher, or an online bidirectional BFS for Bi-BFS.
func (c *cell) oracle() workload.Oracle {
	if c.Index != nil {
		return c.Index.NewSearcher()
	}
	sc := bfs.NewScratch(c.g.NumVertices())
	return workload.OracleFunc(func(s, t int32) int32 { return bfs.BiBFS(c.g, s, t, sc) })
}

// queryTime returns the mean exact query time over count pairs.
func (c *cell) queryTime(count int) time.Duration {
	if _, ok := c.qt[count]; !ok {
		c.qt[count] = measureQueries(c.oracle(), c.pairs(count), c.budget)
	}
	return c.qt[count]
}

// coverage returns the share of count pairs whose label bound is exact
// (Figure 9).
func (c *cell) coverage(count int) float64 {
	if _, ok := c.cov[count]; !ok {
		c.cov[count] = workload.PairCoverage(c.Index, c.oracle(), c.pairs(count))
	}
	return c.cov[count]
}

// fmtQT renders the cell's query time over count pairs, "-" for a DNF.
func (c *cell) fmtQT(count int) string {
	if c.DNF {
		return "-"
	}
	return fmtQT(c.queryTime(count))
}

// queryPasses is how many times measureQueries answers its pairs at
// most. One pass moves between runs by more than the digit a QT cell
// prints; the median of five does not.
const queryPasses = 5

// measureQueries returns the average query latency over the pairs, in
// the median of up to queryPasses passes over them (the lower middle one
// of an even count). It starts no pass once those run so far took longer
// than budget, so a slow method's cell costs about its budget, not five
// passes.
func measureQueries(o workload.Oracle, pairs []workload.Pair, budget time.Duration) time.Duration {
	if len(pairs) == 0 {
		return 0
	}
	var passes []time.Duration
	var spent time.Duration
	for len(passes) < queryPasses {
		start := time.Now()
		for _, p := range pairs {
			o.Distance(p.S, p.T)
		}
		pass := time.Since(start)
		passes = append(passes, pass)
		if spent += pass; spent > budget {
			break
		}
	}
	slices.Sort(passes)
	return passes[(len(passes)-1)/2] / time.Duration(len(pairs))
}

// fmtCT and fmtQT render durations like the paper's tables: seconds for
// construction, milliseconds for queries.
func fmtCT(c *cell) string {
	if c.DNF {
		return "DNF"
	}
	return fmt.Sprintf("%.3fs", c.CT.Seconds())
}

func fmtQT(d time.Duration) string {
	return fmt.Sprintf("%.4fms", float64(d.Nanoseconds())/1e6)
}

func fmtALS(c *cell) string {
	switch {
	case c.DNF:
		return "-"
	case c.Stats.BPTrees > 0:
		return fmt.Sprintf("%.1f+%d", c.Stats.AvgLabelSize, c.Stats.BPTrees)
	}
	return fmt.Sprintf("%.1f", c.Stats.AvgLabelSize)
}

// fmtSize renders b, a size of the cell's index, or dnf for a DNF.
func fmtSize(c *cell, b int64, dnf string) string {
	if c.DNF {
		return dnf
	}
	return fmtBytes(b)
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
