// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section 6): Tables 1-3 and
// Figures 1, 6, 7, 8 and 9. Each experiment prints the same rows/series
// the paper reports, over the synthetic stand-in datasets of
// internal/datasets. cmd/hlbench is the CLI front end; bench_test.go at
// the repository root wraps each experiment as a testing.B benchmark.
package bench

import (
	"context"
	"errors"
	"fmt"
	"time"

	"highway/internal/bfs"
	"highway/internal/core"
	"highway/internal/fd"
	"highway/internal/graph"
	"highway/internal/isl"
	"highway/internal/method"
	"highway/internal/pll"
	"highway/internal/workload"
)

// MethodName identifies one competitor row/column in the tables. The
// names are the paper's display names; buildIndex maps each onto its
// package's build in the paper's configuration, except the online Bi-BFS
// baseline, which has no index to build.
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

	NumEntries int64
	ALS        float64
	SizeBytes  int64
	SizeBytes8 int64 // HL only: the paper's compressed accounting
	BPTrees    int   // bit-parallel trees (PLL's "+50", FD+BP's per-landmark trees)

	// NewSearcher returns a single-goroutine exact-distance oracle.
	NewSearcher func() workload.Oracle
	// Bounder exposes the method's label upper bound (every indexed
	// method implements one; nil only for Bi-BFS).
	Bounder workload.Bounder
}

// buildIndex builds one competitor in the paper's configuration of it,
// cancelled with ctx.
func buildIndex(ctx context.Context, m MethodName, g *graph.Graph, landmarks []int32, workers int) (method.DistanceIndex, error) {
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

// buildMethod runs one method under a wall-clock budget; only the online
// Bi-BFS baseline is special-cased, having no index.
func buildMethod(m MethodName, g *graph.Graph, landmarks []int32, budget time.Duration, workers int) BuildResult {
	if m == MethodBiBFS {
		return BuildResult{
			Method: m,
			NewSearcher: func() workload.Oracle {
				sc := bfs.NewScratch(g.NumVertices())
				return workload.OracleFunc(func(s, t int32) int32 {
					return bfs.BiBFS(g, s, t, sc)
				})
			},
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	ix, err := buildIndex(ctx, m, g, landmarks, workers)
	if err != nil {
		reason := err.Error()
		if errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
			reason = fmt.Sprintf("build budget %s exceeded", budget)
		}
		return BuildResult{Method: m, DNF: true, DNFReason: reason, CT: time.Since(start)}
	}
	st := ix.Stats()
	return BuildResult{
		Method:     m,
		CT:         time.Since(start),
		NumEntries: st.NumEntries,
		ALS:        st.AvgLabelSize,
		SizeBytes:  st.SizeBytes,
		SizeBytes8: st.Bytes8,
		BPTrees:    st.BPTrees,
		Bounder:    ix,
		NewSearcher: func() workload.Oracle {
			return ix.NewSearcher()
		},
	}
}

// measureQueries returns the average query latency over the pairs.
func measureQueries(o workload.Oracle, pairs []workload.Pair) time.Duration {
	if len(pairs) == 0 {
		return 0
	}
	start := time.Now()
	for _, p := range pairs {
		o.Distance(p.S, p.T)
	}
	return time.Since(start) / time.Duration(len(pairs))
}

// fmtDur renders a duration like the paper's tables: seconds for
// construction, milliseconds for queries.
func fmtCT(r BuildResult) string {
	if r.DNF {
		return "DNF"
	}
	return fmt.Sprintf("%.3fs", r.CT.Seconds())
}

func fmtQT(d time.Duration, dnf bool) string {
	if dnf {
		return "-"
	}
	return fmt.Sprintf("%.4fms", float64(d.Nanoseconds())/1e6)
}

func fmtALS(r BuildResult) string {
	if r.DNF {
		return "-"
	}
	if r.BPTrees > 0 {
		return fmt.Sprintf("%.1f+%d", r.ALS, r.BPTrees)
	}
	return fmt.Sprintf("%.1f", r.ALS)
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
