package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// jsonMetric is a per-layer entry of BENCHMARK.json: no bound key.
type jsonMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// manifest renders BENCHMARK.json from the catalogue, so the file at
// the repository root is generated, not maintained by hand:
// "benchmark manifest > BENCHMARK.json".
func manifest() []byte {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	// The per-layer entries have no bound key at all; the end-to-end ones
	// always do.
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	doc := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []bounded       `json:"end_to_end"`
		PerLayer   []jsonMetric    `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, wl := range workloads {
		doc.Workloads = append(doc.Workloads, workloadEntry{wl.Name, wl.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, jsonMetric{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	return append(data, '\n')
}

func readResult(path string) resultFile {
	var f resultFile
	if err := json.Unmarshal(must(os.ReadFile(path)), &f); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return f
}

func compareFiles(a, b string) int {
	return compare(readResult(a), readResult(b), false)
}

// verdict judges one workload-level cell of b against a. worse and better
// mean the medians differ by more than the bound in that direction; when
// either side's own spread (the quartile distance of its per-cycle
// values, as a share of their median) is wider than the bound the cell
// is unresolved rather than unchanged.
func verdict(a, b cell, m metricDef) string {
	if a.Value == 0 {
		return "unresolved"
	}
	change := (b.Value - a.Value) / a.Value
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return "worse"
	case a.Spread > m.Bound || b.Spread > m.Bound:
		return "unresolved"
	case change < -m.Bound:
		return "better"
	}
	return "unchanged"
}

type runKey struct {
	workload string
	traced   bool
}

func indexRuns(f resultFile) map[runKey]runResult {
	m := map[runKey]runResult{}
	for _, r := range f.Runs {
		m[runKey{r.Workload, r.Traced}] = r
	}
	return m
}

// compare prints a verdict for every (workload, workload-level metric)
// cell of b against a, judged by the bounds in the catalogue (which
// BENCHMARK.json repeats for the metrics the driver enforces one on),
// compares the failure shares, and with exact set also requires the
// checksums, op counts and exact-count layer metrics to be identical,
// and lets only the driver-enforced metrics decide (the A/A check). A run or a
// metric that only one side has is an error, not a verdict: a partial
// result file must not read as "no regression". It returns 1 if
// anything that decides is worse, missing, or differs where it must be
// identical, and 0 otherwise.
func compare(a, b resultFile, exact bool) int {
	ra, rb := indexRuns(a), indexRuns(b)
	bad := 0
	var missing []string
	for k := range ra {
		if _, ok := rb[k]; !ok {
			missing = append(missing, fmt.Sprintf("MISSING %s (%s): only the first file has this run", k.workload, modeName(k.traced)))
		}
	}
	for k := range rb {
		if _, ok := ra[k]; !ok {
			missing = append(missing, fmt.Sprintf("MISSING %s (%s): only the second file has this run", k.workload, modeName(k.traced)))
		}
	}
	sort.Strings(missing)
	for _, line := range missing {
		bad = 1
		fmt.Println(line)
	}
	counts := map[string]int{}
	fmt.Printf("\n%-14s %-14s %14s %14s %8s %7s %15s  %s\n", "workload", "metric", "a", "b", "change", "bound", "spread a / b", "verdict")
	for _, wl := range workloads {
		x, okA := ra[runKey{wl.Name, false}]
		y, okB := rb[runKey{wl.Name, false}]
		if !okA || !okB {
			continue // neither has it, or reported as MISSING above
		}
		for _, d := range workloadLevel {
			ca, okA := x.Metrics[d.Name]
			cb, okB := y.Metrics[d.Name]
			if !okA || !okB {
				bad = 1
				fmt.Printf("MISSING %s %s: not in both files\n", wl.Name, d.Name)
				continue
			}
			v := verdict(ca, cb, d)
			counts[v]++
			// Between two runs of the same code a metric without an enforced
			// bound comes out worse with the host's weather; it is printed,
			// and only the enforced ones decide the A/A check.
			if v == "worse" && (!exact || enforced[d.Name]) {
				bad = 1
			}
			fmt.Printf("%-14s %-14s %14.6g %14.6g %+7.1f%% %6.2f%% %6.1f%% / %5.1f%%  %s\n", wl.Name, d.Name, ca.Value, cb.Value,
				(cb.Value-ca.Value)/ca.Value*100, d.Bound*100, ca.Spread*100, cb.Spread*100, v)
		}
		fa, fb := float64(x.Failed)/float64(max(x.Attempted, 1)), float64(y.Failed)/float64(max(y.Attempted, 1))
		v := "unchanged"
		if fb > fa {
			v, bad = "worse", 1
		} else if fb < fa {
			v = "better"
		}
		counts[v]++
		fmt.Printf("%-14s %-14s %14.6g %14.6g %8s %7s %15s  %s\n", wl.Name, "failure_share", fa, fb, "", "", "", v)
	}
	if len(ra) == 0 || len(rb) == 0 {
		bad = 1
		fmt.Println("MISSING: a result file holds no runs")
	}
	if exact {
		for k, x := range ra {
			y, ok := rb[k]
			if !ok {
				continue
			}
			var diffs []string
			for name, want := range x.Exact {
				if got := y.Exact[name]; got != want {
					diffs = append(diffs, fmt.Sprintf("%s: %s vs %s", name, want, got))
				}
			}
			for _, name := range exactMetrics {
				if ca, ok := x.Metrics[name]; ok && ca.Value != y.Metrics[name].Value {
					diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", name, ca.Value, y.Metrics[name].Value))
				}
			}
			sort.Strings(diffs)
			for _, d := range diffs {
				bad = 1
				fmt.Printf("NOT IDENTICAL %s (%s) %s\n", k.workload, modeName(k.traced), d)
			}
		}
	}
	fmt.Printf("\n%d better, %d worse, %d unchanged, %d unresolved\n", counts["better"], counts["worse"], counts["unchanged"], counts["unresolved"])
	return bad
}

// exactMetrics are the metrics that are counts made by the program or
// sizes of its output: they repeat exactly for a seed.
var exactMetrics = []string{
	"index_bytes",
	"core.build.edges_scanned", "core.build.bottomup_share", "core.index.entries", "core.index.als",
	"core.query.covered_ratio", "wal.bytes_per_op", "cluster.snapshot.bytes",
	"dynhl.apply.landmarks_rebuilt_per_batch", "dynhl.apply.repair_share",
}

// enforced are the metrics the driver enforces a bound on.
var enforced = func() map[string]bool {
	m := map[string]bool{}
	for _, d := range endToEnd {
		m[d.Name] = true
	}
	return m
}()
