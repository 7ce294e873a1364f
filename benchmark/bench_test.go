package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// The harness's own tests: every workload on a BA-2k fixture with tiny
// counts. This module is nested (it has its own go.mod), so the
// repository's "go test ./..." does not reach it; run "go test" here.

var fxTest = fixtureSpec{Name: "ba2k", Family: "ba", N: 2_000, Attach: 3, K: 8, GenSeed: 42, Builds: 9}

// small is wl on the test fixture with counts a few hundredths of the
// real ones.
func small(wl *workloadDef) *workloadDef {
	c := *wl
	c.Fixture = fxTest
	return &c
}

func runSmall(t *testing.T, wl *workloadDef, seed int64, trace string) runResult {
	t.Helper()
	return runWorkload(small(wl), options{seed: seed, seconds: 0.1, rounds: 2, trace: trace, out: t.TempDir()})
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, res runResult, want []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics reported, catalogue has %d", res.Workload, len(res.Metrics), len(want))
	}
	for _, d := range want {
		c, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", res.Workload, d.Name)
		case c.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, want %q", res.Workload, d.Name, c.Unit, d.Unit)
		case math.IsNaN(c.Value) || math.IsInf(c.Value, 0):
			t.Errorf("%s: %s = %v", res.Workload, d.Name, c.Value)
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", res.Workload, res.Correct, res.Attempted, res.Failed, res.Failures)
	}
}

// checkLastLine requires the driver's line to hold exactly the
// manifest's list for the kind of run.
func checkLastLine(t *testing.T, res runResult, want []metricDef) {
	t.Helper()
	line := lastLineOf(res)
	if len(line.Metrics) != len(want) {
		t.Errorf("%s: last line holds %d metrics, the manifest lists %d", res.Workload, len(line.Metrics), len(want))
	}
	for _, d := range want {
		if v, ok := line.Metrics[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("%s: last line has %s = %+v (present: %v), want unit %q", res.Workload, d.Name, v, ok, d.Unit)
		}
	}
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		res := runSmall(t, wl, 42, "0")
		checkMetrics(t, res, workloadLevel)
		for _, d := range workloadLevel {
			if res.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: workload-level metric %s = %v, must never be 0", wl.Name, d.Name, res.Metrics[d.Name].Value)
			}
		}
		checkLastLine(t, res, endToEnd)
	}
}

func TestTracedRunAndSpanTrees(t *testing.T) {
	for _, wl := range workloads {
		out := t.TempDir()
		res := runWorkload(small(wl), options{seed: 42, seconds: 0.1, rounds: 2, trace: "1", out: out})
		checkMetrics(t, res, append(append([]metricDef(nil), workloadLevel...), ladder...))
		checkLastLine(t, res, perLayer)

		// The ladder closes by construction. Where the workload owns the
		// rungs, and so walks them at more than a handful of requests, no
		// term is negative.
		m := func(name string) float64 { return res.Metrics[name].Value }
		sum := m("core.query.us") + m("serve.inproc.self_us") + m("wire.point.codec_us") + m("binary.point.self_us")
		if math.Abs(sum-m("binary.point.rtt_us")) > 1e-6 {
			t.Errorf("%s: ladder does not close: %v != %v", wl.Name, sum, m("binary.point.rtt_us"))
		}
		if wl.Name == "point-ba" {
			for _, name := range []string{"core.query.us", "wire.point.codec_us", "binary.point.self_us"} {
				if m(name) <= 0 {
					t.Errorf("%s: %s = %v, want > 0", wl.Name, name, m(name))
				}
			}
		}

		var tf traceFile
		data, err := os.ReadFile(filepath.Join(out, wl.Name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatal(err)
		}
		rec := &recorder{spans: tf.Spans}
		if err := rec.validate(); err != nil {
			t.Errorf("%s: %v", wl.Name, err)
		}
		if len(tf.Spans) == 0 || tf.Summary["write.batch"].Count == 0 || tf.Summary["wal.append"].Count != tf.Summary["write.batch"].Count {
			t.Errorf("%s: trace has %d spans, write.batch %+v, wal.append %+v", wl.Name, len(tf.Spans), tf.Summary["write.batch"], tf.Summary["wal.append"])
		}
		// One request id per tree: roots have distinct ids.
		roots := map[int64]bool{}
		for _, s := range tf.Spans {
			if s.Parent < 0 {
				if roots[s.Req] {
					t.Errorf("%s: request id %d is shared by two span trees", wl.Name, s.Req)
					break
				}
				roots[s.Req] = true
			}
		}
	}
}

func TestValidateRejectsMalformedTrees(t *testing.T) {
	for name, spans := range map[string][]span{
		"child outside parent": {{ID: 0, Parent: -1, Req: 1, Start: 10, End: 20}, {ID: 1, Parent: 0, Req: 1, Start: 5, End: 15}},
		"request id differs":   {{ID: 0, Parent: -1, Req: 1, Start: 10, End: 20}, {ID: 1, Parent: 0, Req: 2, Start: 12, End: 15}},
		"never ended":          {{ID: 0, Parent: -1, Req: 1, Start: 10, End: -1}},
	} {
		if err := (&recorder{spans: spans}).validate(); err == nil {
			t.Errorf("%s: validate accepted it", name)
		}
	}
	// Overlapping children are covered once: self = 10 - (2..8) = 4.
	parent := span{ID: 0, Parent: -1, Start: 0, End: 10}
	kids := []span{{Start: 2, End: 6}, {Start: 4, End: 8}}
	if got := selfNs(parent, kids); got != 4 {
		t.Errorf("selfNs = %d, want 4", got)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			a, b, c := runSmall(t, wl, 7, trace), runSmall(t, wl, 7, trace), runSmall(t, wl, 8, trace)
			if !reflect.DeepEqual(a.Exact, b.Exact) {
				t.Errorf("%s trace=%s: same seed, different checksums or op counts:\n%v\n%v", wl.Name, trace, a.Exact, b.Exact)
			}
			if reflect.DeepEqual(a.Exact, c.Exact) {
				t.Errorf("%s trace=%s: different seeds gave the same checksums: %v", wl.Name, trace, a.Exact)
			}
			for _, name := range exactMetrics {
				if ca, ok := a.Metrics[name]; ok && ca.Value != b.Metrics[name].Value {
					t.Errorf("%s: exact metric %s differs for one seed: %v vs %v", wl.Name, name, ca.Value, b.Metrics[name].Value)
				}
			}
		}
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(manifest()) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with: go run . manifest > ../BENCHMARK.json")
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, wl := range workloads {
		check("workload", wl.Name)
		if len(wl.Why) > 200 {
			t.Errorf("%s: why has %d characters", wl.Name, len(wl.Why))
		}
	}
	for _, d := range endToEnd {
		check("metric", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		check("metric", d.Name)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) > 8 {
		t.Errorf("%d end-to-end, %d per-layer, %d workloads exceed the contract's limits", len(endToEnd), len(perLayer), len(workloads))
	}
}

func TestCompareRejectsPartialFiles(t *testing.T) {
	run := runResult{Workload: "point-ba", Correct: true, Attempted: 1, Metrics: map[string]cell{}}
	for _, d := range workloadLevel {
		run.Metrics[d.Name] = cell{Value: 1, Unit: d.Unit}
	}
	full := resultFile{Runs: []runResult{run}}
	if got := compare(full, full, false); got != 0 {
		t.Errorf("a file against itself: exit %d, want 0", got)
	}
	if got := compare(full, resultFile{}, false); got != 1 {
		t.Errorf("a workload missing from the second file: exit %d, want 1", got)
	}
	if got := compare(resultFile{}, full, false); got != 1 {
		t.Errorf("a workload missing from the first file: exit %d, want 1", got)
	}
	short := run
	short.Metrics = map[string]cell{"setup_s": {Value: 1, Unit: "s"}}
	if got := compare(full, resultFile{Runs: []runResult{short}}, false); got != 1 {
		t.Errorf("metrics missing from the second file: exit %d, want 1", got)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "y", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		a, b cell
		m    metricDef
		want string
	}{
		{cell{Value: 100}, cell{Value: 105}, lower, "unchanged"},
		{cell{Value: 100}, cell{Value: 115}, lower, "worse"},
		{cell{Value: 100}, cell{Value: 85}, lower, "better"},
		{cell{Value: 100}, cell{Value: 85}, higher, "worse"},
		{cell{Value: 100}, cell{Value: 115}, higher, "better"},
		{cell{Value: 100, Spread: 0.2}, cell{Value: 105}, lower, "unresolved"},
		{cell{Value: 100, Spread: 0.2}, cell{Value: 130}, lower, "worse"},
	} {
		if got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("verdict(%v, %v, %s) = %s, want %s", c.a.Value, c.b.Value, c.m.Better, got, c.want)
		}
	}
}
