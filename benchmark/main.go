// Command benchmark is the one benchmark of the whole stack: five named
// workloads, each run untraced for the end-to-end metrics and traced for
// the per-layer ladder, with correctness gates inside the run. The
// catalogue, the load model and how to read the output are in
// benchmark/README.md; BENCHMARK.json at the repository root is the
// contract the driver runs it under.
//
//	benchmark                      every workload, untraced then traced
//	benchmark -workload point-ba   one workload in this process
//	benchmark compare a.json b.json
//	benchmark aa                   two full sets of runs, then compare
//	benchmark manifest             print BENCHMARK.json from the catalogue
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// untracedRounds and tracedRounds are how many cycles a run makes: each
// sets up from nothing and runs one round of every timed phase. A traced
// run makes fewer, because it walks the ladder as well and both must fit
// the same wall-clock budget.
const (
	untracedRounds = 9
	tracedRounds   = 5
)

// runSeconds is the -seconds the driver runs the benchmark at: the
// run_seconds of BENCHMARK.json. Request counts in the catalogue are
// stated at this value, and sized so that an untraced run of any
// workload then takes about that long on the 2-core host they were
// sized on.
const runSeconds = 20

// options are the harness's only flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	rounds   int
	trace    string
	out      string
}

func parseFlags(args []string) options {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload in this process and print its result as the last line (default: all, one child process each)")
	fs.Int64Var(&o.seed, "seed", 42, "every graph, pair stream and op stream is derived from this")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, fmt.Sprintf("scales the fixed request counts, which are stated at %d", runSeconds))
	fs.IntVar(&o.rounds, "rounds", 0, fmt.Sprintf("cycles of a run: each sets up from nothing and runs one round of every timed phase (default: %d untraced, %d traced)", untracedRounds, tracedRounds))
	fs.StringVar(&o.trace, "trace", "", "0 = untraced run, prints the end_to_end list; 1 = traced run (cycles, then the ladder), prints the per_layer list (default: 0 with -workload, else both)")
	fs.StringVar(&o.out, "out", "benchmark/out", "directory for result, trace and temp files")
	fs.Usage = func() { usage(fs) }
	// ExitOnError: a bad flag has already exited.
	_ = fs.Parse(args)
	if fs.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	if o.seconds <= 0 || o.rounds < 0 {
		fatal(fmt.Errorf("-seconds must be positive and -rounds not negative"))
	}
	switch o.trace {
	case "", "0", "1":
	default:
		fatal(fmt.Errorf("-trace takes 0 or 1, got %q", o.trace))
	}
	return o
}

func usage(fs *flag.FlagSet) {
	w := fs.Output()
	fmt.Fprintln(w, "usage: benchmark [flags] | benchmark compare <a.json> <b.json> | benchmark aa [flags] | benchmark manifest")
	fmt.Fprintln(w, "\nflags:")
	fs.PrintDefaults()
	fmt.Fprintf(w, "\nload model: closed loop, fixed request counts scaled by -seconds. A run is %d cycles (%d when traced, before the ladder);\n"+
		"a cycle sets up from nothing, then runs one round of every timed phase (10%% discarded warm-up, forced GC, the measured\n"+
		"requests) and every correctness gate. A metric is the median of its per-cycle values; its spread is their quartile\n"+
		"distance / median.\n", untracedRounds, tracedRounds)
	fmt.Fprintln(w, "\nworkloads (counts per client per cycle at the default -seconds):")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-14s %s\n", wl.Name, wl.Params)
		fmt.Fprintf(w, "  %-14s request (x%d): %s\n", "", wl.Req, wl.ReqDoc)
		side := fmt.Sprintf("(x%d)", wl.Side)
		if wl.Side == 0 {
			side = "(until the writer's round ends)"
		}
		fmt.Fprintf(w, "  %-14s side request %s: %s\n", "", side, wl.SideDoc)
		fmt.Fprintf(w, "  %-14s in-process query stream: %d pairs; traced ladder sections walked at full size: %v\n", "", wl.Queries, wl.Sections)
	}
	list := func(title string, defs []metricDef) {
		fmt.Fprintf(w, "\n%s:\n", title)
		for _, d := range defs {
			bound := ""
			if d.Bound > 0 {
				bound = fmt.Sprintf(", bound %g%%", d.Bound*100)
			}
			fmt.Fprintf(w, "  %-40s %-6s %s is better%s\n      %s\n", d.Name, d.Unit, d.Better, bound, d.Doc)
		}
	}
	list("end-to-end metrics with a bound the driver enforces (printed by an untraced run, every workload)", endToEnd)
	list("end-to-end metrics too unsteady on the sizing host to carry one; the bound is what compare judges them by\n"+
		"(measured by every run, tracing off; printed by a traced run)", unbounded)
	list(fmt.Sprintf("per-layer metrics (traced run, every workload, on its own fixture, the write and cluster sections on BA-20k\n"+
		"if that is smaller; rung sizes at full size: "+
		"%d single-pair requests, %d batch requests, %d live reads, %d writes;\n"+
		"an eighth of that on sections a workload does not own)",
		ladderPairs, ladderBatches, probeReads, probeWrites), ladder)
}

// runResult is one run of one workload, as written to the result files.
type runResult struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	WallS     float64           `json:"wall_s"`
	Metrics   map[string]cell   `json:"metrics"`
	Exact     map[string]string `json:"exact"`
}

// resultFile is the one schema of every file the harness writes.
type resultFile struct {
	Schema     int         `json:"schema"`
	Provenance provenance  `json:"provenance"`
	Runs       []runResult `json:"runs"`
}

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", " ")
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fatal(err)
	}
}

// lastLine is what the driver reads: exactly these keys.
type lastLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]lastValue `json:"metrics"`
}

type lastValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func modeName(traced bool) string {
	if traced {
		return "traced"
	}
	return "untraced"
}

func runFile(out, workload string, traced bool) string {
	return filepath.Join(out, workload+"."+modeName(traced)+".json")
}

// runWorkload runs one workload in this process.
func runWorkload(wl *workloadDef, o options) runResult {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatal(err)
	}
	tmp := must(os.MkdirTemp(o.out, "tmp-"+wl.Name+"-"))
	defer os.RemoveAll(tmp)
	traced := o.trace == "1"
	if o.rounds == 0 {
		o.rounds = untracedRounds
		if traced {
			o.rounds = tracedRounds
		}
	}
	e := &env{wl: wl, seed: o.seed, seconds: o.seconds, rounds: o.rounds, tmpDir: tmp,
		metrics: map[string]cell{}, cycles: map[string][]float64{}, exact: map[string]string{}}
	t0 := time.Now()
	// Both kinds of run measure the workload-level metrics, tracing off:
	// an untraced run prints the bounded ones, a traced run the rest.
	runCycles(e)
	want := endToEnd
	if traced {
		want = perLayer
		e.rec = newRecorder()
		runLadder(e)
		if err := e.rec.validate(); err != nil {
			e.check(false, "trace: %v", err)
		}
		if err := e.rec.write(filepath.Join(o.out, wl.Name+".trace.json"), wl.Name, o.seed); err != nil {
			fatal(err)
		}
	}
	for _, d := range want {
		if _, ok := e.metrics[d.Name]; !ok {
			fatal(fmt.Errorf("workload %s did not report %s", wl.Name, d.Name))
		}
	}
	res := runResult{Workload: wl.Name, Traced: traced, Attempted: e.attempted.Load(), Failed: e.failed.Load(),
		Failures: e.failures, WallS: since(t0), Metrics: e.metrics, Exact: e.exact}
	res.Correct = res.Failed == 0
	writeJSON(runFile(o.out, wl.Name, traced), resultFile{Schema: 1, Provenance: newProvenance(o.seed, o.seconds, o.rounds), Runs: []runResult{res}})
	return res
}

func lastLineOf(res runResult) lastLine {
	line := lastLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]lastValue{}}
	// The driver wants exactly the manifest's list for the kind of run.
	want := endToEnd
	if res.Traced {
		want = perLayer
	}
	for _, d := range want {
		c := res.Metrics[d.Name]
		line.Metrics[d.Name] = lastValue{c.Value, c.Unit}
	}
	return line
}

func printLastLine(res runResult) {
	data, err := json.Marshal(lastLineOf(res))
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

func printRun(res runResult) {
	fmt.Printf("\n== %s (%s): %d attempted, %d failed, %.1f s\n", res.Workload, modeName(res.Traced), res.Attempted, res.Failed, res.WallS)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := res.Metrics[name]
		fmt.Printf("  %-42s %16.6g %-6s spread %5.1f%% over %d  %s\n", name, c.Value, c.Unit, c.Spread*100, c.Rounds, c.Note)
	}
	for _, f := range res.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

// runAll runs every workload in its own child process, so peak RSS and
// GC state are per workload, and gathers the children's result files
// into one.
func runAll(o options, dest string) resultFile {
	self := must(os.Executable())
	modes := []string{"0", "1"}
	if o.trace != "" {
		modes = []string{o.trace}
	}
	all := resultFile{Schema: 1, Provenance: newProvenance(o.seed, o.seconds, o.rounds)}
	for _, mode := range modes {
		for _, wl := range workloads {
			cmd := exec.Command(self, "-workload", wl.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-rounds", fmt.Sprint(o.rounds), "-trace", mode, "-out", o.out)
			cmd.Stderr = os.Stderr
			if _, err := cmd.Output(); err != nil {
				fatal(fmt.Errorf("workload %s: %w", wl.Name, err))
			}
			var child resultFile
			data := must(os.ReadFile(runFile(o.out, wl.Name, mode == "1")))
			if err := json.Unmarshal(data, &child); err != nil {
				fatal(err)
			}
			printRun(child.Runs[0])
			all.Runs = append(all.Runs, child.Runs...)
		}
	}
	writeJSON(dest, all)
	fmt.Printf("\nwrote %s\n", dest)
	return all
}

func failedRuns(f resultFile) int {
	n := 0
	for _, r := range f.Runs {
		if !r.Correct {
			n++
		}
	}
	return n
}

func main() {
	args := os.Args[1:]
	switch {
	case len(args) > 0 && args[0] == "compare":
		if len(args) != 3 {
			fatal(fmt.Errorf("usage: benchmark compare <a.json> <b.json>"))
		}
		os.Exit(compareFiles(args[1], args[2]))
	case len(args) > 0 && args[0] == "manifest":
		os.Stdout.Write(manifest())
		return
	case len(args) > 0 && args[0] == "aa":
		o := parseFlags(args[1:])
		a := runAll(o, filepath.Join(o.out, "aa.a.json"))
		b := runAll(o, filepath.Join(o.out, "aa.b.json"))
		os.Exit(max(compare(a, b, true), min(1, failedRuns(a)+failedRuns(b))))
	}
	o := parseFlags(args)
	if o.workload != "" {
		wl := findWorkload(o.workload)
		if wl == nil {
			fatal(fmt.Errorf("unknown workload %q (see -h)", o.workload))
		}
		printLastLine(runWorkload(wl, o))
		return
	}
	if n := failedRuns(runAll(o, filepath.Join(o.out, "result.json"))); n > 0 {
		fatal(fmt.Errorf("%d runs had failed operations", n))
	}
}
