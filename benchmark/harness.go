package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"highway/internal/bfs"
	"highway/internal/core"
	"highway/internal/gen"
	"highway/internal/graph"
	"highway/internal/landmark"
	"highway/internal/workload"
)

// env is one run of one workload: its parameters, the metrics and
// operation counts it accumulates, and the span recorder of a traced
// run (nil when untraced).
type env struct {
	wl      *workloadDef
	seed    int64
	seconds float64
	rounds  int
	cycle   int // of an untraced run: the cycle under way
	tmpDir  string
	rec     *recorder

	mu       sync.Mutex
	metrics  map[string]cell
	exact    map[string]string    // checksums and op counts that must repeat for a seed
	cycles   map[string][]float64 // per-cycle values of the workload-level metrics, in cycle order
	requests [][]float64          // per cycle, the sorted latencies of the workload's request, for req_tail_us
	failures []string

	attempted atomic.Int64
	failed    atomic.Int64
}

// fail counts n failed operations (error, shed, or wrong answer) and
// keeps the first few reasons for the report.
func (e *env) fail(n int, format string, args ...any) {
	e.failed.Add(int64(n))
	e.mu.Lock()
	if len(e.failures) < 20 {
		e.failures = append(e.failures, fmt.Sprintf(format, args...))
	}
	e.mu.Unlock()
}

// check counts one correctness gate as an attempted operation.
func (e *env) check(ok bool, format string, args ...any) {
	e.attempted.Add(1)
	if !ok {
		e.fail(1, format, args...)
	}
}

// must aborts the run on a harness-side error (listen, temp file): the
// run prints no result and exits non-zero.
func must[T any](v T, err error) T {
	if err != nil {
		fatal(err)
	}
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

var defs = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, d := range endToEnd {
		m[d.Name] = d
	}
	for _, d := range perLayer {
		m[d.Name] = d
	}
	return m
}()

// set records a metric as the median of its per-round values, with
// their spread beside it.
func (e *env) set(name string, vals ...float64) {
	d, ok := defs[name]
	if !ok {
		panic("benchmark: metric not in the catalogue: " + name)
	}
	v := median(vals)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic("benchmark: metric is not finite: " + name)
	}
	e.mu.Lock()
	e.metrics[name] = cell{Value: v, Unit: d.Unit, Spread: spreadOf(vals), Rounds: len(vals), Values: vals}
	e.mu.Unlock()
}

// cycleValue records what the cycle under way measured for one
// workload-level metric; finish turns the cycles' values into the metric.
func (e *env) cycleValue(name string, v float64) {
	e.cycles[name] = append(e.cycles[name], v)
}

// finish reports every workload-level metric as the median of its per-cycle
// values. req_tail_us is the one metric not taken per cycle, because a
// cycle of a few dozen writes cannot support a tail: its value is the
// highest percentile that leaves ten requests beyond it among the
// requests of all cycles pooled, and its per-cycle values, kept for the
// spread, are each cycle's own value of that percentile.
func (e *env) finish() {
	for name, vals := range e.cycles {
		e.set(name, vals...)
	}
	var pooled []float64
	for _, lat := range e.requests {
		pooled = append(pooled, lat...)
	}
	sort.Float64s(pooled)
	p := tailPercent(len(pooled))
	per := make([]float64, len(e.requests))
	for c, lat := range e.requests {
		per[c] = percentile(lat, p)
	}
	e.set("req_tail_us", per...)
	c := e.metrics["req_tail_us"]
	c.Value = percentile(pooled, p)
	c.Note = fmt.Sprintf("p%.0f of the %d requests of %d cycles pooled", p, len(pooled), len(e.requests))
	e.metrics["req_tail_us"] = c
}

func (e *env) get(name string) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.metrics[name].Value
}

func (e *env) note(key string, format string, args ...any) {
	e.mu.Lock()
	e.exact[key] = fmt.Sprintf(format, args...)
	e.mu.Unlock()
}

// scaled turns a catalogue count (stated at -seconds runSeconds) into
// this run's count. Counts, not durations, are fixed: the same -seed and
// -seconds give the same inputs, checksums and WAL contents.
func (e *env) scaled(count int) int {
	return max(1, int(math.Round(float64(count)*e.seconds/runSeconds)))
}

// sub derives the seed of one named stream from the run's seed.
func (e *env) sub(label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", e.seed, label)
	return int64(h.Sum64() >> 1)
}

// timed is one timed window of a closed loop: every client's latencies
// in microseconds, in request order, and the seconds the window took
// from the common start until the last client finished.
type timed struct {
	lat  [][]float64
	wall float64
}

// sorted returns all clients' latencies in one sorted slice.
func (t timed) sorted() []float64 {
	var all []float64
	for _, mine := range t.lat {
		all = append(all, mine...)
	}
	sort.Float64s(all)
	return all
}

// runClients is the closed loop: each of the clients issues n requests,
// the next only after the previous one completed, and times each.
func runClients(clients, n int, do func(client, i int)) timed {
	lat := make([][]float64, clients)
	var start, done sync.WaitGroup
	start.Add(1)
	for c := 0; c < clients; c++ {
		done.Add(1)
		go func(c int) {
			defer done.Done()
			mine := make([]float64, n)
			start.Wait()
			for i := 0; i < n; i++ {
				t0 := time.Now()
				do(c, i)
				mine[i] = float64(time.Since(t0)) / 1e3
			}
			lat[c] = mine
		}(c)
	}
	t0 := time.Now()
	start.Done()
	done.Wait()
	return timed{lat, since(t0)}
}

// blockSize is how many sub-10us in-process calls share one clock read.
const blockSize = 256

// runBlocks times n in-process calls in blocks of blockSize: the
// latencies are the microseconds per call of every block, in order.
func runBlocks(n int, do func(i int)) timed {
	per := make([]float64, 0, (n+blockSize-1)/blockSize)
	t0 := time.Now()
	for lo := 0; lo < n; lo += blockSize {
		hi := min(lo+blockSize, n)
		b0 := time.Now()
		for i := lo; i < hi; i++ {
			do(i)
		}
		per = append(per, float64(time.Since(b0))/1e3/float64(hi-lo))
	}
	return timed{[][]float64{per}, since(t0)}
}

// pairStream returns the first n pairs of the product's own seeded
// uniform pair stream, in the shape the batch and client calls take.
func pairStream(nv int, n int, seed int64) [][2]int32 {
	st := workload.NewStreamN(nv, seed)
	out := make([][2]int32, n)
	for i := range out {
		p := st.Next()
		out[i] = [2]int32{p.S, p.T}
	}
	return out
}

// fixture is a generated graph with its landmarks and first index, and
// how long each step took.
type fixture struct {
	spec fixtureSpec
	g    *graph.Graph
	lms  []int32
	ix   *core.Index

	genS, lccS, selectS, buildS float64
}

func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }

func buildIndex(g *graph.Graph, lms []int32, workers int) (*core.Index, float64) {
	t0 := time.Now()
	ix := must(core.BuildOpts(context.Background(), g, lms, core.Options{Workers: workers}))
	return ix, since(t0)
}

func makeFixture(spec fixtureSpec) *fixture {
	fx := &fixture{spec: spec}
	t0 := time.Now()
	var g *graph.Graph
	switch spec.Family {
	case "rmat":
		g = gen.RMAT(spec.Scale, spec.EdgeF, 0.57, 0.19, 0.19, spec.GenSeed)
	case "ba":
		g = gen.BarabasiAlbert(spec.N, spec.Attach, spec.GenSeed)
	default:
		panic("benchmark: unknown graph family " + spec.Family)
	}
	fx.genS = since(t0)
	t0 = time.Now()
	fx.g, _ = graph.LargestComponent(g)
	fx.lccS = since(t0)
	t0 = time.Now()
	fx.lms = must(landmark.Select(fx.g, landmark.Options{K: spec.K, Strategy: landmark.Degree}))
	fx.selectS = since(t0)
	fx.ix, fx.buildS = buildIndex(fx.g, fx.lms, 0)
	return fx
}

func indexBytes(ix *core.Index) []byte {
	var buf bytes.Buffer
	if err := ix.WriteFormat(&buf, core.FormatV2); err != nil {
		fatal(err)
	}
	return buf.Bytes()
}

func graphBytes(g *graph.Graph) []byte {
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		fatal(err)
	}
	return buf.Bytes()
}

// loads is how many core.LoadFormat calls, or serve.LoadLive restarts on
// a live workload, one cycle's load_s is the median of.
const loads = 9

// resetPeakRSS hands freed memory back to the operating system and
// restarts the kernel's high-water mark of the resident set, so that
// each cycle reports its own peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM. Where the kernel refuses, a
	// cycle reports the process's peak so far, which still bounds its own.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// runCycles produces every workload-level metric of e.wl. The run is
// e.rounds cycles, each a complete small run: set up from nothing, one
// round of every timed phase, every correctness gate, tear down. A
// metric is the median of its per-cycle values (finish). The cycles
// spread every metric's samples over the whole run, so a few seconds of
// interference from the host reach a minority of a metric's cycles.
func runCycles(e *env) {
	wl := e.wl
	var queries [][2]int32
	var refQueries uint64
	var measure func(*stack)
	for e.cycle = 0; e.cycle < e.rounds; e.cycle++ {
		resetPeakRSS()
		fx := makeFixture(wl.Fixture)
		t0 := time.Now()
		st := startStack(e, fx)
		e.cycleValue("setup_s", fx.genS+fx.lccS+fx.selectS+fx.buildS+since(t0))

		buildTimes := make([]float64, fx.spec.Builds)
		for i := range buildTimes {
			_, buildTimes[i] = buildIndex(fx.g, fx.lms, 0)
		}
		e.cycleValue("build_s", median(buildTimes))

		raw := indexBytes(fx.ix)
		e.cycleValue("index_bytes", float64(len(raw)))
		if !st.live() {
			// Live workloads report the WAL-replaying restart instead.
			idxPath := filepath.Join(st.dir, "index.v2")
			if err := fx.ix.SaveAs(idxPath, core.FormatV2); err != nil {
				fatal(err)
			}
			loadTimes := make([]float64, loads)
			var loaded *core.Index
			for i := range loadTimes {
				t0 := time.Now()
				var err error
				if loaded, _, err = core.LoadFormat(idxPath, fx.g); err != nil {
					fatal(err)
				}
				loadTimes[i] = since(t0)
			}
			e.cycleValue("load_s", median(loadTimes))
			e.check(bytes.Equal(indexBytes(loaded), raw), "reloaded index differs from the saved one")
		}

		if measure == nil {
			e.note("fixture."+fx.spec.Name+".graph_fnv", "%016x", fnvBytes(graphBytes(fx.g)))
			e.note("fixture."+fx.spec.Name+".index_fnv", "%016x", fnvBytes(raw))
			e.note("fixture."+fx.spec.Name+".shape", "n=%d m=%d k=%d entries=%d", fx.g.NumVertices(), fx.g.NumEdges(), len(fx.lms), fx.ix.NumEntries())
			checkTruth(e, fx)
			queries = pairStream(fx.g.NumVertices(), e.scaled(wl.Queries), e.sub("queries"))
			refQueries = refChecksum(fx.ix, queries)
			e.note("checksum.queries", "%016x", refQueries)
			measure = wl.plan(e, fx)
		}

		sr := fx.ix.Searcher()
		q := e.round(len(queries), func(n int, measured bool) timed {
			sum := uint64(fnvOffset)
			t := runBlocks(n, func(i int) { sum = fnvAdd(sum, sr.Distance(queries[i][0], queries[i][1])) })
			if measured {
				e.attempted.Add(int64(n))
				if sum != refQueries {
					e.fail(n, "query checksum %016x differs from the reference %016x", sum, refQueries)
				}
			}
			return t
		})
		e.cycleValue("query_us", q.wall*1e6/float64(len(queries)))

		measure(st)
		st.close()
		e.cycleValue("peak_rss_mb", peakRSSMiB())
	}
	e.finish()
}

// truthSources x truthTargets seeded pairs are checked against plain BFS.
const (
	truthSources = 20
	truthTargets = 100
)

// checkTruth compares the index with BFS ground truth on 2000 pairs.
func checkTruth(e *env, fx *fixture) {
	rng := rand.New(rand.NewSource(e.sub("truth")))
	nv := int32(fx.g.NumVertices())
	sr := fx.ix.Searcher()
	var dist []int32
	for s := 0; s < truthSources; s++ {
		src := rng.Int31n(nv)
		dist = bfs.DistancesReuse(fx.g, src, dist)
		for t := 0; t < truthTargets; t++ {
			dst := rng.Int31n(nv)
			got := sr.Distance(src, dst)
			e.check(got == dist[dst], "d(%d,%d) = %d, BFS says %d", src, dst, got, dist[dst])
		}
	}
}

// refChecksum is the in-process answer checksum of a pair stream.
func refChecksum(ix *core.Index, pairs [][2]int32) uint64 {
	sr := ix.Searcher()
	sum := uint64(fnvOffset)
	for _, p := range pairs {
		sum = fnvAdd(sum, sr.Distance(p[0], p[1]))
	}
	return sum
}

// peakRSSMiB reads the process's high-water resident set.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				fatal(err)
			}
			return kb / 1024
		}
	}
	fatal(fmt.Errorf("no VmHWM in /proc/self/status"))
	return 0
}

// provenance is recorded in every result file.
type provenance struct {
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Rounds     int     `json:"rounds"`
	GoVersion  string  `json:"go"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
}

func newProvenance(seed int64, seconds float64, rounds int) provenance {
	p := provenance{Commit: "unknown", Seed: seed, Seconds: seconds, Rounds: rounds,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					p.Commit += "+dirty"
				}
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					p.CPU = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	return p
}
