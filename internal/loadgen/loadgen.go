// Package loadgen is the serving-tier load harness behind "hlserve
// load": it drives a distance-serving target (in-process server,
// HTTP/JSON API, or the binary protocol via internal/hlclient) with
// per-worker request queues and deterministic workloads, and reports
// percentile latencies (p50/p90/p99/max), warmup-excluded throughput,
// and a memory profile. With Options.Churn it interleaves trace-style
// edge insertions and deletions (workload.OpStream) through the
// target's Mutator capability, timing mutations separately from reads.
// Results marshal to the `hlserve load -json` report tabulated in
// EXPERIMENTS.md.
//
// The measurement discipline mirrors the paper's evaluation style:
// every worker owns a deterministic pair stream (distinct seeds keep
// the union reproducible), a warmup phase brings connections, pools
// and branch predictors to steady state before the clock starts, and
// reported QPS covers the measured window only.
package loadgen

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"highway/internal/workload"
)

// ErrShed marks a request rejected by the server's admission gate
// (HTTP 429 / wire Overloaded) rather than failed. Targets wrap shed
// responses in ErrShed so Run can account them separately: under
// deliberate overload a shed is the server working as designed, not a
// harness failure, and its latency (how fast the server says no) is a
// measurement of its own.
var ErrShed = errors.New("loadgen: request shed by server admission control")

// Target is one load-generation endpoint: Do answers a batch of
// distance queries (it may discard the answers — the harness times the
// round trip, not the values). Each worker owns its own Target, so
// implementations need not be safe for concurrent use.
type Target interface {
	Do(pairs [][2]int32) error
	Close() error
}

// Mutator is an optional Target capability: a target that can mutate
// the served graph. Mutate applies one single-kind edge batch (del
// selects deletion over insertion) against a live server. Run issues
// churn through it when Options.Churn is set; a churn run against a
// target without the capability fails up front.
type Mutator interface {
	Mutate(del bool, edges [][2]int32) error
}

// TargetFactory builds the Target for one worker. Worker ids are
// 0..Workers-1; factories that dial a connection per worker give the
// harness its per-worker request queues.
type TargetFactory func(worker int) (Target, error)

// Options tunes one load run. Zero values take the documented
// defaults.
type Options struct {
	// Workers is the number of concurrent load generators (default 1).
	Workers int
	// Requests is the number of measured requests issued per worker
	// (default 1000). Each request carries Batch pairs.
	Requests int
	// Warmup is the number of per-worker requests issued and discarded
	// before the measured window opens (default Requests/10).
	Warmup int
	// Batch is the number of pairs per request (default 1; 1 means the
	// single-query path on targets that distinguish the two).
	Batch int
	// N is the vertex count pairs are drawn from. Required.
	N int
	// Seed makes the workload deterministic; worker w streams pairs
	// from seed+w*0x9E37 so runs are reproducible and workers disjoint.
	Seed int64
	// MemSample is the memory-monitor sampling interval (default
	// 50ms; negative disables the monitor).
	MemSample time.Duration

	// Churn is the probability that a request (warmup included) is
	// preceded by one edge mutation issued through the target's Mutator
	// capability; 0 means a read-only load. Mutations ride the same
	// worker goroutines as the reads — the load they interleave with is
	// exactly the measured one.
	Churn float64
	// DeleteRatio is the fraction of churn mutations that delete a
	// live edge rather than insert one (see workload.NewOpStream for
	// how deletions track the live-edge window).
	DeleteRatio float64
	// Skew draws churn insertion endpoints Zipf(Skew)-skewed toward
	// low vertex ids when > 1; any other value means uniform.
	Skew float64
}

func (o *Options) defaults() error {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Requests <= 0 {
		o.Requests = 1000
	}
	if o.Warmup == 0 {
		o.Warmup = o.Requests / 10
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	}
	if o.Batch <= 0 {
		o.Batch = 1
	}
	if o.N <= 0 {
		return fmt.Errorf("loadgen: Options.N must be positive (got %d)", o.N)
	}
	if o.MemSample == 0 {
		o.MemSample = 50 * time.Millisecond
	}
	if o.Churn < 0 || o.Churn > 1 {
		return fmt.Errorf("loadgen: Options.Churn must be in [0,1] (got %g)", o.Churn)
	}
	if o.DeleteRatio < 0 || o.DeleteRatio > 1 {
		return fmt.Errorf("loadgen: Options.DeleteRatio must be in [0,1] (got %g)", o.DeleteRatio)
	}
	return nil
}

// Percentiles summarizes a latency distribution in microseconds.
type Percentiles struct {
	P50 float64 `json:"p50_us"`
	P90 float64 `json:"p90_us"`
	P99 float64 `json:"p99_us"`
	Max float64 `json:"max_us"`
}

// MemProfile is the peak memory observed by the monitor during the
// measured window. RSSMB is 0 on platforms without /proc/self/status.
type MemProfile struct {
	HeapAllocMB float64 `json:"heap_alloc_mb"`
	HeapSysMB   float64 `json:"heap_sys_mb"`
	RSSMB       float64 `json:"rss_mb"`
}

// Result is one measured load run: the unit of the `hlserve load -json`
// report.
type Result struct {
	// Protocol labels the target ("inproc", "http", "binary").
	Protocol string `json:"protocol"`
	Workers  int    `json:"workers"`
	Batch    int    `json:"batch"`
	// Requests and Pairs count the measured window only; warmup
	// requests are issued but excluded from every figure below.
	// Requests counts every issued request; Pairs, QPS and Latency
	// cover only the admitted (answered) ones.
	Requests   int         `json:"requests"`
	Pairs      int64       `json:"pairs"`
	Warmup     int         `json:"warmup_requests_excluded"`
	ElapsedSec float64     `json:"elapsed_sec"`
	RPS        float64     `json:"rps"`
	QPS        float64     `json:"qps"`
	Latency    Percentiles `json:"latency_us"`
	// Shed counts measured requests rejected by the server's admission
	// gate (ErrShed); ShedLatency is how quickly those rejections came
	// back — the "shed before work" property made measurable. Omitted
	// when nothing was shed.
	Shed        int          `json:"shed,omitempty"`
	ShedLatency *Percentiles `json:"shed_latency_us,omitempty"`
	// InsertOps/DeleteOps count churn mutations acked during the
	// measured window (warmup churn is issued but not counted), with
	// their own latency distribution. Omitted for read-only runs.
	InsertOps       int64        `json:"insert_ops,omitempty"`
	DeleteOps       int64        `json:"delete_ops,omitempty"`
	MutationLatency *Percentiles `json:"mutation_latency_us,omitempty"`
	Mem             MemProfile   `json:"mem"`
}

// String renders the run compactly for terminal output.
func (r Result) String() string {
	s := fmt.Sprintf(
		"%s workers=%d batch=%d: %d pairs in %.3fs (%.0f qps, %.0f rps) p50=%.1fµs p90=%.1fµs p99=%.1fµs max=%.1fµs",
		r.Protocol, r.Workers, r.Batch, r.Pairs, r.ElapsedSec, r.QPS, r.RPS,
		r.Latency.P50, r.Latency.P90, r.Latency.P99, r.Latency.Max)
	if r.Shed > 0 && r.ShedLatency != nil {
		s += fmt.Sprintf(" shed=%d (p50=%.1fµs p99=%.1fµs)", r.Shed, r.ShedLatency.P50, r.ShedLatency.P99)
	}
	if r.InsertOps+r.DeleteOps > 0 {
		s += fmt.Sprintf(" churn=%d ins + %d del", r.InsertOps, r.DeleteOps)
		if r.MutationLatency != nil {
			s += fmt.Sprintf(" (p50=%.1fµs p99=%.1fµs)", r.MutationLatency.P50, r.MutationLatency.P99)
		}
	}
	return s
}

// Run drives one measured load run: Workers goroutines, each with its
// own Target and deterministic pair stream, issue Warmup untimed then
// Requests timed requests of Batch pairs. The wall clock and QPS cover
// the measured window only.
func Run(opt Options, factory TargetFactory) (Result, error) {
	if err := opt.defaults(); err != nil {
		return Result{}, err
	}
	targets := make([]Target, opt.Workers)
	for w := range targets {
		tg, err := factory(w)
		if err != nil {
			for _, t := range targets[:w] {
				t.Close()
			}
			return Result{}, fmt.Errorf("loadgen: worker %d target: %w", w, err)
		}
		targets[w] = tg
	}
	defer func() {
		for _, t := range targets {
			t.Close()
		}
	}()
	if opt.Churn > 0 {
		for w, tg := range targets {
			if _, ok := tg.(Mutator); !ok {
				return Result{}, fmt.Errorf("loadgen: churn requested but worker %d's target cannot mutate (read-only server or protocol?)", w)
			}
		}
	}

	// Per-worker latency records, preallocated so the measured loop
	// does not allocate. Shed requests land in their own record: a
	// deliberate-overload run wants both distributions, unmixed.
	lats := make([][]int64, opt.Workers)
	shedLats := make([][]int64, opt.Workers)
	mutLats := make([][]int64, opt.Workers)
	insOps := make([]int64, opt.Workers)
	delOps := make([]int64, opt.Workers)
	for w := range lats {
		lats[w] = make([]int64, 0, opt.Requests)
	}
	errs := make([]error, opt.Workers)

	var (
		warmed  sync.WaitGroup // all workers finished warmup
		start   = make(chan struct{})
		done    sync.WaitGroup
		stopMem = make(chan struct{})
		mem     MemProfile
		memWG   sync.WaitGroup
	)
	if opt.MemSample > 0 {
		memWG.Add(1)
		go func() {
			defer memWG.Done()
			mem = monitorMemory(stopMem, opt.MemSample)
		}()
	}

	warmed.Add(opt.Workers)
	done.Add(opt.Workers)
	for w := 0; w < opt.Workers; w++ {
		go func(w int) {
			defer done.Done()
			st := workload.NewStreamN(opt.N, opt.Seed+int64(w)*0x9E37)
			pairs := make([][2]int32, opt.Batch)
			fill := func() {
				for i := range pairs {
					p := st.Next()
					pairs[i] = [2]int32{p.S, p.T}
				}
			}
			// Churn state: one op stream and one probability stream per
			// worker, seeded apart from the pair stream so adding churn
			// does not reshuffle the read workload.
			var (
				mut  Mutator
				ops  *workload.OpStream
				crng *rand.Rand
			)
			if opt.Churn > 0 {
				mut = targets[w].(Mutator)
				ops = workload.NewOpStream(opt.N, opt.DeleteRatio, opt.Skew, opt.Seed^0x4348_5552+int64(w)*0x9E37)
				crng = rand.New(rand.NewSource(opt.Seed ^ 0x6368 + int64(w)*0x9E37))
			}
			// mutate issues at most one churn op, timing it separately
			// from the reads; shed mutations (the write gate working) are
			// dropped, any other failure aborts the worker. Warmup churn
			// runs with record=false: issued, never counted.
			mutate := func(record bool) error {
				if mut == nil || crng.Float64() >= opt.Churn {
					return nil
				}
				op := ops.Next()
				t0 := time.Now()
				err := mut.Mutate(op.Del, [][2]int32{{op.A, op.B}})
				el := int64(time.Since(t0))
				switch {
				case err == nil:
					if record {
						mutLats[w] = append(mutLats[w], el)
						if op.Del {
							delOps[w]++
						} else {
							insOps[w]++
						}
					}
				case errors.Is(err, ErrShed):
				default:
					return err
				}
				return nil
			}
			for i := 0; i < opt.Warmup; i++ {
				fill()
				if err := mutate(false); err != nil {
					errs[w] = fmt.Errorf("warmup churn %d: %w", i, err)
					warmed.Done()
					return
				}
				if err := targets[w].Do(pairs); err != nil && !errors.Is(err, ErrShed) {
					errs[w] = fmt.Errorf("warmup request %d: %w", i, err)
					warmed.Done()
					return
				}
			}
			warmed.Done()
			<-start // barrier: the measured window opens for all workers at once
			for i := 0; i < opt.Requests; i++ {
				fill()
				if err := mutate(true); err != nil {
					errs[w] = fmt.Errorf("churn at request %d: %w", i, err)
					return
				}
				t0 := time.Now()
				err := targets[w].Do(pairs)
				el := int64(time.Since(t0))
				switch {
				case err == nil:
					lats[w] = append(lats[w], el)
				case errors.Is(err, ErrShed):
					shedLats[w] = append(shedLats[w], el)
				default:
					errs[w] = fmt.Errorf("request %d: %w", i, err)
					return
				}
			}
		}(w)
	}

	warmed.Wait()
	t0 := time.Now()
	close(start)
	done.Wait()
	elapsed := time.Since(t0)
	close(stopMem)
	memWG.Wait()

	for w, err := range errs {
		if err != nil {
			return Result{}, fmt.Errorf("loadgen: worker %d: %w", w, err)
		}
	}

	all := make([]int64, 0, opt.Workers*opt.Requests)
	var shedAll, mutAll []int64
	for _, rec := range lats {
		all = append(all, rec...)
	}
	for _, rec := range shedLats {
		shedAll = append(shedAll, rec...)
	}
	for _, rec := range mutLats {
		mutAll = append(mutAll, rec...)
	}
	res := Result{
		Workers:    opt.Workers,
		Batch:      opt.Batch,
		Requests:   opt.Workers * opt.Requests,
		Pairs:      int64(len(all)) * int64(opt.Batch),
		Warmup:     opt.Workers * opt.Warmup,
		ElapsedSec: elapsed.Seconds(),
		Latency:    percentiles(all),
		Shed:       len(shedAll),
		Mem:        mem,
	}
	if len(shedAll) > 0 {
		p := percentiles(shedAll)
		res.ShedLatency = &p
	}
	if len(mutAll) > 0 {
		for w := range insOps {
			res.InsertOps += insOps[w]
			res.DeleteOps += delOps[w]
		}
		p := percentiles(mutAll)
		res.MutationLatency = &p
	}
	if sec := elapsed.Seconds(); sec > 0 {
		res.RPS = float64(res.Requests) / sec
		res.QPS = float64(res.Pairs) / sec
	}
	return res, nil
}

// Sweep runs Run once per parallelism level, holding the total request
// budget constant: Options.Requests is treated as the run's TOTAL
// request count and split evenly across each level's workers (at least
// one each), so the QPS-vs-parallelism curve of EXPERIMENTS.md compares
// equal work at every level, not equal duration.
func Sweep(opt Options, parallelism []int, factory TargetFactory) ([]Result, error) {
	out := make([]Result, 0, len(parallelism))
	for _, p := range parallelism {
		o := opt
		o.Workers = p
		if p > 0 {
			o.Requests = opt.Requests / p
		}
		if o.Requests <= 0 && opt.Requests > 0 {
			o.Requests = 1
		}
		r, err := Run(o, factory)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// percentiles computes exact (nearest-rank) percentiles over latency
// records in nanoseconds, reported in microseconds. It sorts a private
// copy: callers that retain per-worker latency records must see them
// unpermuted after the report is built.
func percentiles(ns []int64) Percentiles {
	if len(ns) == 0 {
		return Percentiles{}
	}
	ns = append([]int64(nil), ns...)
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	at := func(q float64) float64 {
		i := int(q*float64(len(ns))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(ns) {
			i = len(ns) - 1
		}
		return float64(ns[i]) / 1e3
	}
	return Percentiles{
		P50: at(0.50),
		P90: at(0.90),
		P99: at(0.99),
		Max: float64(ns[len(ns)-1]) / 1e3,
	}
}

// monitorMemory samples heap stats and resident set size until stop is
// closed, returning the peaks observed.
func monitorMemory(stop <-chan struct{}, every time.Duration) MemProfile {
	const mb = 1.0 / (1 << 20)
	var peak MemProfile
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if v := float64(ms.HeapAlloc) * mb; v > peak.HeapAllocMB {
			peak.HeapAllocMB = v
		}
		if v := float64(ms.HeapSys) * mb; v > peak.HeapSysMB {
			peak.HeapSysMB = v
		}
		if v := readRSSMB(); v > peak.RSSMB {
			peak.RSSMB = v
		}
	}
	sample()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			sample()
			return peak
		case <-tick.C:
			sample()
		}
	}
}

// readRSSMB reads the resident set size from /proc/self/status,
// returning 0 where the file or the VmRSS line is unavailable
// (non-Linux platforms).
func readRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// Report is the `hlserve load -json` report: the runs of one harness
// invocation plus enough context to reproduce them.
type Report struct {
	Command string   `json:"command,omitempty"`
	Host    string   `json:"host,omitempty"`
	Runs    []Result `json:"runs"`
}

// WriteJSON writes the report as indented JSON.
func (rp Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rp)
}
