package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"highway/internal/bfs"
	"highway/internal/cluster"
	"highway/internal/core"
	"highway/internal/dynhl"
	"highway/internal/hlclient"
	"highway/internal/serve"
	"highway/internal/wire"
	"highway/internal/workload"
)

// The traced run walks one ladder on the workload's own fixture: every
// layer's exported entry points are timed from here, one rung at a
// time, each rung on the same seeded inputs as the rung below, so a
// rung's self time is its own time minus the rung below. The driver's
// contract wants every per-layer metric from every workload, so every
// workload walks every section of the ladder; it walks the sections it
// owns (workloadDef.Sections) at the sizes below and the others at an
// eighth of them, and a section's numbers are read from the workload
// that owns it.

// Rung sizes on a workload that owns the section; all but probeWrites
// are stated at -seconds runSeconds.
const (
	ladderPairs   = 10_000 // single-pair requests per rung
	ladderBatches = 16     // 4096-pair requests per rung
	probeReads    = 2_000  // single-pair reads per read rung on live servers
	probeWrites   = 16     // write requests per write rung; not scaled, so exact counts repeat
)

// sized is a rung size of section on this workload.
func (e *env) sized(section string, count int) int {
	for _, own := range e.wl.Sections {
		if own == section {
			return count
		}
	}
	return max(1, count/8)
}

// timeEach issues n requests from one closed-loop client, one root span
// per request, and returns the sorted latencies in microseconds.
func (e *env) timeEach(name string, n int, do func(i int, root int32, req int64)) []float64 {
	runtime.GC()
	lat := make([]float64, n)
	for i := range lat {
		req := e.rec.request()
		t0 := time.Now()
		id := e.rec.begin(name, -1, req)
		do(i, id, req)
		e.rec.end(id)
		lat[i] = float64(time.Since(t0)) / 1e3
	}
	e.attempted.Add(int64(n))
	e.rec.count(name, int64(n))
	sort.Float64s(lat)
	return lat
}

// timeBlocks is timeEach for sub-10us in-process calls: one clock read
// and one span per block of blockSize calls; latencies are per call.
func (e *env) timeBlocks(name string, n int, do func(i int)) []float64 {
	runtime.GC()
	var per []float64
	for lo := 0; lo < n; lo += blockSize {
		hi := min(lo+blockSize, n)
		t0 := time.Now()
		id := e.rec.begin(name, -1, e.rec.request())
		for i := lo; i < hi; i++ {
			do(i)
		}
		e.rec.end(id)
		per = append(per, float64(time.Since(t0))/1e3/float64(hi-lo))
	}
	e.attempted.Add(int64(n))
	e.rec.count(name, int64(n))
	sort.Float64s(per)
	return per
}

// child times fn as a child span and returns milliseconds.
func (e *env) child(name string, parent int32, req int64, fn func()) float64 {
	t0 := time.Now()
	id := e.rec.begin(name, parent, req)
	fn()
	e.rec.end(id)
	return float64(time.Since(t0)) / 1e6
}

// overheadPairs is how many times the workload's own rung runs with
// the recorder off and then on.
const overheadPairs = 2

// overhead reports trace.overhead_ratio when name is the rung that is
// this workload's own request: pass runs that rung alone and returns
// its central latency, overheadPairs times with the recorder off and
// on, alternating.
func (e *env) overhead(name string, pass func() float64) {
	if name != e.wl.TopRung {
		return
	}
	var off, on []float64
	for i := 0; i < overheadPairs; i++ {
		rec := e.rec
		e.rec = nil
		off = append(off, pass())
		e.rec = rec
		on = append(on, pass())
	}
	e.set("trace.overhead_ratio", mean(on)/mean(off))
}

// ladderRung is one rung of an interleaved ladder: do handles item i
// inside the span root of request req.
type ladderRung struct {
	name string
	do   func(i int, root int32, req int64)
}

// plain is a rung that records no child spans.
func plain(name string, do func(i int)) ladderRung {
	return ladderRung{name, func(i int, _ int32, _ int64) { do(i) }}
}

// interleave runs n items through every rung in units of per items:
// unit k of every rung runs before unit k+1 of any, so drift, GC and
// frequency changes hit all rungs alike and the difference of two rungs
// on the same unit cancels them. prime, when not nil, handles each unit
// first and untimed, so that no rung is the one that pulls the unit's
// data into the caches. It returns, per rung, the microseconds per item
// of every unit, in unit order.
func (e *env) interleave(n, per int, prime func(i int), rungs ...ladderRung) [][]float64 {
	runtime.GC()
	out := make([][]float64, len(rungs))
	for lo := 0; lo < n; lo += per {
		hi := min(lo+per, n)
		for i := lo; prime != nil && i < hi; i++ {
			prime(i)
		}
		for r, rung := range rungs {
			req := e.rec.request()
			t0 := time.Now()
			id := e.rec.begin(rung.name, -1, req)
			for i := lo; i < hi; i++ {
				rung.do(i, id, req)
			}
			e.rec.end(id)
			out[r] = append(out[r], float64(time.Since(t0))/1e3/float64(hi-lo))
		}
	}
	for _, rung := range rungs {
		e.attempted.Add(int64(n))
		e.rec.count(rung.name, int64(n))
	}
	return out
}

// minus is the per-unit difference of two rungs of one interleave.
func minus(a, b []float64) []float64 {
	d := make([]float64, len(a))
	for i := range d {
		d[i] = a[i] - b[i]
	}
	return d
}

func msOf(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

// runLadder walks the per-layer ladder with the span recorder on.
func runLadder(e *env) {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	fx := makeFixture(e.wl.Fixture)
	probeFixture(e, fx)
	checkTruth(e, fx)
	probePoint(e, fx)
	probeBatch(e, fx)
	live := liveFixture(fx)
	probeWrite(e, live)
	probeCluster(e, live)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	e.set("proc.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
}

// liveFixture is the fixture the write and cluster sections are walked
// on: the workload's own when it is no larger than BA-20k, the fixture of
// the two workloads that own those sections, and BA-20k otherwise. Every
// write rung starts servers on fresh copies of the fixture and ends with
// a from-scratch reference build; on the 2M-edge R-MAT graph that is ten
// seconds for two write batches, which say nothing about writes that
// BA-20k does not.
func liveFixture(own *fixture) *fixture {
	if own.g.NumVertices() <= fxBA20.N {
		return own
	}
	return makeFixture(fxBA20)
}

// probeFixture: gen, graph, landmark, bfs, and core's build, save, load.
func probeFixture(e *env, fx *fixture) {
	e.set("gen.graph.s", fx.genS)
	e.set("graph.build.s", fx.lccS)
	e.set("landmark.select.s", fx.selectS)
	var seq, par []float64
	for i := 0; i < 3; i++ {
		_, s := buildIndex(fx.g, fx.lms, 1)
		seq = append(seq, s)
		_, p := buildIndex(fx.g, fx.lms, 0)
		par = append(par, p)
	}
	e.set("core.build.seq_s", seq...)
	e.set("core.build.par_s", par...)
	e.set("core.build.speedup", median(seq)/median(par))
	tr := fx.ix.BuildStats().Traversal
	e.set("core.build.edges_scanned", float64(tr.EdgesScanned()))
	e.set("core.build.bottomup_share", float64(tr.EdgesBottomUp)/float64(tr.EdgesScanned()))
	e.set("core.index.entries", float64(fx.ix.NumEntries()))
	e.set("core.index.als", fx.ix.AvgLabelSize())

	_, hub := fx.g.MaxDegree()
	var dist []int32
	var full []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		dist = bfs.DistancesReuse(fx.g, hub, dist)
		full = append(full, msOf(t0))
	}
	e.set("bfs.full.ms", full...)

	path := filepath.Join(e.tmpDir, "index.v2")
	t0 := time.Now()
	if err := fx.ix.SaveAs(path, core.FormatV2); err != nil {
		fatal(err)
	}
	e.set("core.save.s", since(t0))
	raw := indexBytes(fx.ix)
	var loadTimes []float64
	for i := 0; i < loads; i++ {
		t0 := time.Now()
		ix, _, err := core.LoadFormat(path, fx.g)
		loadTimes = append(loadTimes, since(t0))
		e.check(err == nil && bytes.Equal(indexBytes(ix), raw), "reloaded index differs from the saved one: %v", err)
	}
	e.set("core.load.s", loadTimes...)
	e.set("core.load.mb_s", float64(len(raw))/1e6/median(loadTimes))
	e.note("fixture."+fx.spec.Name+".graph_fnv", "%016x", fnvBytes(graphBytes(fx.g)))
	e.note("fixture."+fx.spec.Name+".index_fnv", "%016x", fnvBytes(raw))
}

// fronted is a read-only server on the fixture with both listeners, a
// router in front of its binary listener, and one client on each path.
type fronted struct {
	srv         *serve.Server
	bin, routed *hlclient.Client
	base        string // of the HTTP listener
	close       func()
}

func startFronted(fx *fixture) *fronted {
	st := &stack{srv: serve.New(fx.ix, serve.Config{})}
	st.serveBoth()
	router := must(cluster.NewRouter(cluster.RouterConfig{Shards: [][]string{{st.binAddr}}}))
	routerAddr, stopRouter := listenOn(router.ServeBinary)
	st.onClose(func() { stopRouter(); router.Close() })
	for !router.Ready() {
		time.Sleep(200 * time.Microsecond)
	}
	return &fronted{srv: st.srv, bin: st.dial(st.binAddr), routed: st.dial(routerAddr), base: "http://" + st.httpAddr, close: st.close}
}

// serverStats is the part of the /stats document the probes read.
type serverStats struct {
	Endpoints map[string]serve.EndpointStats `json:"endpoints"`
}

func statsOf(cl *hlclient.Client) serverStats {
	var s serverStats
	if err := json.Unmarshal(must(cl.Stats(bg)), &s); err != nil {
		fatal(err)
	}
	return s
}

// memPipe frames records into memory and reads them back: what the
// codec and framing cost, CRC included, without a socket.
type memPipe struct {
	buf bytes.Buffer
	w   *wire.Writer
	r   *wire.Reader
}

func newMemPipe() *memPipe {
	p := &memPipe{}
	p.w, p.r = wire.NewWriter(&p.buf), wire.NewReader(&p.buf, wire.MaxFrame)
	return p
}

func (p *memPipe) pass(t wire.Type, payload []byte) ([]byte, error) {
	if err := p.w.WriteFrame(t, payload); err != nil {
		return nil, err
	}
	if err := p.w.Flush(); err != nil {
		return nil, err
	}
	_, got, err := p.r.ReadFrame()
	return got, err
}

// probePoint: the query path and the single-pair ladder, in-process to
// binary to HTTP to routed, one client, one pair stream. Every rung's
// answers are compared with the core rung's.
func probePoint(e *env, fx *fixture) {
	n := e.scaled(e.sized("core", ladderPairs))          // calls per in-process rung
	m := min(n, e.scaled(e.sized("point", ladderPairs))) // requests per client rung, on the first m pairs
	pairs := pairStream(fx.g.NumVertices(), n, e.sub("ladder"))
	ix, sr := fx.ix, fx.ix.Searcher()
	answers := make([]int32, n)
	verify := func(rung string, i int, d int32, err error) {
		if err != nil {
			e.fail(1, "%s: %v", rung, err)
		} else if d != answers[i] {
			e.fail(1, "%s: d(%d,%d) = %d, core says %d", rung, pairs[i][0], pairs[i][1], d, answers[i])
		}
	}

	var fresh []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		_ = ix.Searcher()
		fresh = append(fresh, float64(time.Since(t0))/1e3)
	}
	e.set("core.searcher.new_us", fresh...)

	f := startFronted(fx)
	defer f.close()

	for i, p := range pairs {
		answers[i] = sr.Distance(p[0], p[1])
	}
	e.note("checksum.ladder", "%016x", sumOf(answers))
	covered, connected := 0, 0
	pipe := newMemPipe()
	var scratch []byte
	per := e.interleave(n, blockSize, func(i int) { _ = sr.Distance(pairs[i][0], pairs[i][1]) },
		plain("core.query", func(i int) { verify("core.query", i, sr.Distance(pairs[i][0], pairs[i][1]), nil) }),
		plain("core.query.bound", func(i int) {
			if ub := sr.UpperBound(pairs[i][0], pairs[i][1]); answers[i] >= 0 {
				connected++
				if ub == answers[i] {
					covered++
				}
			}
		}),
		plain("core.query.pooled", func(i int) { verify("core.query.pooled", i, ix.Distance(pairs[i][0], pairs[i][1]), nil) }),
		plain("serve.inproc", func(i int) {
			d, err := f.srv.Distance(pairs[i][0], pairs[i][1])
			verify("serve.inproc", i, d, err)
		}),
		plain("wire.point.codec", func(i int) {
			scratch = wire.AppendPair(scratch[:0], pairs[i][0], pairs[i][1])
			got, err := pipe.pass(wire.TDistance, scratch)
			if err == nil {
				var s, t int32
				if s, t, err = wire.DecodePair(got); err == nil && (s != pairs[i][0] || t != pairs[i][1]) {
					err = fmt.Errorf("pair (%d,%d) came back as (%d,%d)", pairs[i][0], pairs[i][1], s, t)
				}
			}
			var d int32
			if err == nil {
				scratch = wire.AppendDistance(scratch[:0], answers[i])
				if got, err = pipe.pass(wire.TDistanceResp, scratch); err == nil {
					d, err = wire.DecodeDistance(got)
				}
			}
			verify("wire.point.codec", i, d, err)
		}))
	coreUs, boundUs, pooledUs, inprocUs, codecUs := per[0], per[1], per[2], per[3], per[4]
	e.set("core.query.us", coreUs...)
	e.set("core.query.bound_us", boundUs...)
	e.set("core.query.refine_us", minus(coreUs, boundUs)...)
	e.set("core.query.covered_ratio", float64(covered)/float64(max(connected, 1)))
	e.set("core.query.pool_us", minus(pooledUs, coreUs)...)
	e.set("serve.inproc.us", inprocUs...)
	e.set("serve.inproc.self_us", minus(inprocUs, coreUs)...)
	e.set("wire.point.codec_us", codecUs...)
	e.overhead("core.query", func() float64 {
		return percentile(e.timeBlocks("core.query", n, func(i int) { verify("core.query", i, sr.Distance(pairs[i][0], pairs[i][1]), nil) }), 50)
	})

	client := func(name string, cl *hlclient.Client) float64 {
		return percentile(e.timeEach(name, m, func(i int, _ int32, _ int64) {
			d, err := cl.Distance(bg, pairs[i][0], pairs[i][1])
			verify(name, i, d, err)
		}), 50)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	binUs := client("binary.point.rtt", f.bin)
	runtime.ReadMemStats(&m1)
	e.set("proc.allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/float64(m))
	e.overhead("binary.point", func() float64 { return client("binary.point.rtt", f.bin) })
	e.set("binary.point.rtt_us", binUs)
	e.set("binary.point.self_us", binUs-e.get("core.query.us")-e.get("serve.inproc.self_us")-e.get("wire.point.codec_us"))
	e.set("serve.stats.distance_avg_us", statsOf(f.bin).Endpoints["bin_distance"].AvgLatencyUs)

	web := keepAliveHTTP()
	defer web.CloseIdleConnections()
	var body bytes.Buffer
	httpUs := percentile(e.timeEach("http.point.rtt", m, func(i int, _ int32, _ int64) {
		d, err := httpDistance(web, f.base, pairs[i][0], pairs[i][1], &body)
		verify("http.point.rtt", i, d, err)
	}), 50)
	e.set("http.point.rtt_us", httpUs)
	e.set("http.point.self_us", httpUs-e.get("serve.inproc.us"))

	routedUs := client("router.point.rtt", f.routed)
	e.set("router.point.rtt_us", routedUs)
	e.set("router.point.hop_us", routedUs-binUs)
	shed := f.srv.AdmissionStats()
	e.set("serve.admission.shed", float64(shed.Read.Shed+shed.Write.Shed))
}

// probeBatch: the batch executor's shapes, then the 4096-pair ladder.
func probeBatch(e *env, fx *fixture) {
	n := max(2, e.scaled(e.sized("batch", ladderBatches))&^1) // as many fan as grouped requests
	ix, sr := fx.ix, fx.ix.Searcher()
	nv := int32(fx.g.NumVertices())
	rng := rand.New(rand.NewSource(e.sub("batch-shapes")))
	var dst []int32
	perPair := func(name string, shape func() [][2]int32, run func(pairs [][2]int32)) float64 {
		reqs := make([][][2]int32, n)
		for i := range reqs {
			reqs[i] = shape()
		}
		lat := e.timeEach(name, n, func(i int, _ int32, _ int64) { run(reqs[i]) })
		return percentile(lat, 50) * 1e3 / batchPairs
	}
	batch := func(pairs [][2]int32) { dst = sr.DistanceBatch(pairs, dst) }
	e.set("core.batch.fan.ns_pair", perPair("core.batch.fan", func() [][2]int32 { return fanRequest(rng, nv) }, batch))
	grouped := func() [][2]int32 { return groupedRequest(rng, nv) }
	e.set("core.batch.grouped.ns_pair", perPair("core.batch.grouped", grouped, batch))
	e.set("core.batch.uniform.ns_pair", perPair("core.batch.uniform", func() [][2]int32 { return pairStream(int(nv), batchPairs, rng.Int63()) }, batch))
	e.set("core.batch.pairloop.ns_pair", perPair("core.batch.pairloop", grouped, func(pairs [][2]int32) {
		for _, p := range pairs {
			_ = sr.Distance(p[0], p[1])
		}
	}))

	// The ladder: every request goes through every rung before the next
	// request does.
	reqs, refs := batchRequests(e, ix, "batch-ladder")
	answers := make([][]int32, batchDistinct)
	for j := range answers {
		answers[j] = sr.DistanceBatch(reqs[j], nil)
	}
	f := startFronted(fx)
	defer f.close()
	web := keepAliveHTTP()
	defer web.CloseIdleConnections()
	pipe := newMemPipe()
	var scratch []byte
	var pairBuf [][2]int32
	var body bytes.Buffer
	rung := func(name string, call func(j int) ([]int32, error)) ladderRung {
		return plain(name, func(i int) {
			j := i % batchDistinct
			ds, err := call(j)
			if err != nil {
				e.fail(1, "%s: %v", name, err)
			} else if sumOf(ds) != refs[j] {
				e.fail(1, "%s request %d: answers differ from the pair-loop reference", name, j)
			}
		})
	}
	binary := rung("binary.batch.rtt", func(j int) (ds []int32, err error) {
		dst, err = f.bin.DistanceBatch(bg, reqs[j], dst)
		return dst, err
	})
	prime := func(i int) { dst = sr.DistanceBatch(reqs[i%batchDistinct], dst) }
	per := e.interleave(n, 1, prime,
		rung("core.batch.mixed", func(j int) ([]int32, error) {
			dst = sr.DistanceBatch(reqs[j], dst)
			return dst, nil
		}),
		rung("serve.batch.inproc", func(j int) (ds []int32, err error) {
			dst, err = f.srv.DistanceBatch(reqs[j], dst)
			return dst, err
		}),
		rung("wire.batch.codec", func(j int) ([]int32, error) {
			scratch = wire.AppendPairs(scratch[:0], reqs[j])
			got, err := pipe.pass(wire.TBatch, scratch)
			if err != nil {
				return nil, err
			}
			if pairBuf, err = wire.DecodePairs(got, pairBuf); err != nil {
				return nil, err
			}
			scratch = wire.AppendDistances(scratch[:0], answers[j])
			if got, err = pipe.pass(wire.TBatchResp, scratch); err != nil {
				return nil, err
			}
			dst, err = wire.DecodeDistances(got, dst)
			return dst, err
		}),
		binary,
		rung("http.batch.rtt", func(j int) ([]int32, error) { return httpBatch(web, f.base, reqs[j], &body) }))
	coreUs, inprocUs, codecUs, binUs, httpUs := per[0], per[1], per[2], per[3], per[4]
	e.set("serve.batch.inproc_us", shapeMid(inprocUs))
	e.set("serve.batch.self_us", minus(inprocUs, coreUs)...)
	e.set("wire.batch.codec_us", shapeMid(codecUs))
	e.set("binary.batch.rtt_us", shapeMid(binUs))
	e.set("binary.batch.self_us", minus(minus(binUs, inprocUs), codecUs)...)
	e.set("http.batch.rtt_us", shapeMid(httpUs))
	e.set("http.batch.json_self_us", minus(httpUs, inprocUs)...)
	e.overhead("binary.batch", func() float64 { return shapeMid(e.interleave(n, 1, nil, binary)[0]) })
}

// asOps turns one write request into dynhl ops.
func asOps(del bool, edges [][2]int32) []dynhl.Op {
	if del {
		return dynhl.DeleteOps(edges)
	}
	return dynhl.InsertOps(edges)
}

// writeReq is one single-kind write request.
type writeReq struct {
	del   bool
	edges [][2]int32
}

// inprocWriter adapts a live server's write methods to writer.
type inprocWriter struct{ srv *serve.Server }

func (w inprocWriter) InsertEdges(_ context.Context, edges [][2]int32) (serve.InsertResult, error) {
	return w.srv.InsertEdges(edges)
}

func (w inprocWriter) DeleteEdges(_ context.Context, edges [][2]int32) (serve.DeleteResult, error) {
	return w.srv.DeleteEdges(edges)
}

// freshLive starts a WAL-backed live server on the fixture in a new
// directory: every write rung has its own, so all of them see the same
// state before each request and their times can be subtracted request
// by request.
func freshLive(e *env, fx *fixture) *stack {
	st := &stack{fx: fx, dir: must(os.MkdirTemp(e.tmpDir, "live"))}
	st.startLive()
	return st
}

// emptyWriteUs is the p50 of a write request carrying no edges: the
// server acks it without touching the log or the index, so what is
// left is the path to the server and back.
func emptyWriteUs(e *env, name string, n int, w writer) float64 {
	return percentile(e.timeEach(name, n, func(int, int32, int64) {
		if _, err := w.InsertEdges(bg, nil); err != nil {
			e.fail(1, "%s: %v", name, err)
		}
	}), 50)
}

// probeWrite: the write path by stage. Each write request goes three
// ways from the same state before the next request does: through the
// stages by hand on a shadow index (which is the follower's code path),
// into a WAL-backed live server in-process, and into another over the
// binary protocol. Then reads beside a writer, and a restart from the
// files.
func probeWrite(e *env, fx *fixture) {
	n := e.sized("write", probeWrites)
	nReads := e.scaled(e.sized("write", probeReads))
	nv := fx.g.NumVertices()
	batches := &opBatcher{ops: workload.NewOpStream(nv, deleteRatio, 0, e.sub("ops"))}
	reqs := make([]writeReq, n)
	edges := edgesOf(fx.g)
	for i := range reqs {
		reqs[i].del, reqs[i].edges = batches.next()
		edges.apply(reqs[i].del, reqs[i].edges)
	}
	want := edges.rebuilt(nv, fx.lms)
	e.note("checksum.write_ladder", "%016x", fnvBytes(want))

	t0 := time.Now()
	shadow := must(dynhl.FromCore(fx.ix))
	e.set("dynhl.fromcore.ms", msOf(t0))
	wal := must(serve.OpenWAL(filepath.Join(e.tmpDir, "shadow.wal")))
	publisher := serve.New(fx.ix, serve.Config{})
	var appendMs, applyMs, freezeMs, publishMs []float64
	var logged []dynhl.Op
	byHand := ladderRung{"write.batch", func(i int, root int32, req int64) {
		ops := asOps(reqs[i].del, reqs[i].edges)
		var fresh *core.Index
		var err error
		appendMs = append(appendMs, e.child("wal.append", root, req, func() { err = wal.AppendOps(ops) }))
		if err != nil {
			fatal(err)
		}
		applyMs = append(applyMs, e.child("dynhl.apply", root, req, func() { _, err = shadow.ApplyOps(ops) }))
		if err != nil {
			fatal(err)
		}
		freezeMs = append(freezeMs, e.child("dynhl.freeze", root, req, func() { _, fresh, err = shadow.Freeze() }))
		if err != nil {
			fatal(err)
		}
		publishMs = append(publishMs, e.child("serve.publish", root, req, func() { publisher.Publish(fresh, uint64(i+1)) }))
		logged = append(logged, ops...)
	}}
	// via sends request i to its own fresh live server through w.
	via := func(name string, w writer) ladderRung {
		return plain(name, func(i int) {
			if _, _, err := write(w, reqs[i].del, reqs[i].edges); err != nil {
				e.fail(1, "%s: %v", name, err)
			}
		})
	}
	inprocSt, binarySt := freshLive(e, fx), freshLive(e, fx)
	per := e.interleave(n, 1, nil, byHand,
		via("serve.write.inproc", inprocWriter{inprocSt.srv}),
		via("binary.write.rtt", binarySt.dial(binarySt.binAddr)))
	for _, st := range []*stack{inprocSt, binarySt} {
		e.check(bytes.Equal(liveBytes(st.srv), want), "live index differs from a from-scratch build")
		st.close()
	}
	_, frozen, err := shadow.Freeze()
	e.check(err == nil && bytes.Equal(indexBytes(frozen), want), "shadow index differs from a from-scratch build: %v", err)
	byHandUs, inprocUs, binaryUs := per[0], per[1], per[2]
	ms := func(us []float64) []float64 {
		out := make([]float64, len(us))
		for i, x := range us {
			out[i] = x / 1e3
		}
		return out
	}
	e.set("wal.append.ms", appendMs...)
	e.set("dynhl.apply.ms", applyMs...)
	e.set("dynhl.freeze.ms", freezeMs...)
	e.set("serve.publish.ms", publishMs...)
	e.set("serve.write.inproc_ms", ms(inprocUs)...)
	e.set("serve.write.self_ms", ms(minus(inprocUs, byHandUs))...)
	e.set("binary.write.rtt_ms", ms(binaryUs)...)
	maint := shadow.Maint()
	e.set("dynhl.apply.landmarks_rebuilt_per_batch", float64(maint.LandmarksRebuilt)/float64(n))
	e.set("dynhl.apply.repair_share", float64(maint.SelectiveRepairs)/float64(max(maint.SelectiveRepairs+maint.FullRebuilds, 1)))
	e.set("wal.bytes_per_op", float64(must(os.Stat(wal.Path())).Size())/float64(len(logged)))
	t0 = time.Now()
	if err := wal.CompactTo(logged); err != nil {
		fatal(err)
	}
	e.set("wal.compact.ms", msOf(t0))
	if err := wal.Close(); err != nil {
		fatal(err)
	}
	e.overhead("binary.write", func() float64 {
		st := freshLive(e, fx)
		defer st.close()
		return median(e.interleave(n, 1, nil, via("binary.write.rtt", st.dial(st.binAddr)))[0])
	})

	st := freshLive(e, fx)
	defer st.close()
	writeCl, readCl := st.dial(st.binAddr), st.dial(st.binAddr)
	e.set("binary.write.self_ms", (emptyWriteUs(e, "binary.write.empty", nReads, writeCl)-emptyWriteUs(e, "serve.write.empty", nReads, inprocWriter{st.srv}))/1e3)

	reads := pairStream(nv, nReads, e.sub("live-reads"))
	read := func(name string) float64 {
		return percentile(e.timeEach(name, len(reads), func(i int, _ int32, _ int64) {
			if _, err := readCl.Distance(bg, reads[i][0], reads[i][1]); err != nil {
				e.fail(1, "%s: %v", name, err)
			}
		}), 50)
	}
	e.set("serve.read.idle_p50_us", read("serve.read.idle"))
	edges = edgesOf(fx.g)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			del, batch := batches.next()
			e.attempted.Add(1)
			if _, _, err := write(writeCl, del, batch); err != nil {
				e.fail(1, "write beside reads: %v", err)
				continue
			}
			edges.apply(del, batch)
		}
	}()
	busy := read("serve.read.busy")
	stop.Store(true)
	wg.Wait()
	e.set("serve.read.busy_p50_us", busy)

	want = edges.rebuilt(nv, fx.lms)
	e.check(bytes.Equal(liveBytes(st.srv), want), "live index differs from a from-scratch build on the final edge set")
	ls := st.srv.LiveStats()
	e.set("serve.live.rebuilds", float64(ls.Rebuilds))
	e.set("serve.live.writes_rejected", float64(ls.WritesRejected))
	e.set("serve.recover.ops", float64(ls.WALLen))
	st.close()
	t0 = time.Now()
	srv := must(serve.LoadLive(st.graphPath(), st.indexPath(), st.walPath(), liveConfig(nil)))
	e.set("serve.recover.replay_s", since(t0))
	e.check(bytes.Equal(liveBytes(srv), want), "index after LoadLive differs from a from-scratch build")
	if err := srv.Close(); err != nil {
		fatal(err)
	}
}

// probeCluster: the snapshot codec, a detached follower's apply, then
// whole replica sets: routed single-edge writes with their visibility
// lag and read-after-write staleness, the router's write and read hops,
// and how evenly it spreads reads.
func probeCluster(e *env, fx *fixture) {
	n := e.sized("cluster", probeWrites)
	nReads := e.scaled(e.sized("cluster", probeReads))
	nv := fx.g.NumVertices()
	stream := workload.NewOpStream(nv, deleteRatio, 0, e.sub("cluster-ops"))
	ops := make([]workload.EdgeOp, n)
	edges := edgesOf(fx.g)
	for i := range ops {
		ops[i] = stream.Next()
		edges.apply(ops[i].Del, [][2]int32{{ops[i].A, ops[i].B}})
	}
	want := edges.rebuilt(nv, fx.lms)
	e.note("checksum.cluster_ladder", "%016x", fnvBytes(want))

	var snap bytes.Buffer
	t0 := time.Now()
	if err := serve.EncodeSnapshot(&snap, fx.g, fx.ix); err != nil {
		fatal(err)
	}
	e.set("cluster.snapshot.encode_s", since(t0))
	e.set("cluster.snapshot.bytes", float64(snap.Len()))
	t0 = time.Now()
	_, decoded, err := serve.DecodeSnapshot(bytes.NewReader(snap.Bytes()))
	e.set("cluster.snapshot.decode_s", since(t0))
	e.check(err == nil && bytes.Equal(indexBytes(decoded), indexBytes(fx.ix)), "decoded snapshot differs from the encoded index: %v", err)

	detached := must(cluster.NewFollower(serve.Config{}))
	if _, err := detached.ReplSnapshot(1, true, snap.Bytes()); err != nil {
		fatal(err)
	}
	e.set("cluster.follower.apply_ms", percentile(e.timeEach("cluster.follower.apply", n, func(i int, _ int32, _ int64) {
		pairs := serve.EncodeWALOps(nil, asOps(ops[i].Del, [][2]int32{{ops[i].A, ops[i].B}}))
		if _, err := detached.ReplAppend(uint64(i+2), pairs); err != nil {
			e.fail(1, "follower apply: %v", err)
		}
	}), 50)/1e3)
	followed, ok := detached.Server().Index().(*core.Index)
	e.check(ok && bytes.Equal(indexBytes(followed), want), "detached follower differs from a from-scratch build")

	freshCluster := func() *clusterStack {
		return startCluster(fx.ix, filepath.Join(must(os.MkdirTemp(e.tmpDir, "cluster")), "edges.wal"))
	}
	var ackMs, visibleMs, lagMs []float64
	var changed, stale int
	var shipped *serve.ReplicationStats
	routedWrites := func() float64 {
		c := freshCluster()
		defer c.close()
		routed := dial(c.routerAddr)
		defer routed.Close()
		ackMs, visibleMs, lagMs, changed, stale = nil, nil, nil, 0, 0
		lat := e.timeEach("cluster.write", n, func(i int, root int32, req int64) {
			op := ops[i]
			var epoch uint64
			var did int
			var err error
			ackMs = append(ackMs, e.child("cluster.write.ack", root, req, func() {
				epoch, did, err = write(routed, op.Del, [][2]int32{{op.A, op.B}})
			}))
			if err != nil {
				e.fail(1, "routed write: %v", err)
				return
			}
			lagMs = append(lagMs, c.shipper.Stats().LagMs)
			e.child("cluster.read_after_write", root, req, func() {
				d, err := routed.Distance(bg, op.A, op.B)
				if err != nil {
					e.fail(1, "read after write: %v", err)
				} else if did > 0 {
					changed++
					if (d == 1) == op.Del {
						stale++
					}
				}
			})
			visibleMs = append(visibleMs, e.child("cluster.write.visible", root, req, func() { c.waitVisible(epoch) }))
		})
		e.check(bytes.Equal(liveBytes(c.primary), want), "primary differs from a from-scratch build on the final edge set")
		for i, f := range c.followers {
			ix, ok := f.Server().Index().(*core.Index)
			e.check(ok && bytes.Equal(indexBytes(ix), want), "follower %d is not byte-identical to the primary", i)
		}
		shipped = c.shipper.Stats()
		return percentile(lat, 50)
	}
	routedWrites()
	e.set("cluster.write.ack_ms", ackMs...)
	e.set("cluster.write.visible_ms", visibleMs...)
	e.set("cluster.ship.lag_ms", lagMs...)
	e.set("cluster.read_after_write.stale_share", float64(stale)/float64(max(changed, 1)))
	e.rec.count("cluster.read_after_write.changed", int64(changed))
	e.rec.count("cluster.read_after_write.stale", int64(stale))
	e.set("cluster.ship.resyncs", float64(shipped.Resyncs))
	e.set("cluster.ship.fenced", float64(shipped.Fenced))
	e.overhead("cluster.write", routedWrites)

	c := freshCluster()
	defer c.close()
	direct, follower, routed, second := dial(c.primaryAddr), dial(c.followerAddrs[0]), dial(c.routerAddr), dial(c.routerAddr)
	for _, cl := range []*hlclient.Client{direct, follower, routed, second} {
		defer cl.Close()
	}
	e.set("cluster.router.write.hop_ms", (emptyWriteUs(e, "cluster.write.empty.routed", nReads, routed)-emptyWriteUs(e, "cluster.write.empty.direct", nReads, direct))/1e3)
	reads := pairStream(nv, nReads, e.sub("cluster-reads"))
	read := func(name string, cl *hlclient.Client) float64 {
		return percentile(e.timeEach(name, len(reads), func(i int, _ int32, _ int64) {
			if _, err := cl.Distance(bg, reads[i][0], reads[i][1]); err != nil {
				e.fail(1, "%s: %v", name, err)
			}
		}), 50)
	}
	directUs := read("cluster.read.direct", follower)
	e.set("cluster.router.read.hop_us", read("cluster.read.routed", routed)-directUs)

	// Fan-out balance needs reads in flight together: the router picks
	// the follower with the fewest in flight and breaks ties by order.
	served := func() []int64 {
		var out []int64
		for _, addr := range c.followerAddrs {
			cl := dial(addr)
			out = append(out, statsOf(cl).Endpoints["bin_distance"].Requests)
			cl.Close()
		}
		return out
	}
	before := served()
	pair := []*hlclient.Client{routed, second}
	_ = runClients(len(pair), len(reads)/2, func(cl, i int) {
		if _, err := pair[cl].Distance(bg, reads[2*i+cl][0], reads[2*i+cl][1]); err != nil {
			e.fail(1, "routed read: %v", err)
		}
	})
	e.attempted.Add(int64(len(reads) / 2 * 2))
	after := served()
	lo, hi := after[0]-before[0], after[0]-before[0]
	for i := range after {
		lo, hi = min(lo, after[i]-before[i]), max(hi, after[i]-before[i])
	}
	e.set("cluster.router.fanout_balance", float64(lo)/float64(max(hi, 1)))
}
