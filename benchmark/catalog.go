package main

// The catalogue: every workload and every metric the harness knows, in
// one place. BENCHMARK.json at the repository root repeats the names,
// units, directions and bounds; TestCatalogueMatchesBenchmarkJSON keeps
// the two equal.

// metricDef names one metric. Bound is the share of the parent's median
// by which a workload-level metric may worsen; ladder metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Doc    string
}

// Every workload reports every metric (the driver's contract), so each
// is defined on any fixture. The workload-level metrics below are each
// the median of its per-cycle values (see finish); "request" and "side
// request" are the workload's own primary and secondary operation, listed
// per workload in workloads.
//
// endToEnd are the ones steady enough on the sizing host to carry a
// bound the driver enforces: their run-to-run spread stays under a third
// of it (README.md, "Spread and bounds").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "generate graph, extract LCC, select landmarks, first build, start servers, dial, bootstrap followers; every cycle sets up again"},
	{"index_bytes", "B", "lower", 0.0001, "size of the saved v2 index (exact: it repeats for a fixture)"},
	{"peak_rss_mb", "MiB", "lower", 0.25, "peak resident set of one cycle (VmHWM, reset before every cycle)"},
}

// unbounded are end-to-end in meaning and measured the same way, tracing
// off, but on the sizing host every one of them spreads by more than a
// tenth from run to run on some workload, so, as ISSUE 11 prescribes,
// they keep their names and move to the manifest's per-layer list, where
// the driver enforces no bound. Their Bound is the ISSUE's tenth, which
// compare judges them by, with unresolved as a possible verdict.
var unbounded = []metricDef{
	{"build_s", "s", "lower", 0.10, "wall time of one core.BuildOpts (Workers = GOMAXPROCS): the median of a cycle's few"},
	{"load_s", "s", "lower", 0.10, "persisted state to ready, the median of a cycle's 9: core.LoadFormat of the saved v2 index (page cache warm); serve.LoadLive replaying the cycle's WAL on live workloads"},
	{"query_us", "us", "lower", 0.10, "mean in-process Searcher.Distance time per pair over a cycle's query stream"},
	{"req_p50_us", "us", "lower", 0.10, "client-observed median latency of the workload's request over a cycle's round"},
	{"req_tail_us", "us", "lower", 0.10, "same, highest of p99/p95/p90/p75 with at least ten samples beyond it, over the requests of all cycles pooled"},
	{"req_s", "1/s", "higher", 0.10, "requests completed per second of a cycle's timed window, all clients together"},
	{"side_p50_us", "us", "lower", 0.10, "client-observed median latency of the workload's side request over a cycle's round"},
}

// workloadLevel is every metric the cycles produce, in the order
// compare prints them.
var workloadLevel = append(append([]metricDef(nil), endToEnd...), unbounded...)

// perLayer is the manifest's per-layer list: what a traced run prints.
var perLayer = append(append([]metricDef(nil), unbounded...), ladder...)

// ladder are the per-layer metrics proper, measured by the traced run's
// span recorder and probes.
var ladder = []metricDef{
	// fixture: gen, graph, landmark, bfs, core build and serialize
	{"gen.graph.s", "s", "lower", 0, "generator wall time (gen.RMAT or gen.BarabasiAlbert)"},
	{"graph.build.s", "s", "lower", 0, "graph.LargestComponent: component labelling and CSR rebuild"},
	{"landmark.select.s", "s", "lower", 0, "landmark.Select, degree strategy"},
	{"core.build.seq_s", "s", "lower", 0, "core.BuildOpts with Workers=1, median of 3"},
	{"core.build.par_s", "s", "lower", 0, "core.BuildOpts with Workers=GOMAXPROCS, median of 3"},
	{"core.build.speedup", "ratio", "higher", 0, "seq_s / par_s"},
	{"core.build.edges_scanned", "count", "lower", 0, "BuildStats.Traversal.EdgesScanned of one build (exact)"},
	{"core.build.bottomup_share", "ratio", "higher", 0, "share of scanned edges examined bottom-up (exact)"},
	{"bfs.full.ms", "ms", "lower", 0, "one bfs.DistancesReuse from the highest-degree vertex, median of 5"},
	{"core.index.entries", "count", "lower", 0, "label entries, the paper's size(L) (exact)"},
	{"core.index.als", "count", "lower", 0, "average label size per vertex (exact)"},
	{"core.save.s", "s", "lower", 0, "Index.SaveAs v2 to the run's temp dir"},
	{"core.load.s", "s", "lower", 0, "core.LoadFormat of that file, median of 5"},
	{"core.load.mb_s", "MB/s", "higher", 0, "index bytes / core.load.s"},
	// query path
	{"core.query.us", "us", "lower", 0, "Searcher.Distance per pair, median over blocks of 256"},
	{"core.query.bound_us", "us", "lower", 0, "Searcher.UpperBound alone on the same pairs"},
	{"core.query.refine_us", "us", "lower", 0, "core.query.us - core.query.bound_us: the bounded bidirectional BFS share"},
	{"core.query.covered_ratio", "ratio", "higher", 0, "share of connected pairs with UpperBound == Distance (Figure 9 as an exact count)"},
	{"core.query.pool_us", "us", "lower", 0, "Index.Distance (pooled searcher) - Searcher.Distance"},
	{"core.searcher.new_us", "us", "lower", 0, "Index.Searcher(): O(n) scratch allocation, median of 21"},
	// single-pair ladder, one client, one pair stream for every rung
	{"serve.inproc.us", "us", "lower", 0, "Server.Distance: snapshot load, searcher pool, vertex checks"},
	{"serve.inproc.self_us", "us", "lower", 0, "serve.inproc.us - core.query.us, block by block"},
	{"wire.point.codec_us", "us", "lower", 0, "request and response framed through a bytes.Buffer, CRC included, no syscalls"},
	{"binary.point.rtt_us", "us", "lower", 0, "hlclient.Distance over loopback, p50"},
	{"binary.point.self_us", "us", "lower", 0, "rtt - core.query.us - serve.inproc.self_us - wire.point.codec_us: syscalls, goroutine hand-offs, client pool"},
	{"http.point.rtt_us", "us", "lower", 0, "keep-alive GET /distance over loopback, p50"},
	{"http.point.self_us", "us", "lower", 0, "http.point.rtt_us - serve.inproc.us"},
	{"router.point.rtt_us", "us", "lower", 0, "hlclient.Distance through a cluster.Router in front of the same server, p50"},
	{"router.point.hop_us", "us", "lower", 0, "router.point.rtt_us - binary.point.rtt_us"},
	{"serve.stats.distance_avg_us", "us", "lower", 0, "the server's own /stats bin_distance average, as a cross-check"},
	{"serve.admission.shed", "count", "lower", 0, "requests shed by the admission gate during the ladder (expect 0)"},
	{"proc.allocs_per_req", "count", "lower", 0, "heap allocations per binary round trip, client and server together"},
	{"proc.gc_pause_ms", "ms", "lower", 0, "total GC pause over the traced run"},
	// batch ladder, 4096-pair requests
	{"core.batch.fan.ns_pair", "ns", "lower", 0, "Searcher.DistanceBatch, 1 source x 4096 targets (shared-BFS path)"},
	{"core.batch.grouped.ns_pair", "ns", "lower", 0, "64 sources x 64 targets (via-vector path)"},
	{"core.batch.uniform.ns_pair", "ns", "lower", 0, "4096 distinct sources: every group has size 1"},
	{"core.batch.pairloop.ns_pair", "ns", "lower", 0, "the Distance loop the batch executor replaces, on the grouped shape"},
	{"serve.batch.inproc_us", "us", "lower", 0, "Server.DistanceBatch per request over the mixed fan/grouped stream"},
	{"serve.batch.self_us", "us", "lower", 0, "serve.batch.inproc_us - Searcher.DistanceBatch on the same requests"},
	{"wire.batch.codec_us", "us", "lower", 0, "AppendPairs/DecodePairs/AppendDistances/DecodeDistances framed through a bytes.Buffer"},
	{"binary.batch.rtt_us", "us", "lower", 0, "hlclient.DistanceBatch over loopback, p50"},
	{"binary.batch.self_us", "us", "lower", 0, "rtt - serve.batch.inproc_us - wire.batch.codec_us"},
	{"http.batch.rtt_us", "us", "lower", 0, "POST /distance/batch over loopback, p50"},
	{"http.batch.json_self_us", "us", "lower", 0, "http.batch.rtt_us - serve.batch.inproc_us: JSON and HTTP"},
	// write path, 8-op single-kind batches replayed by hand on a shadow index
	{"wal.append.ms", "ms", "lower", 0, "WAL.AppendOps, fsync included (the sandbox's temp dir, not a device)"},
	{"dynhl.apply.ms", "ms", "lower", 0, "dynhl.Index.ApplyOps"},
	{"dynhl.apply.landmarks_rebuilt_per_batch", "count", "lower", 0, "Maint().LandmarksRebuilt / batches"},
	{"dynhl.apply.repair_share", "ratio", "higher", 0, "share of maintained batches repaired selectively rather than rebuilt in full"},
	{"dynhl.freeze.ms", "ms", "lower", 0, "dynhl.Index.Freeze: O(n+m+|L|) per batch today"},
	{"serve.publish.ms", "ms", "lower", 0, "Server.Publish: new snapshot and empty searcher pool"},
	{"serve.write.inproc_ms", "ms", "lower", 0, "Server.InsertEdges/DeleteEdges on a WAL-backed live server"},
	{"serve.write.self_ms", "ms", "lower", 0, "serve.write.inproc_ms - (append + apply + freeze + publish)"},
	{"binary.write.rtt_ms", "ms", "lower", 0, "hlclient.InsertEdges/DeleteEdges over loopback, p50"},
	{"binary.write.self_ms", "ms", "lower", 0, "binary.write.rtt_ms - serve.write.inproc_ms"},
	{"wal.bytes_per_op", "B", "lower", 0, "log bytes per logged op, file header included (exact)"},
	{"wal.compact.ms", "ms", "lower", 0, "WAL.CompactTo the replayed ops"},
	{"dynhl.fromcore.ms", "ms", "lower", 0, "dynhl.FromCore: the copy a live server or follower starts from"},
	{"serve.read.idle_p50_us", "us", "lower", 0, "binary single-pair read on the live server, writer stopped"},
	{"serve.read.busy_p50_us", "us", "lower", 0, "same with the writer running: every publish starts an empty pool"},
	{"serve.recover.replay_s", "s", "lower", 0, "serve.LoadLive from graph + index + WAL"},
	{"serve.recover.ops", "count", "lower", 0, "ops in that WAL (exact)"},
	{"serve.live.rebuilds", "count", "lower", 0, "background rebuilds (expect 0: thresholds disabled so landmarks stay fixed)"},
	{"serve.live.writes_rejected", "count", "lower", 0, "writes rejected in degraded mode (expect 0)"},
	// cluster: 1 primary + 2 followers + router on loopback
	{"cluster.snapshot.encode_s", "s", "lower", 0, "serve.EncodeSnapshot into memory"},
	{"cluster.snapshot.decode_s", "s", "lower", 0, "serve.DecodeSnapshot of those bytes"},
	{"cluster.snapshot.bytes", "B", "lower", 0, "snapshot size (exact)"},
	{"cluster.follower.apply_ms", "ms", "lower", 0, "Follower.ReplAppend on a detached follower: decode, apply, freeze, publish"},
	{"cluster.write.ack_ms", "ms", "lower", 0, "single-edge write through the router, send to ack, p50"},
	{"cluster.write.visible_ms", "ms", "lower", 0, "ack to both followers' epoch >= acked epoch, p50"},
	{"cluster.router.write.hop_ms", "ms", "lower", 0, "routed ack p50 - direct-to-primary ack p50"},
	{"cluster.router.read.hop_us", "us", "lower", 0, "routed read p50 - direct-to-follower read p50"},
	{"cluster.ship.lag_ms", "ms", "lower", 0, "ReplicationStats.LagMs sampled right after each ack, median"},
	{"cluster.ship.resyncs", "count", "lower", 0, "snapshot transfers: the bootstrap, one per follower"},
	{"cluster.ship.fenced", "count", "lower", 0, "fenced ship attempts (expect 0)"},
	{"cluster.router.fanout_balance", "ratio", "higher", 0, "min/max of routed reads served per follower"},
	{"cluster.read_after_write.stale_share", "ratio", "lower", 0, "share of immediate post-ack routed reads of a changed edge that still return the pre-write answer; not a failure today"},
	// every traced run
	{"trace.overhead_ratio", "ratio", "lower", 0, "p50 of the workload's request with the span recorder on / off"},
}

// fixtureSpec is the graph and index a workload runs on. A fixture is a
// dataset: its generator seed is fixed here, so every run of a workload
// sees the same graph (checksummed in the result file) and -seed varies
// only what is asked of it — pair streams, batch shapes, op streams.
// Across generator seeds query time on the same family moves by a
// tenth, which would drown the run-to-run spread the bounds rest on.
type fixtureSpec struct {
	Name    string
	Family  string // "rmat" or "ba"
	Scale   uint   // rmat: log2 of the vertex count
	EdgeF   int    // rmat: edge factor
	N       int    // ba: vertices
	Attach  int    // ba: edges per new vertex (average degree = 2*Attach)
	K       int    // landmarks, degree strategy
	GenSeed int64
	// Builds is how many core.BuildOpts calls one cycle's build_s is the
	// median of: more on small graphs, where one build is a few
	// milliseconds.
	Builds int
}

var (
	fxRMAT  = fixtureSpec{Name: "rmat18", Family: "rmat", Scale: 18, EdgeF: 8, K: 20, GenSeed: 42, Builds: 2}
	fxBA100 = fixtureSpec{Name: "ba100k", Family: "ba", N: 100_000, Attach: 5, K: 20, GenSeed: 42, Builds: 3}
	fxBA20  = fixtureSpec{Name: "ba20k", Family: "ba", N: 20_000, Attach: 5, K: 16, GenSeed: 42, Builds: 9}
)

// batchPairs is the request size of the batch shapes: above
// sparseMinGroup and n/64 on BA-100k, so a fan request takes the
// shared-BFS path.
const batchPairs = 4096

// writeBatchOps is the op count of one churn write request.
const writeBatchOps = 8

// deleteRatio is the share of churn ops that delete.
const deleteRatio = 0.3

// workloadDef describes one workload. Counts are per cycle at
// -seconds runSeconds and scale linearly with -seconds; a round is preceded by a
// discarded warm-up of a tenth of its count.
type workloadDef struct {
	Name    string
	Why     string
	ReqDoc  string // what req_* times
	SideDoc string // what side_p50_us times
	Params  string
	Fixture fixtureSpec
	// Queries is the length of the in-process query stream behind
	// query_us and the reference checksums.
	Queries int
	// Req and Side are the per-client request counts of one cycle's round.
	Req, Side int
	// Sections are the sections of the traced ladder this workload owns
	// and walks at full size (see sized).
	Sections []string
	// TopRung is the ladder rung that is this workload's own request; the
	// traced run times it with the recorder off and on.
	TopRung string
	// plan prepares the workload's streams and references on the first
	// cycle's fixture and returns what measures one cycle on a stack.
	plan func(e *env, fx *fixture) func(st *stack)
}

var workloads = []*workloadDef{
	{
		Name:    "offline-rmat",
		Why:     "the paper's own evaluation (build time, index size, query time); bfs and core do all the work, so a transport change must not move it",
		ReqDoc:  "one in-process Searcher.Distance (timed in blocks of 256)",
		SideDoc: "one pooled Index.Distance (timed in blocks of 256)",
		Params:  "R-MAT scale 18, edge factor 8, LCC (n~148k, m~2.0M), k=20; per cycle 2 builds, save v2, 9 loads, 1 dedicated Searcher",
		Fixture: fxRMAT, Queries: 61_440, Req: 61_440, Side: 30_720,
		Sections: []string{"core"}, TopRung: "core.query", plan: planOffline,
	},
	{
		Name:    "point-ba",
		Why:     "smallest request the system serves: core is a fifth of a binary round trip, so wire, transport and serve do most of the work",
		ReqDoc:  "one hlclient.Distance over the binary protocol, 2 connections",
		SideDoc: "one keep-alive HTTP GET /distance, 2 clients",
		Params:  "BA n=100k deg 10 (m~500k), k=20, read-only serve.New, zero serve.Config",
		Fixture: fxBA100, Queries: 30_720, Req: 30_720, Side: 15_360,
		Sections: []string{"core", "point"}, TopRung: "binary.point", plan: planPoint,
	},
	{
		Name:    "batch-ba",
		Why:     "same layers as point-ba used differently: transport is amortised over 4096 pairs and core/batch.go does most of the work",
		ReqDoc:  "one 4096-pair hlclient.DistanceBatch, fan and grouped shapes alternating, 1 connection",
		SideDoc: "the same request as HTTP POST /distance/batch, 1 client",
		Params:  "BA n=100k deg 10, k=20, read-only serve.New; fan = 1 source x 4096 targets, grouped = 64 sources x 64 targets",
		Fixture: fxBA100, Queries: 30_720, Req: 80, Side: 12,
		Sections: []string{"batch"}, TopRung: "binary.batch", plan: planBatch,
	},
	{
		Name:    "churn-ba20k",
		Why:     "writes beside reads on one server: WAL fsync, dynhl.ApplyOps, Freeze and publish do most of the work; restart cost shows in load_s",
		ReqDoc:  "one 8-op single-kind write batch over the binary protocol, send to ack, 1 writer, 30% of ops delete",
		SideDoc: "one binary single-pair read beside the writer, 1 reader",
		Params:  "BA n=20k deg 10, k=16, serve.NewLive with a real WAL, RebuildThreshold -1 so landmarks stay fixed; Close then LoadLive",
		Fixture: fxBA20, Queries: 30_720, Req: 50,
		Sections: []string{"write"}, TopRung: "binary.write", plan: planChurn,
	},
	{
		Name:    "cluster-ba20k",
		Why:     "the router hop, WAL shipping and follower apply do most of the work; single-edge writes are the shape where selective repair runs",
		ReqDoc:  "one single-edge write through the router, send to ack, 1 writer; the next write waits until both followers reach the acked epoch, so req_s counts writes visible everywhere",
		SideDoc: "one routed single-pair read beside the writer, 1 reader",
		Params:  "BA n=20k deg 10, k=16; 1 primary (shipper + WAL) + 2 followers + router on loopback",
		Fixture: fxBA20, Queries: 30_720, Req: 40,
		Sections: []string{"cluster"}, TopRung: "cluster.write", plan: planCluster,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}
