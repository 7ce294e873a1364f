package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"highway/internal/core"
	"highway/internal/graph"
	"highway/internal/hlclient"
	"highway/internal/serve"
	"highway/internal/workload"
)

var bg = context.Background()

// round runs one cycle's round of a closed-loop phase: a discarded
// warm-up at a tenth of n, a forced GC outside the clock, then n
// measured requests per client.
func (e *env) round(n int, run func(n int, measured bool) timed) timed {
	run(max(1, n/10), false)
	runtime.GC()
	return run(n, true)
}

// p50 is the median latency of all clients' requests together.
func p50(t timed) float64 { return percentile(t.sorted(), 50) }

// request reports a round as this cycle's round of the workload's
// request: count requests completed in the window t, whose central
// latency mid gives.
func (e *env) request(t timed, count int, mid func(timed) float64) {
	e.cycleValue("req_p50_us", mid(t))
	e.cycleValue("req_s", float64(count)/t.wall)
	e.requests = append(e.requests, t.sorted())
}

// padded keeps per-client checksums on their own cache lines.
type padded struct {
	sum uint64
	_   [56]byte
}

func freshSums(n int) []padded {
	s := make([]padded, n)
	for i := range s {
		s[i].sum = fnvOffset
	}
	return s
}

// checkSums counts a client's whole round as failed when its answer
// checksum differs from the in-process reference.
func (e *env) checkSums(what string, n int, sums []padded, refs []uint64) {
	for c := range sums {
		if sums[c].sum != refs[c] {
			e.fail(n, "%s client %d: answer checksum %016x, in-process reference %016x", what, c, sums[c].sum, refs[c])
		}
	}
}

// planOffline: the request is Searcher.Distance through one dedicated
// searcher, the side request the pooled Index.Distance. A block of 256
// calls is the sample.
func planOffline(e *env, fx *fixture) func(*stack) {
	nv := fx.g.NumVertices()
	stream := func(label string, count int) ([][2]int32, uint64) {
		pairs := pairStream(nv, e.scaled(count), e.sub(label))
		ref := refChecksum(fx.ix, pairs)
		e.note("checksum."+label, "%016x", ref)
		return pairs, ref
	}
	inproc := func(label string, pairs [][2]int32, ref uint64, dist func(s, t int32) int32) timed {
		return e.round(len(pairs), func(n int, measured bool) timed {
			sum := uint64(fnvOffset)
			t := runBlocks(n, func(i int) { sum = fnvAdd(sum, dist(pairs[i][0], pairs[i][1])) })
			if measured {
				e.attempted.Add(int64(n))
				if sum != ref {
					e.fail(n, "%s: answer checksum %016x, reference %016x", label, sum, ref)
				}
			}
			return t
		})
	}
	req, reqRef := stream("req", e.wl.Req)
	side, sideRef := stream("side", e.wl.Side)
	return func(st *stack) {
		ix := st.fx.ix
		e.request(inproc("req", req, reqRef, ix.Searcher().Distance), len(req), p50)
		e.cycleValue("side_p50_us", p50(inproc("side", side, sideRef, ix.Distance)))
	}
}

// clientStreams gives each client its own seeded pair stream and the
// in-process reference checksum of it.
func clientStreams(e *env, ix *core.Index, label string, clients, n int) ([][][2]int32, []uint64) {
	streams := make([][][2]int32, clients)
	refs := make([]uint64, clients)
	for c := range streams {
		streams[c] = pairStream(ix.Graph().NumVertices(), n, e.sub(fmt.Sprintf("%s%d", label, c)))
		refs[c] = refChecksum(ix, streams[c])
		e.note(fmt.Sprintf("checksum.%s%d", label, c), "%016x", refs[c])
	}
	return streams, refs
}

// httpDistance issues one GET /distance and returns the answer.
func httpDistance(cl *http.Client, base string, s, t int32, buf *bytes.Buffer) (int32, error) {
	resp, err := cl.Get(base + "/distance?s=" + strconv.Itoa(int(s)) + "&t=" + strconv.Itoa(int(t)))
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("http status %s", resp.Status)
	}
	const key = `"distance":`
	body := buf.Bytes()
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("no distance in %q", body)
	}
	end := i + len(key)
	for end < len(body) && (body[end] == '-' || body[end] >= '0' && body[end] <= '9') {
		end++
	}
	d, err := strconv.ParseInt(string(body[i+len(key):end]), 10, 32)
	return int32(d), err
}

// pointClients is the client count of the single-pair phases: one per
// core of the 2-core sandbox the counts were sized on.
const pointClients = 2

// planPoint: the request is one binary Distance, the side request one
// HTTP GET /distance; 2 closed-loop clients each.
func planPoint(e *env, fx *fixture) func(*stack) {
	reqs, reqRefs := clientStreams(e, fx.ix, "req", pointClients, e.scaled(e.wl.Req))
	sides, sideRefs := clientStreams(e, fx.ix, "side", pointClients, e.scaled(e.wl.Side))
	bufs := make([]bytes.Buffer, pointClients)
	// clients runs one round of do over each client's own stream.
	clients := func(what string, streams [][][2]int32, refs []uint64, do func(c int, s, t int32) (int32, error)) timed {
		return e.round(len(streams[0]), func(n int, measured bool) timed {
			sums := freshSums(pointClients)
			t := runClients(pointClients, n, func(c, i int) {
				d, err := do(c, streams[c][i][0], streams[c][i][1])
				if err != nil {
					e.fail(1, "%s distance: %v", what, err)
				}
				sums[c].sum = fnvAdd(sums[c].sum, d)
			})
			if measured {
				e.attempted.Add(int64(pointClients * n))
				e.checkSums(what, n, sums, refs)
			}
			return t
		})
	}
	return func(st *stack) {
		e.request(clients("binary", reqs, reqRefs, func(c int, s, t int32) (int32, error) {
			return st.bin[c].Distance(bg, s, t)
		}), pointClients*len(reqs[0]), p50)
		base := "http://" + st.httpAddr
		e.cycleValue("side_p50_us", p50(clients("http", sides, sideRefs, func(c int, s, t int32) (int32, error) {
			return httpDistance(st.web[c], base, s, t, &bufs[c])
		})))
	}
}

// The two batch shapes. fan crosses sparseMinGroup and n/64 and takes
// the shared-BFS path; grouped stays on the via-vector path.
func fanRequest(rng *rand.Rand, nv int32) [][2]int32 {
	pairs := make([][2]int32, batchPairs)
	src := rng.Int31n(nv)
	for i := range pairs {
		pairs[i] = [2]int32{src, rng.Int31n(nv)}
	}
	return pairs
}

func groupedRequest(rng *rand.Rand, nv int32) [][2]int32 {
	const group = 64
	pairs := make([][2]int32, 0, batchPairs)
	for len(pairs) < batchPairs {
		src := rng.Int31n(nv)
		for i := 0; i < group; i++ {
			pairs = append(pairs, [2]int32{src, rng.Int31n(nv)})
		}
	}
	return pairs
}

// batchDistinct is how many distinct requests a round cycles through;
// it bounds the pair-loop reference pass, not the measured work.
const batchDistinct = 32

// batchRequests returns the distinct requests of the batch stream, fan
// and grouped alternating, with the pair-loop reference checksum of each.
func batchRequests(e *env, ix *core.Index, label string) ([][][2]int32, []uint64) {
	rng := rand.New(rand.NewSource(e.sub(label)))
	nv := int32(ix.Graph().NumVertices())
	reqs := make([][][2]int32, batchDistinct)
	refs := make([]uint64, batchDistinct)
	all := uint64(fnvOffset)
	for i := range reqs {
		if i%2 == 0 {
			reqs[i] = fanRequest(rng, nv)
		} else {
			reqs[i] = groupedRequest(rng, nv)
		}
		refs[i] = refChecksum(ix, reqs[i])
		all = fnvAdd(fnvAdd(all, int32(refs[i])), int32(refs[i]>>32))
	}
	e.note("checksum."+label, "%016x", all)
	return reqs, refs
}

func sumOf(ds []int32) uint64 {
	sum := uint64(fnvOffset)
	for _, d := range ds {
		sum = fnvAdd(sum, d)
	}
	return sum
}

// httpBatch issues one POST /distance/batch, JSON both ways.
func httpBatch(cl *http.Client, base string, pairs [][2]int32, body *bytes.Buffer) ([]int32, error) {
	body.Reset()
	if err := json.NewEncoder(body).Encode(struct {
		Pairs [][2]int32 `json:"pairs"`
	}{pairs}); err != nil {
		return nil, err
	}
	resp, err := cl.Post(base+"/distance/batch", "application/json", body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // keep the connection reusable
		return nil, fmt.Errorf("http status %s", resp.Status)
	}
	var out struct {
		Distances []int32 `json:"distances"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out.Distances, err
}

// planBatch: the request is one 4096-pair binary batch, the side
// request the same batch over HTTP/JSON; one client, because each
// request already holds a core for milliseconds.
func planBatch(e *env, fx *fixture) func(*stack) {
	reqs, refs := batchRequests(e, fx.ix, "req")
	// An even count, so a round holds as many fan as grouped requests.
	even := func(count int) int { return max(2, e.scaled(count)&^1) }
	batches := func(count int, what string, call func(pairs [][2]int32) ([]int32, error)) timed {
		return e.round(even(count), func(n int, measured bool) timed {
			return runClients(1, n, func(_, i int) {
				j := i % batchDistinct
				ds, err := call(reqs[j])
				if measured {
					e.attempted.Add(1)
				}
				if err != nil {
					e.fail(1, "%s batch: %v", what, err)
				} else if sumOf(ds) != refs[j] {
					e.fail(1, "%s batch %d: answers differ from the pair-loop reference", what, j)
				}
			})
		})
	}
	// One client's latencies, in request order, alternate the two shapes.
	oneClientShapeMid := func(t timed) float64 { return shapeMid(t.lat[0]) }
	var dst []int32
	var body bytes.Buffer
	return func(st *stack) {
		e.request(batches(e.wl.Req, "binary", func(pairs [][2]int32) ([]int32, error) {
			var err error
			dst, err = st.bin[0].DistanceBatch(bg, pairs, dst)
			return dst, err
		}), even(e.wl.Req), oneClientShapeMid)
		base := "http://" + st.httpAddr
		e.cycleValue("side_p50_us", oneClientShapeMid(batches(e.wl.Side, "http", func(pairs [][2]int32) ([]int32, error) {
			return httpBatch(st.web[0], base, pairs, &body)
		})))
	}
}

// edgeSet is the benchmark's own record of the graph a write workload
// should end with: the fixture's edges with every acked op applied.
type edgeSet map[[2]int32]struct{}

func edgesOf(g *graph.Graph) edgeSet {
	set := edgeSet{}
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(v) {
			if v < u {
				set[[2]int32{v, u}] = struct{}{}
			}
		}
	}
	return set
}

func (s edgeSet) apply(del bool, edges [][2]int32) {
	for _, ed := range edges {
		a, b := min(ed[0], ed[1]), max(ed[0], ed[1])
		switch {
		case a == b: // self-loops are acked and ignored
		case del:
			delete(s, [2]int32{a, b})
		default:
			s[[2]int32{a, b}] = struct{}{}
		}
	}
}

// rebuilt is the v2 bytes of a from-scratch build over the edge set.
func (s edgeSet) rebuilt(nv int, lms []int32) []byte {
	edges := make([][2]int32, 0, len(s))
	for ed := range s {
		edges = append(edges, ed)
	}
	g := must(graph.FromEdges(nv, edges))
	ix, _ := buildIndex(g, lms, 0)
	return indexBytes(ix)
}

// opBatcher cuts a workload.OpStream into single-kind batches, because
// the protocol's write requests are single-kind: ops queue by kind in
// stream order and a batch leaves when writeBatchOps of a kind have
// gathered.
type opBatcher struct {
	ops      *workload.OpStream
	ins, del [][2]int32
}

func (b *opBatcher) next() (del bool, edges [][2]int32) {
	for {
		if len(b.ins) >= writeBatchOps {
			edges, b.ins = b.ins[:writeBatchOps:writeBatchOps], b.ins[writeBatchOps:]
			return false, edges
		}
		if len(b.del) >= writeBatchOps {
			edges, b.del = b.del[:writeBatchOps:writeBatchOps], b.del[writeBatchOps:]
			return true, edges
		}
		if op := b.ops.Next(); op.Del {
			b.del = append(b.del, [2]int32{op.A, op.B})
		} else {
			b.ins = append(b.ins, [2]int32{op.A, op.B})
		}
	}
}

// writer is anything that accepts the protocol's two write requests.
type writer interface {
	InsertEdges(ctx context.Context, edges [][2]int32) (serve.InsertResult, error)
	DeleteEdges(ctx context.Context, edges [][2]int32) (serve.DeleteResult, error)
}

// write sends one write request and returns the epoch it is visible at
// and how many edges it changed.
func write(w writer, del bool, edges [][2]int32) (epoch uint64, changed int, err error) {
	if del {
		res, err := w.DeleteEdges(bg, edges)
		return res.Epoch, res.Deleted, err
	}
	res, err := w.InsertEdges(bg, edges)
	return res.Epoch, res.Inserted, err
}

// readBeside runs single-pair reads on cl until stop is set and returns
// their latencies. Answers change under the writer, so they are
// checked by the byte-identity gates at the end of the cycle, not here.
func readBeside(e *env, cl *hlclient.Client, nv int, seed int64, stop *atomic.Bool) []float64 {
	pairs := workload.NewStreamN(nv, seed)
	var lat []float64
	for !stop.Load() {
		p := pairs.Next()
		t0 := time.Now()
		_, err := cl.Distance(bg, p.S, p.T)
		lat = append(lat, float64(time.Since(t0))/1e3)
		if err != nil {
			e.fail(1, "read beside writer: %v", err)
		}
	}
	return lat
}

// writeBesideReads runs one round of the write workloads' shared shape:
// one writer completing e.wl.Req writes through doWrite, which returns
// the send-to-ack latency of its write in microseconds, while one reader
// issues single-pair reads on readCl until the writer has finished. The
// request is the write as the client sees it acked, the side request the
// read, and req_s the writes completed per second of the writer's whole
// loop, whatever else doWrite waits for.
func writeBesideReads(e *env, nv int, readCl *hlclient.Client, doWrite func() float64) {
	var reads []float64
	n := e.scaled(e.wl.Req)
	t := e.round(n, func(n int, measured bool) timed {
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			reads = readBeside(e, readCl, nv, e.sub(fmt.Sprintf("reader%v", measured)), &stop)
		}()
		acks := make([]float64, n)
		t0 := time.Now()
		for i := range acks {
			acks[i] = doWrite()
		}
		wall := since(t0)
		stop.Store(true)
		wg.Wait()
		if measured {
			e.attempted.Add(int64(n + len(reads)))
		}
		return timed{[][]float64{acks}, wall}
	})
	e.request(t, n, p50)
	e.cycleValue("side_p50_us", median(reads))
}

// liveBytes is the v2 bytes of a live server's quiesced state.
func liveBytes(srv *serve.Server) []byte {
	_, ix, _, err := srv.FrozenState()
	if err != nil {
		fatal(err)
	}
	return indexBytes(ix)
}

// checkRestart closes the stack, then restarts a live server from the
// persisted graph, index and WAL: load_s is the LoadLive wall time, and
// the replayed state must be byte-identical to want.
func checkRestart(e *env, st *stack, want []byte) {
	st.close()
	times := make([]float64, loads)
	for i := range times {
		t0 := time.Now()
		srv, err := serve.LoadLive(st.graphPath(), st.indexPath(), st.walPath(), liveConfig(nil))
		times[i] = since(t0)
		if err != nil {
			fatal(err)
		}
		if i == 0 {
			e.check(bytes.Equal(liveBytes(srv), want), "index after Close + LoadLive WAL replay differs from a from-scratch build")
			e.note("ops.replayed", "%d", srv.LiveStats().WALLen)
		}
		if err := srv.Close(); err != nil {
			fatal(err)
		}
	}
	e.cycleValue("load_s", median(times))
}

// rebuiltAfter is the byte-identity reference of a write workload: the
// v2 bytes of a from-scratch build on the edge set the acked writes
// leave.
func rebuiltAfter(fx *fixture, acked []writeReq) []byte {
	edges := edgesOf(fx.g)
	for _, w := range acked {
		edges.apply(w.del, w.edges)
	}
	return edges.rebuilt(fx.g.NumVertices(), fx.lms)
}

// opStream is the op stream of the cycle under way. Each cycle draws its
// own from the run's seed and replays it on a fresh copy of the fixture:
// what one write costs depends on the landmarks it dirties (14 to 56 ms
// for a single edge on BA-20k), so a run samples nine cycles' worth of
// distinct writes, not one cycle's worth nine times.
func (e *env) opStream(nv int) *workload.OpStream {
	return workload.NewOpStream(nv, deleteRatio, 0, e.sub(fmt.Sprintf("ops%d", e.cycle)))
}

// timedWrite sends one write request and returns its send-to-ack
// latency in microseconds and the epoch it is visible at.
func timedWrite(w writer, del bool, edges [][2]int32) (us float64, epoch uint64, err error) {
	t0 := time.Now()
	epoch, _, err = write(w, del, edges)
	return float64(time.Since(t0)) / 1e3, epoch, err
}

// planChurn: the request is one 8-op write batch, the side request a
// single-pair read beside it, both over the binary protocol.
func planChurn(e *env, fx *fixture) func(*stack) {
	nv := fx.g.NumVertices()
	return func(st *stack) {
		batches := &opBatcher{ops: e.opStream(nv)}
		var acked []writeReq
		writeBesideReads(e, nv, st.bin[1], func() float64 {
			del, batch := batches.next()
			us, _, err := timedWrite(st.bin[0], del, batch)
			if err != nil {
				e.fail(1, "write batch: %v", err)
			} else {
				acked = append(acked, writeReq{del, batch})
			}
			return us
		})
		e.note("ops.acked", "%d a cycle", len(acked)*writeBatchOps)

		want := rebuiltAfter(st.fx, acked)
		e.note(fmt.Sprintf("checksum.final_index%d", e.cycle), "%016x", fnvBytes(want))
		e.check(bytes.Equal(liveBytes(st.srv), want), "quiesced index differs from a from-scratch build on the final edge set")
		if ls := st.srv.LiveStats(); ls.Rebuilds+ls.WritesRejected > 0 {
			e.fail(1, "live server rebuilt %d times and rejected %d writes; expected neither", ls.Rebuilds, ls.WritesRejected)
		}
		checkRestart(e, st, want)
	}
}

// planCluster: the request is one single-edge write through the router,
// timed from send to ack; after the ack the writer issues one immediate
// routed read of that edge and waits until both followers have reached
// the acked epoch before its next write, so req_s is the rate of writes
// acked and visible on every replica. The side request is a routed
// single-pair read beside the writer.
func planCluster(e *env, fx *fixture) func(*stack) {
	nv := fx.g.NumVertices()
	return func(st *stack) {
		ops := e.opStream(nv)
		var acked []writeReq
		writeBesideReads(e, nv, st.bin[1], func() float64 {
			op := ops.Next()
			edge := [][2]int32{{op.A, op.B}}
			us, epoch, err := timedWrite(st.bin[0], op.Del, edge)
			if err != nil {
				e.fail(1, "routed write: %v", err)
				return us
			}
			// A follower that has not applied the write yet still gives the
			// pre-write answer; the traced run counts how often (stale_share).
			if _, err := st.bin[0].Distance(bg, op.A, op.B); err != nil {
				e.fail(1, "read after write: %v", err)
			}
			st.cl.waitVisible(epoch)
			acked = append(acked, writeReq{op.Del, edge})
			return us
		})
		e.note("ops.acked", "%d a cycle", len(acked))

		want := rebuiltAfter(st.fx, acked)
		e.note(fmt.Sprintf("checksum.final_index%d", e.cycle), "%016x", fnvBytes(want))
		e.check(bytes.Equal(liveBytes(st.cl.primary), want), "primary differs from a from-scratch build on the final edge set")
		for i, f := range st.cl.followers {
			ix, ok := f.Server().Index().(*core.Index)
			e.check(ok && bytes.Equal(indexBytes(ix), want), "follower %d is not byte-identical to the primary", i)
		}
		checkRestart(e, st, want)
	}
}
