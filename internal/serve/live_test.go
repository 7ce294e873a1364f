package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"highway/internal/core"
	"highway/internal/dynhl"
	"highway/internal/gen"
	"highway/internal/graph"
	"highway/internal/landmark"
	"highway/internal/workload"
)

// liveBase builds the base state for live-serving tests: a scale-free
// graph, its landmarks and its static index.
func liveBase(t *testing.T, n int, k int) (*graph.Graph, []int32, *core.Index) {
	t.Helper()
	g := gen.BarabasiAlbert(n, 3, 42)
	lms, err := landmark.Select(g, landmark.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildParallel(g, lms)
	if err != nil {
		t.Fatal(err)
	}
	return g, lms, ix
}

// saveBase persists graph+index the way hlbuild would and returns the
// three paths LoadLive needs.
func saveBase(t *testing.T, g *graph.Graph, ix *core.Index) (graphPath, indexPath, walPath string) {
	t.Helper()
	dir := t.TempDir()
	graphPath = filepath.Join(dir, "g.hwg")
	indexPath = graphPath + ".idx"
	walPath = filepath.Join(dir, "edges.wal")
	if err := g.SaveBinary(graphPath); err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(indexPath); err != nil {
		t.Fatal(err)
	}
	return graphPath, indexPath, walPath
}

func postEdges(t *testing.T, url, body string) (int, InsertResult, errorBody) {
	t.Helper()
	resp, err := http.Post(url+"/edges", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var res InsertResult
	var e errorBody
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
	} else {
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
	}
	return resp.StatusCode, res, e
}

// deleteEdges is postEdges for the DELETE method.
func deleteEdges(t *testing.T, url, body string) (int, DeleteResult, errorBody) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+"/edges", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var res DeleteResult
	var e errorBody
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
	} else {
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
	}
	return resp.StatusCode, res, e
}

func TestLiveInsertEdgesHTTP(t *testing.T) {
	_, _, ix := liveBase(t, 400, 8)
	s, err := NewLive(ix, LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Find a pair at distance > 1 so inserting the edge visibly changes
	// the answer.
	var a, b int32
	sr := ix.NewSearcher()
	for u := int32(0); u < 400; u++ {
		if d := sr.Distance(0, u); d > 2 {
			a, b = 0, u
			break
		}
	}
	before, err := s.Distance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if before <= 1 {
		t.Fatalf("test pair d(%d,%d)=%d, want > 1", a, b, before)
	}

	code, res, _ := postEdges(t, ts.URL, fmt.Sprintf(`{"edge":[%d,%d]}`, a, b))
	if code != http.StatusOK || res.Accepted != 1 || res.Inserted != 1 || res.Epoch != 1 {
		t.Fatalf("insert: code %d result %+v", code, res)
	}
	// The write is visible to the very next read.
	var dr distanceResponse
	if code := getJSON(t, fmt.Sprintf("%s/distance?s=%d&t=%d", ts.URL, a, b), &dr); code != http.StatusOK || dr.Distance != 1 {
		t.Fatalf("after insert: code %d d=%d, want 1", code, dr.Distance)
	}

	// Duplicate: accepted but not inserted; epoch still advances (the
	// batch was logged).
	code, res, _ = postEdges(t, ts.URL, fmt.Sprintf(`{"edge":[%d,%d]}`, a, b))
	if code != http.StatusOK || res.Accepted != 1 || res.Inserted != 0 {
		t.Fatalf("duplicate insert: code %d result %+v", code, res)
	}

	// Batch form.
	code, res, _ = postEdges(t, ts.URL, `{"edges":[[1,5],[2,9],[3,3]]}`)
	if code != http.StatusOK || res.Accepted != 3 {
		t.Fatalf("batch insert: code %d result %+v", code, res)
	}

	// Deletion round trip: remove the edge inserted above; the next read
	// sees the repaired distance. Deleting it again is an acked no-op.
	dcode, dres, _ := deleteEdges(t, ts.URL, fmt.Sprintf(`{"edge":[%d,%d]}`, a, b))
	if dcode != http.StatusOK || dres.Accepted != 1 || dres.Deleted != 1 {
		t.Fatalf("delete: code %d result %+v", dcode, dres)
	}
	if code := getJSON(t, fmt.Sprintf("%s/distance?s=%d&t=%d", ts.URL, a, b), &dr); code != http.StatusOK || dr.Distance == 1 {
		t.Fatalf("after delete: code %d d=%d, want != 1", code, dr.Distance)
	}
	dcode, dres, _ = deleteEdges(t, ts.URL, fmt.Sprintf(`{"edge":[%d,%d]}`, a, b))
	if dcode != http.StatusOK || dres.Accepted != 1 || dres.Deleted != 0 {
		t.Fatalf("double delete: code %d result %+v", dcode, dres)
	}

	// /stats exposes the live section, including the deletion counters.
	var st statsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.Live == nil || st.Live.Epoch == 0 || st.Live.WALEnabled || st.Live.AcceptedEdges != 5 {
		t.Fatalf("live stats %+v", st.Live)
	}
	if st.Live.AcceptedDeletes != 2 || st.Live.EdgesDeleted != 1 {
		t.Fatalf("deletion stats %+v", st.Live)
	}
}

func TestReadOnlyServerRejectsUpdates(t *testing.T) {
	_, _, ix := liveBase(t, 100, 4)
	s := New(ix, Config{})
	if _, err := s.InsertEdges([][2]int32{{0, 1}}); err != ErrReadOnly {
		t.Fatalf("InsertEdges on read-only server: %v, want ErrReadOnly", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/edges", "application/json", strings.NewReader(`{"edge":[0,1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /edges on read-only server: %d, want 404", resp.StatusCode)
	}
	// /stats must not claim live counters.
	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Live != nil {
		t.Fatalf("read-only /stats has live section: %+v", st.Live)
	}
}

// TestLiveRestartReplaysWAL is acceptance criterion (a): distances after
// a restart+replay of a mixed insert/delete schedule are identical to a
// from-scratch dynamic build over the same op sequence, and the log on
// disk is byte-identical to the acked history (inserts as plain
// records, deletes one's-complement).
func TestLiveRestartReplaysWAL(t *testing.T) {
	g, lms, ix := liveBase(t, 500, 8)
	graphPath, indexPath, walPath := saveBase(t, g, ix)

	// No checkpoints: this test isolates the replay path (the stress
	// test covers replay ⊕ compaction together).
	cfg := LiveConfig{RebuildThreshold: -1}
	srvA, err := LoadLive(graphPath, indexPath, walPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	live := newLiveEdges(g)
	var history []dynhl.Op
	for batch := 0; batch < 14; batch++ {
		var ops []dynhl.Op
		if batch%3 == 2 {
			// Delete a handful of live edges (base or freshly inserted).
			for i := 0; i < 5; i++ {
				e := live.list[rng.Intn(len(live.list))]
				ops = append(ops, dynhl.Op{A: e[0], B: e[1], Del: true})
			}
		} else {
			for i := 0; i < 8; i++ {
				ops = append(ops, dynhl.Op{A: rng.Int31n(500), B: rng.Int31n(500)})
			}
		}
		if err := sendOps(srvA, ops); err != nil {
			t.Fatal(err)
		}
		history = append(history, ops...)
		live.ack(ops)
	}
	if err := srvA.Close(); err != nil { // appends were fsynced at ack; Close adds nothing a crash would lose
		t.Fatal(err)
	}

	// The log on disk is exactly the acked op history, no more, no less.
	logBytes, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := expectedWALBytes(history); !bytes.Equal(logBytes, want) {
		t.Fatalf("WAL is not byte-identical to the acked history: %d bytes on disk, want %d", len(logBytes), len(want))
	}

	srvB, err := LoadLive(graphPath, indexPath, walPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	if st := srvB.LiveStats(); st.WALLen != len(history) {
		t.Fatalf("replayed WAL has %d records, want %d", st.WALLen, len(history))
	}

	// From-scratch dynamic build over the same op sequence.
	base, err := core.BuildParallel(g, lms)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dynhl.FromCore(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.ApplyOps(history); err != nil {
		t.Fatal(err)
	}
	for _, p := range workload.RandomPairs(g, 400, 99) {
		want := ref.Distance(p.S, p.T)
		got, err := srvB.Distance(p.S, p.T)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("after replay: d(%d,%d) = %d, want %d", p.S, p.T, got, want)
		}
	}
}

// pairKey packs a query pair for the monotonicity map.
func pairKey(s, t int32) int64 { return int64(s)<<32 | int64(uint32(t)) }

// TestLiveStressRebuildAndRestart is the -race stress test of the
// acceptance criteria: concurrent POST /edges and GET /distance traffic,
// a kill + restart mid-stream, and threshold-triggered checkpoints. It
// verifies that
//
//	(a) the persisted snapshot ⊕ the replayed WAL yield distances
//	    identical to a from-scratch dynamic build over the same edge
//	    sequence, and
//	(b) with checkpoints compacting the log underneath, no reader ever
//	    observes an HTTP error, a distance increase (edges are only
//	    added, so any regression means a stale or torn snapshot), or —
//	    right after a write is acknowledged — an answer older than that
//	    write.
func TestLiveStressRebuildAndRestart(t *testing.T) {
	const (
		nVertices  = 600
		batches    = 30
		batchSize  = 5
		killAfter  = 15
		nReaders   = 4
		probeCount = 3
	)
	g, lms, ix := liveBase(t, nVertices, 10)
	graphPath, indexPath, walPath := saveBase(t, g, ix)
	// Threshold low enough that both the pre-kill and post-restart
	// phases checkpoint under the stream.
	cfg := LiveConfig{RebuildThreshold: 40}

	srv, err := LoadLive(graphPath, indexPath, walPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	// Reference: from-scratch dynamic index fed the same sequence.
	base, err := core.BuildParallel(g, lms)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dynhl.FromCore(base)
	if err != nil {
		t.Fatal(err)
	}

	// Readers hammer GET /distance and /stats. Every pair's distance
	// must be non-increasing over time (-1 = unreachable = +inf): any
	// increase means a reader saw a snapshot older than one it already
	// observed, i.e. a broken publication.
	var (
		readerWG   sync.WaitGroup
		stopRead   chan struct{}
		readerErrs = make(chan error, nReaders*2)
	)
	dVal := func(d int32) int64 {
		if d < 0 {
			return int64(1) << 40 // unreachable sorts above every real distance
		}
		return int64(d)
	}
	startReaders := func(url string) {
		stopRead = make(chan struct{})
		for r := 0; r < nReaders; r++ {
			readerWG.Add(1)
			go func(seed int64) {
				defer readerWG.Done()
				rng := rand.New(rand.NewSource(seed))
				last := make(map[int64]int64)
				for i := 0; ; i++ {
					select {
					case <-stopRead:
						return
					default:
					}
					s0, t0 := rng.Int31n(nVertices), rng.Int31n(nVertices)
					resp, err := http.Get(fmt.Sprintf("%s/distance?s=%d&t=%d", url, s0, t0))
					if err != nil {
						readerErrs <- fmt.Errorf("reader: %w", err)
						return
					}
					var dr distanceResponse
					err = json.NewDecoder(resp.Body).Decode(&dr)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						readerErrs <- fmt.Errorf("reader: status %d err %v", resp.StatusCode, err)
						return
					}
					k := pairKey(s0, t0)
					if prev, ok := last[k]; ok && dVal(dr.Distance) > prev {
						readerErrs <- fmt.Errorf("reader: d(%d,%d) increased %d -> %d across snapshots", s0, t0, prev, dr.Distance)
						return
					}
					last[k] = dVal(dr.Distance)
					if i%50 == 0 {
						resp, err := http.Get(url + "/stats")
						if err != nil {
							readerErrs <- fmt.Errorf("reader stats: %w", err)
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							readerErrs <- fmt.Errorf("reader stats: status %d", resp.StatusCode)
							return
						}
					}
				}
			}(int64(1000 + r))
		}
	}
	stopReaders := func() {
		close(stopRead)
		readerWG.Wait()
	}

	// Writer: POST batches over HTTP, mirror them into ref after each
	// ack, and immediately verify probe pairs — the just-acknowledged
	// write must already be visible (nothing "stale beyond the WAL").
	// This test has a single writer, so server and ref states coincide
	// exactly between acks.
	rng := rand.New(rand.NewSource(5))
	probes := make([]workload.Pair, probeCount)
	for i := range probes {
		probes[i] = workload.Pair{S: rng.Int31n(nVertices), T: rng.Int31n(nVertices)}
	}
	var history [][2]int32
	writeBatch := func(url string) {
		t.Helper()
		edges := make([][2]int32, batchSize)
		body := edgesRequest{Edges: make([][]int32, batchSize)}
		for i := range edges {
			a, b := rng.Int31n(nVertices), rng.Int31n(nVertices)
			edges[i] = [2]int32{a, b}
			body.Edges[i] = []int32{a, b}
		}
		raw, _ := json.Marshal(body)
		resp, err := http.Post(url+"/edges", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var res InsertResult
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || res.Accepted != batchSize {
			t.Fatalf("write: status %d err %v result %+v", resp.StatusCode, err, res)
		}
		history = append(history, edges...)
		if err := ref.InsertEdges(edges); err != nil {
			t.Fatal(err)
		}
		for _, p := range probes {
			var dr distanceResponse
			if code := getJSON(t, fmt.Sprintf("%s/distance?s=%d&t=%d", url, p.S, p.T), &dr); code != http.StatusOK {
				t.Fatalf("probe after ack: status %d", code)
			}
			if want := ref.Distance(p.S, p.T); dr.Distance != want {
				t.Fatalf("probe after ack: d(%d,%d) = %d, want %d (stale snapshot)", p.S, p.T, dr.Distance, want)
			}
		}
	}

	startReaders(ts.URL)
	for b := 0; b < killAfter; b++ {
		writeBatch(ts.URL)
	}
	stopReaders()

	// Kill mid-stream. A real crash would also tear down the in-flight
	// checkpoint; Close waits for it instead — the acknowledged ops on
	// disk are the same either way, because every append was fsynced
	// before its ack and the log is only compacted under a durable
	// snapshot (torn-tail crashes are covered by the WAL unit tests, the
	// window between the two by TestCheckpointCrashWindow).
	checkpointsBeforeKill := srv.LiveStats().Rebuilds
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: load whatever is on disk (snapshot + compacted WAL if a
	// checkpoint finished, base files + full WAL otherwise).
	srv2, err := LoadLive(graphPath, indexPath, walPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	// Criterion (a) at the restart boundary: replayed state ==
	// from-scratch dynamic build over the same sequence.
	for _, p := range workload.RandomPairs(g, 200, 31) {
		want := ref.Distance(p.S, p.T)
		got, err := srv2.Distance(p.S, p.T)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("after restart: d(%d,%d) = %d, want %d", p.S, p.T, got, want)
		}
	}

	startReaders(ts2.URL)
	for b := killAfter; b < batches; b++ {
		writeBatch(ts2.URL)
	}
	stopReaders()
	close(readerErrs)
	for err := range readerErrs {
		t.Error(err)
	}

	// Wait out any in-flight checkpoint, then check the lifecycle
	// counters: the stream must have triggered at least one checkpoint
	// somewhere, and none may have failed.
	deadline := time.Now().Add(30 * time.Second)
	for srv2.Rebuilding() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	st := srv2.LiveStats()
	if st.RebuildErrors != 0 {
		t.Fatalf("checkpoint errors: %+v", st)
	}
	if checkpointsBeforeKill+st.Rebuilds == 0 {
		t.Fatalf("no checkpoint triggered (before kill: %d, after: %+v)", checkpointsBeforeKill, st)
	}

	// Final full equality sweep against the from-scratch reference.
	for _, p := range workload.RandomPairs(g, 300, 77) {
		want := ref.Distance(p.S, p.T)
		got, err := srv2.Distance(p.S, p.T)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("final: d(%d,%d) = %d, want %d", p.S, p.T, got, want)
		}
	}
	if len(history) != batches*batchSize {
		t.Fatalf("history has %d edges, want %d", len(history), batches*batchSize)
	}
}

// TestSnapshotRoundTrip pins the single-file snapshot format: graph and
// index written together, read back identical, garbage rejected.
func TestSnapshotRoundTrip(t *testing.T) {
	g, _, ix := liveBase(t, 300, 6)
	path := filepath.Join(t.TempDir(), "state.snap")
	if err := writeSnapshot(path, g, ix, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g2, ix2, err := DecodeSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("snapshot graph n=%d m=%d, want n=%d m=%d",
			g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	if ix2.NumEntries() != ix.NumEntries() {
		t.Fatalf("snapshot index has %d entries, want %d", ix2.NumEntries(), ix.NumEntries())
	}
	sr, sr2 := ix.NewSearcher(), ix2.NewSearcher()
	for _, p := range workload.RandomPairs(g, 200, 5) {
		if d, d2 := sr.Distance(p.S, p.T), sr2.Distance(p.S, p.T); d != d2 {
			t.Fatalf("snapshot d(%d,%d) = %d, want %d", p.S, p.T, d2, d)
		}
	}

	if _, _, err := DecodeSnapshot(strings.NewReader("not a snapshot at all")); err == nil {
		t.Fatal("want error loading garbage snapshot")
	}
}
