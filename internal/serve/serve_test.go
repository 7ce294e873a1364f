package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"highway/internal/core"
	"highway/internal/gen"
	"highway/internal/graph"
	"highway/internal/landmark"
	"highway/internal/workload"
)

// testIndex builds a small index over a scale-free graph.
func testIndex(t *testing.T) *core.Index {
	t.Helper()
	g := gen.BarabasiAlbert(500, 3, 42)
	lms, err := landmark.Select(g, landmark.Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildParallel(g, lms)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// disconnectedIndex builds an index over a graph with two components, so
// some pairs are unreachable.
func disconnectedIndex(t *testing.T) *core.Index {
	t.Helper()
	// Two disjoint paths: 0-1-2 and 3-4-5.
	g, err := graph.FromEdges(6, [][2]int32{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Build(g, []int32{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func testServer(t *testing.T, ix *core.Index) (*Server, *httptest.Server) {
	t.Helper()
	s := New(ix, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s: decoding: %v", url, err)
	}
	return resp.StatusCode
}

func TestDistanceEndpoint(t *testing.T) {
	ix := testIndex(t)
	_, ts := testServer(t, ix)
	for _, p := range workload.RandomPairs(ix.Graph(), 50, 7) {
		var got distanceResponse
		code := getJSON(t, fmt.Sprintf("%s/distance?s=%d&t=%d", ts.URL, p.S, p.T), &got)
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if want := ix.Distance(p.S, p.T); got.Distance != want {
			t.Fatalf("d(%d,%d) = %d over HTTP, want %d", p.S, p.T, got.Distance, want)
		}
	}

	var e errorBody
	if code := getJSON(t, ts.URL+"/distance?s=0&t=junk", &e); code != http.StatusBadRequest {
		t.Fatalf("non-integer t: status %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/distance?s=0&t=999999", &e); code != http.StatusBadRequest {
		t.Fatalf("out-of-range t: status %d, want 400", code)
	}
}

func TestBatchEndpointMatchesIndex(t *testing.T) {
	ix := testIndex(t)
	_, ts := testServer(t, ix)
	pairs := workload.RandomPairs(ix.Graph(), 300, 11)
	req := batchRequest{Pairs: make([][]int32, len(pairs))}
	for i, p := range pairs {
		req.Pairs[i] = []int32{p.S, p.T}
	}
	body, _ := json.Marshal(req)
	var got batchResponse
	if code := postJSON(t, ts.URL+"/distance/batch", string(body), &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got.Count != len(pairs) || len(got.Distances) != len(pairs) {
		t.Fatalf("count %d, %d distances, want %d", got.Count, len(got.Distances), len(pairs))
	}
	for i, p := range pairs {
		if want := ix.Distance(p.S, p.T); got.Distances[i] != want {
			t.Fatalf("pair %d: d(%d,%d) = %d, want %d", i, p.S, p.T, got.Distances[i], want)
		}
	}
}

func TestBatchEndpointEdgeCases(t *testing.T) {
	_, ts := testServer(t, disconnectedIndex(t))

	t.Run("empty batch", func(t *testing.T) {
		var got batchResponse
		if code := postJSON(t, ts.URL+"/distance/batch", `{"pairs":[]}`, &got); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if got.Count != 0 || len(got.Distances) != 0 {
			t.Fatalf("got %+v, want empty", got)
		}
	})

	t.Run("disconnected pair", func(t *testing.T) {
		var got batchResponse
		code := postJSON(t, ts.URL+"/distance/batch", `{"pairs":[[0,5],[0,2]]}`, &got)
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if got.Distances[0] != core.Infinity {
			t.Fatalf("cross-component distance = %d, want %d", got.Distances[0], core.Infinity)
		}
		if got.Distances[1] != 2 {
			t.Fatalf("same-component distance = %d, want 2", got.Distances[1])
		}
	})
}

func TestStatsAndHealthEndpoints(t *testing.T) {
	ix := testIndex(t)
	_, ts := testServer(t, ix)
	var d distanceResponse
	getJSON(t, ts.URL+"/distance?s=1&t=2", &d)
	var junk errorBody
	getJSON(t, ts.URL+"/distance?s=bad&t=2", &junk)
	var b batchResponse
	postJSON(t, ts.URL+"/distance/batch", `{"pairs":[[1,2],[3,4]]}`, &b)

	var st statsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if st.Index.Method != "hl" || st.Index.NumVertices != ix.Graph().NumVertices() || st.Index.NumLandmarks != ix.NumLandmarks() {
		t.Fatalf("index stats %+v", st.Index)
	}
	dist := st.Endpoints["distance"]
	if dist.Requests != 2 || dist.Errors != 1 || dist.Pairs != 1 {
		t.Fatalf("distance counters %+v", dist)
	}
	batch := st.Endpoints["batch"]
	if batch.Requests != 1 || batch.Pairs != 2 {
		t.Fatalf("batch counters %+v", batch)
	}
	if dist.QPS <= 0 || dist.AvgLatencyUs <= 0 || dist.MaxLatencyUs < dist.AvgLatencyUs {
		t.Fatalf("latency counters %+v", dist)
	}

	var h map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK || h["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, h)
	}

	var help map[string]any
	if code := getJSON(t, ts.URL+"/", &help); code != http.StatusOK {
		t.Fatalf("help: %d", code)
	}
	if _, ok := help["endpoints"]; !ok {
		t.Fatalf("help body lacks endpoints: %v", help)
	}
}

func TestRunBatchMatchesIndexInOrder(t *testing.T) {
	ix := testIndex(t)
	s := New(ix, Config{})
	pairs := workload.RandomPairs(ix.Graph(), 5000, 3)
	var in bytes.Buffer
	for _, p := range pairs {
		fmt.Fprintf(&in, "%d %d\n", p.S, p.T)
	}
	sr := ix.NewSearcher()
	// The output is the input order whatever the worker count.
	for _, workers := range []int{4, 1} {
		var out bytes.Buffer
		stats, err := s.RunBatch(bytes.NewReader(in.Bytes()), &out, workers)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Pairs != int64(len(pairs)) {
			t.Fatalf("%d workers: stats.Pairs = %d, want %d", workers, stats.Pairs, len(pairs))
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if len(lines) != len(pairs) {
			t.Fatalf("%d workers: %d output lines, want %d", workers, len(lines), len(pairs))
		}
		for i, p := range pairs {
			if want := fmt.Sprint(sr.Distance(p.S, p.T)); lines[i] != want {
				t.Fatalf("%d workers: line %d: got %q, want %q", workers, i, lines[i], want)
			}
		}
	}
}

func TestRunBatchBadInput(t *testing.T) {
	ix := testIndex(t)
	s := New(ix, Config{})
	in := strings.NewReader("1 2\n# comment\n\n3 4\n3 nope\n5 6\n")
	var out bytes.Buffer
	if _, err := s.RunBatch(&in2{in}, &out, 2); err == nil {
		t.Fatal("want parse error")
	}
	// Pairs before the bad line were valid and must still be answered, so
	// output truncates at the bad line, not at a chunk boundary.
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d output lines %q, want the 2 pairs before the bad line", len(lines), out.String())
	}
	sr := ix.NewSearcher()
	for i, p := range []workload.Pair{{S: 1, T: 2}, {S: 3, T: 4}} {
		if want := fmt.Sprint(sr.Distance(p.S, p.T)); lines[i] != want {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want)
		}
	}
}

// in2 defeats bytes.Reader fast paths so the scanner exercises real
// buffered reads.
type in2 struct{ r io.Reader }

func (r *in2) Read(p []byte) (int, error) { return r.r.Read(p) }

func TestGracefulShutdown(t *testing.T) {
	s := New(testIndex(t), Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	var h map[string]string
	if code := getJSON(t, "http://"+ln.Addr().String()+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz before shutdown: %d", code)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v after cancel, want nil", err)
	}
}

// TestConcurrentHammer drives one shared Server (and hence one shared
// Index) from many goroutines mixing single and batch HTTP requests.
// Run with -race: it guards the searcher pool and the atomic metrics.
func TestConcurrentHammer(t *testing.T) {
	ix := testIndex(t)
	_, ts := testServer(t, ix)
	pairs := workload.RandomPairs(ix.Graph(), 64, 21)
	want := make([]int32, len(pairs))
	sr := ix.NewSearcher()
	for i, p := range pairs {
		want[i] = sr.Distance(p.S, p.T)
	}
	var body bytes.Buffer
	req := batchRequest{Pairs: make([][]int32, len(pairs))}
	for i, p := range pairs {
		req.Pairs[i] = []int32{p.S, p.T}
	}
	json.NewEncoder(&body).Encode(req)

	const goroutines = 16
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if gi%2 == 0 {
					i := (gi + r) % len(pairs)
					resp, err := http.Get(fmt.Sprintf("%s/distance?s=%d&t=%d", ts.URL, pairs[i].S, pairs[i].T))
					if err != nil {
						errs <- err
						return
					}
					var got distanceResponse
					err = json.NewDecoder(resp.Body).Decode(&got)
					resp.Body.Close()
					if err != nil {
						errs <- err
						return
					}
					if got.Distance != want[i] {
						errs <- fmt.Errorf("d(%d,%d) = %d, want %d", pairs[i].S, pairs[i].T, got.Distance, want[i])
						return
					}
				} else {
					resp, err := http.Post(ts.URL+"/distance/batch", "application/json", bytes.NewReader(body.Bytes()))
					if err != nil {
						errs <- err
						return
					}
					var got batchResponse
					err = json.NewDecoder(resp.Body).Decode(&got)
					resp.Body.Close()
					if err != nil {
						errs <- err
						return
					}
					for i := range pairs {
						if got.Distances[i] != want[i] {
							errs <- fmt.Errorf("batch pair %d: %d, want %d", i, got.Distances[i], want[i])
							return
						}
					}
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var st statsResponse
	getJSON(t, ts.URL+"/stats", &st)
	total := st.Endpoints["distance"].Requests + st.Endpoints["batch"].Requests
	if total != goroutines*rounds {
		t.Fatalf("metrics counted %d requests, want %d", total, goroutines*rounds)
	}
}

// failWriter fails every write after the first.
type failWriter struct{ writes int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > 1 {
		return 0, errors.New("pipe closed")
	}
	return len(p), nil
}

func TestRunPipelineAbortsOnWriteError(t *testing.T) {
	s := New(testIndex(t), Config{})
	emitted := 0
	_, err := s.runPipeline(&failWriter{}, 2, func(emit func(workload.Pair) error) error {
		st := workload.NewStreamN(int(s.n.Load()), 1)
		for i := 0; i < 10_000_000; i++ {
			emitted++
			if err := emit(st.Next()); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "pipe closed") {
		t.Fatalf("err = %v, want the write error", err)
	}
	if emitted >= 10_000_000 {
		t.Fatal("producer consumed the whole source after the writer failed")
	}
}
