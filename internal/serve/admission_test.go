package serve

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"highway/internal/core"
	"highway/internal/gen"
	"highway/internal/landmark"
	"highway/internal/wire"
)

func admTestIndex(t *testing.T) *core.Index {
	t.Helper()
	g := gen.BarabasiAlbert(300, 3, 42)
	lms, err := landmark.Select(g, landmark.Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildParallel(g, lms)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestGateTryAcquire(t *testing.T) {
	g := gate{budget: 3}
	if !g.tryAcquire(2) {
		t.Fatal("first acquire within budget refused")
	}
	if g.tryAcquire(2) {
		t.Fatal("acquire beyond budget admitted")
	}
	if !g.tryAcquire(1) {
		t.Fatal("acquire filling budget exactly refused")
	}
	g.release(1)
	g.release(2)
	st := g.stats()
	if st.Inflight != 0 || st.Admitted != 2 || st.Shed != 1 {
		t.Fatalf("stats = %+v, want inflight 0, admitted 2, shed 1", st)
	}

	// Unlimited gate: everything is admitted, nothing is counted.
	un := gate{budget: 0}
	if !un.tryAcquire(1 << 40) {
		t.Fatal("unlimited gate refused")
	}
}

func TestResolveBudget(t *testing.T) {
	if got := resolveBudget(0, 7); got != 7 {
		t.Fatalf("resolveBudget(0) = %d, want default 7", got)
	}
	if got := resolveBudget(-1, 7); got != 0 {
		t.Fatalf("resolveBudget(-1) = %d, want 0 (unlimited)", got)
	}
	if got := resolveBudget(3, 7); got != 3 {
		t.Fatalf("resolveBudget(3) = %d, want 3", got)
	}
}

func TestPairsCost(t *testing.T) {
	for _, tc := range []struct{ pairs, want int64 }{
		{-5, 1}, {0, 1}, {1, 1}, {1023, 1}, {1024, 2}, {4096, 5},
	} {
		if got := pairsCost(tc.pairs); got != tc.want {
			t.Fatalf("pairsCost(%d) = %d, want %d", tc.pairs, got, tc.want)
		}
	}
}

// TestHTTPShedsWhenOverBudget pins the HTTP shed contract: a request
// over the read budget is answered 429 with Retry-After before any
// work, monitoring endpoints stay ungated, and releasing the budget
// re-admits traffic.
func TestHTTPShedsWhenOverBudget(t *testing.T) {
	ix := admTestIndex(t)
	s := New(ix, Config{ReadBudget: 1, WriteBudget: 1})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Occupy the whole read budget, as a long in-flight request would.
	if !s.readGate.tryAcquire(1) {
		t.Fatal("could not occupy read gate")
	}
	resp := get("/distance?s=0&t=5")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("gated /distance status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	// The write gate is independent: inserts still pass admission (and
	// then hit the read-only rejection, which proves the handler ran).
	wresp, err := http.Post(hs.URL+"/edges", "application/json", strings.NewReader(`{"edges":[[0,1]]}`))
	if err != nil {
		t.Fatal(err)
	}
	wresp.Body.Close()
	if wresp.StatusCode == http.StatusTooManyRequests {
		t.Fatal("write path shed by an exhausted read budget")
	}
	// Monitoring must answer during overload — that is its whole job.
	for _, path := range []string{"/stats", "/healthz", "/readyz", "/"} {
		if resp := get(path); resp.StatusCode != http.StatusOK {
			t.Fatalf("monitoring %s status = %d during overload, want 200", path, resp.StatusCode)
		}
	}

	s.readGate.release(1)
	if resp := get("/distance?s=0&t=5"); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release /distance status = %d, want 200", resp.StatusCode)
	}

	st := s.AdmissionStats()
	if st.Read.Shed < 1 || st.Read.Budget != 1 {
		t.Fatalf("read gate stats = %+v, want budget 1 and >=1 shed", st.Read)
	}
	// /stats surfaces the admission section.
	var doc struct {
		Admission AdmissionStats `json:"admission"`
	}
	sr := get("/stats")
	if err := json.NewDecoder(sr.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Admission.Read.Shed < 1 {
		t.Fatalf("/stats admission = %+v, want >=1 read shed", doc.Admission)
	}
}

// TestBinaryShedsWhenOverBudget pins the wire shed contract: an
// over-budget frame is answered in-band with CodeOverloaded, the
// connection survives, and ungated frames (stats, ping) keep working.
func TestBinaryShedsWhenOverBudget(t *testing.T) {
	ix := admTestIndex(t)
	srv := New(ix, Config{ReadBudget: 1})
	addr, shutdown := admBinListener(t, srv)
	defer shutdown()
	c, r, w := binConn(t, addr)
	defer c.Close()

	roundTrip := func(typ wire.Type, payload []byte) (wire.Type, []byte) {
		t.Helper()
		if err := w.WriteFrame(typ, payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		rt, p, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		return rt, p
	}

	if !srv.readGate.tryAcquire(1) {
		t.Fatal("could not occupy read gate")
	}
	typ, p := roundTrip(wire.TDistance, wire.AppendPair(nil, 0, 5))
	if typ != wire.TError {
		t.Fatalf("gated Distance answered %v, want TError", typ)
	}
	code, _, err := wire.DecodeError(p)
	if err != nil {
		t.Fatal(err)
	}
	if code != wire.CodeOverloaded {
		t.Fatalf("gated Distance code = %v, want Overloaded", code)
	}
	// The connection is still usable, and ungated frames still answer.
	if typ, _ := roundTrip(wire.TPing, nil); typ != wire.TPingResp {
		t.Fatalf("ping during overload answered %v, want TPingResp", typ)
	}
	if typ, _ := roundTrip(wire.TStats, nil); typ != wire.TStatsResp {
		t.Fatalf("stats during overload answered %v, want TStatsResp", typ)
	}

	srv.readGate.release(1)
	if typ, _ := roundTrip(wire.TDistance, wire.AppendPair(nil, 0, 5)); typ != wire.TDistanceResp {
		t.Fatalf("post-release Distance answered %v, want TDistanceResp", typ)
	}
	if st := srv.AdmissionStats(); st.Read.Shed < 1 {
		t.Fatalf("read gate stats = %+v, want >=1 shed", st.Read)
	}
}

// TestOverloadShed drives a server whose read budget covers a quarter or
// less of the offered in-flight demand, under real concurrency, on each
// protocol. A 400-vertex index answers a 1024-pair batch in about 100µs,
// too fast for work to pile up at the gate, so the serve.query failpoint
// holds every admitted request for 10ms: eight workers then overflow a
// budget of 2 (a 1024-pair batch costs 1 or 2 units) every time. The
// contract: some requests are admitted and the rest shed; a shed comes
// back faster than an admitted request, because it skips the work; the
// whole budget is returned once the run drains; and the gate's counters,
// in AdmissionStats and on /stats, are exactly what the clients saw.
func TestOverloadShed(t *testing.T) {
	const (
		workers  = 8
		requests = 30 // per worker
		batch    = 1024
		budget   = 2
	)
	g := gen.BarabasiAlbert(400, 3, 7)
	lms, err := landmark.Select(g, landmark.Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildParallel(g, lms)
	if err != nil {
		t.Fatal(err)
	}
	FPQuery.Delay(0, 10*time.Millisecond)
	t.Cleanup(FPQuery.Clear)
	pairs := make([][2]int32, batch)
	for i := range pairs {
		pairs[i] = [2]int32{int32(i % 400), int32(i * 7 % 400)}
	}

	// drive runs one worker per do, each issuing requests of its own,
	// and returns the client-side latencies of the shed and the admitted
	// ones. A do reports its own failures (t.Errorf) and returns ok=false
	// to stop its worker.
	drive := func(dos []func() (shed, ok bool)) (shed, admitted []time.Duration) {
		type result struct{ shed, admitted []time.Duration }
		results := make(chan result, len(dos))
		for _, do := range dos {
			go func() {
				var r result
				for i := 0; i < requests; i++ {
					start := time.Now()
					s, ok := do()
					if !ok {
						break
					}
					if s {
						r.shed = append(r.shed, time.Since(start))
					} else {
						r.admitted = append(r.admitted, time.Since(start))
					}
				}
				results <- r
			}()
		}
		for range dos {
			r := <-results
			shed = append(shed, r.shed...)
			admitted = append(admitted, r.admitted...)
		}
		return shed, admitted
	}

	check := func(t *testing.T, srv *Server, shed, admitted []time.Duration) {
		t.Helper()
		if t.Failed() {
			t.FailNow()
		}
		if len(shed) == 0 || len(admitted) == 0 {
			t.Fatalf("%d shed, %d admitted at 4x the budget: want both", len(shed), len(admitted))
		}
		s, a := median(shed), median(admitted)
		t.Logf("%d shed, p50 %v; %d admitted, p50 %v", len(shed), s, len(admitted), a)
		if s >= a {
			t.Errorf("shed p50 %v >= admitted p50 %v: shedding is not cheaper than working", s, a)
		}
		st := srv.AdmissionStats().Read
		if st.Inflight != 0 {
			t.Errorf("read inflight = %d after the run drained, want 0 (leaked budget)", st.Inflight)
		}
		if st.Shed != int64(len(shed)) || st.Admitted != int64(len(admitted)) {
			t.Errorf("read gate counted %d shed, %d admitted; the clients saw %d, %d", st.Shed, st.Admitted, len(shed), len(admitted))
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var doc struct {
			Admission AdmissionStats `json:"admission"`
		}
		if err := json.NewDecoder(rec.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		if doc.Admission.Read != st {
			t.Errorf("/stats admission.read = %+v, AdmissionStats().Read = %+v", doc.Admission.Read, st)
		}
	}

	t.Run("http", func(t *testing.T) {
		srv := New(ix, Config{ReadBudget: budget})
		hs := httptest.NewServer(srv.Handler())
		body, err := json.Marshal(map[string]any{"pairs": pairs})
		if err != nil {
			t.Fatal(err)
		}
		do := func() (shed, ok bool) {
			resp, err := hs.Client().Post(hs.URL+"/distance/batch", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Error(err)
				return false, false
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusTooManyRequests:
				return true, true
			case http.StatusOK:
				var br struct {
					Distances []int32 `json:"distances"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&br); err != nil || len(br.Distances) != batch {
					t.Errorf("admitted batch: %d answers, err %v; want %d", len(br.Distances), err, batch)
					return false, false
				}
				return false, true
			}
			t.Errorf("POST /distance/batch status %d, want 200 or 429", resp.StatusCode)
			return false, false
		}
		dos := make([]func() (bool, bool), workers)
		for w := range dos {
			dos[w] = do
		}
		shed, admitted := drive(dos)
		hs.Close() // waits for the handlers, whose deferred release follows the response
		check(t, srv, shed, admitted)
	})

	t.Run("binary", func(t *testing.T) {
		srv := New(ix, Config{ReadBudget: budget})
		addr, shutdown := admBinListener(t, srv)
		defer shutdown()
		frame := wire.AppendPairs(nil, pairs)
		dos := make([]func() (bool, bool), workers)
		for w := range dos {
			c, r, wr := binConn(t, addr)
			defer c.Close()
			var dst []int32
			dos[w] = func() (shed, ok bool) {
				if err := wr.WriteFrame(wire.TBatch, frame); err != nil {
					t.Error(err)
					return false, false
				}
				if err := wr.Flush(); err != nil {
					t.Error(err)
					return false, false
				}
				typ, p, err := r.ReadFrame()
				if err != nil {
					t.Error(err)
					return false, false
				}
				switch typ {
				case wire.TBatchResp:
					if dst, err = wire.DecodeDistances(p, dst); err != nil || len(dst) != batch {
						t.Errorf("admitted batch: %d answers, err %v; want %d", len(dst), err, batch)
						return false, false
					}
					return false, true
				case wire.TError:
					if code, msg, err := wire.DecodeError(p); err != nil || code != wire.CodeOverloaded {
						t.Errorf("batch answered error %v %q (decode err %v), want Overloaded", code, msg, err)
						return false, false
					}
					return true, true
				}
				t.Errorf("batch answered %v, want BatchResp or Error", typ)
				return false, false
			}
		}
		// The binary listener releases the budget before it writes the
		// answer, so the gate has drained once every answer is read.
		shed, admitted := drive(dos)
		check(t, srv, shed, admitted)
	})
}

// median returns the lower median of ds. It counts rather than sorts:
// the samples are few.
func median(ds []time.Duration) time.Duration {
	k := (len(ds) - 1) / 2
	for _, x := range ds {
		below, atOrBelow := 0, 0
		for _, y := range ds {
			if y < x {
				below++
			}
			if y <= x {
				atOrBelow++
			}
		}
		if below <= k && k < atOrBelow {
			return x
		}
	}
	return 0
}

// admBinListener starts a binary listener for an existing server.
func admBinListener(t *testing.T, srv *Server) (addr string, shutdown func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeBinary(ctx, ln) }()
	return ln.Addr().String(), func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("ServeBinary: %v", err)
		}
		srv.Close()
	}
}
