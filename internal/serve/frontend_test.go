package serve_test

// Front-end contract tests. They live in the external test package
// because each case runs twice — against a serve.Server, and against a
// cluster.Router fronting that same server on loopback — and cluster
// imports serve.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"highway/internal/cluster"
	"highway/internal/core"
	"highway/internal/gen"
	"highway/internal/landmark"
	"highway/internal/serve"
	"highway/internal/wire"
)

// binaryServer is the one method the test needs from either front-end.
type binaryServer interface {
	ServeBinary(ctx context.Context, ln net.Listener) error
	Handler() http.Handler
}

// front is one way to reach a backend: an HTTP base URL and a binary
// address.
type front struct {
	name, url, bin string
}

// listen serves fe on loopback over both protocols until the test ends.
func listen(t *testing.T, name string, fe binaryServer) front {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- fe.ServeBinary(ctx, ln) }()
	hs := httptest.NewServer(fe.Handler())
	t.Cleanup(func() {
		hs.Close()
		cancel()
		if err := <-done; err != nil {
			t.Errorf("%s ServeBinary: %v", name, err)
		}
	})
	return front{name: name, url: hs.URL, bin: ln.Addr().String()}
}

// routerTo starts a router whose primary and only read member is the
// binary listener at addr, and waits until it has dialed both.
func routerTo(t *testing.T, addr string, maxBatch int) *cluster.Router {
	t.Helper()
	rt, err := cluster.NewRouter(cluster.RouterConfig{Primary: addr, Shards: [][]string{{addr}}, MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	for deadline := time.Now().Add(5 * time.Second); !rt.Ready() || !rt.Stats().PrimaryUp; {
		if time.Now().After(deadline) {
			t.Fatal("router never saw its member up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return rt
}

const testMaxBatch = 4 // HTTP body cap = 4*64+1024 = 1280 bytes

// serverAndRouter returns a live server over a 400-vertex graph, reached
// directly and through a router.
func serverAndRouter(t *testing.T) (*core.Index, []front) {
	t.Helper()
	g := gen.BarabasiAlbert(400, 3, 7)
	lms, err := landmark.Select(g, landmark.Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildParallel(g, lms)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewLive(ix, serve.LiveConfig{Config: serve.Config{MaxBatch: testMaxBatch}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	direct := listen(t, "server", srv)
	return ix, []front{direct, listen(t, "router", routerTo(t, direct.bin, testMaxBatch))}
}

// httpDo returns the status, the Retry-After header and the body.
func httpDo(t *testing.T, method, url, body string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), string(raw)
}

// dialBinary handshakes a raw protocol connection.
func dialBinary(t *testing.T, addr string) (*wire.Reader, *wire.Writer) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if err := wire.WriteMagic(c); err != nil {
		t.Fatal(err)
	}
	if err := wire.ReadMagic(c); err != nil {
		t.Fatal(err)
	}
	return wire.NewReader(c, 0), wire.NewWriter(c)
}

// roundTrip sends one frame and returns the response type and a copy of
// its payload.
func roundTrip(t *testing.T, r *wire.Reader, w *wire.Writer, typ wire.Type, payload []byte) (wire.Type, []byte) {
	t.Helper()
	if err := w.WriteFrame(typ, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, p, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	return got, append([]byte(nil), p...)
}

// TestFrontendHTTPContract pins the strict HTTP request handling of the
// one front-end, with and without a router in the path: same status,
// same error body.
func TestFrontendHTTPContract(t *testing.T) {
	_, fronts := serverAndRouter(t)
	pad := strings.Repeat(" ", 2048)
	for _, tc := range []struct {
		name, method, path, body string
		status                   int
		contains                 string // in the error message, when set
	}{
		{"batch malformed JSON", "POST", "/distance/batch", `{"pairs":[[0,`, 400, ""},
		{"batch not JSON", "POST", "/distance/batch", `not json`, 400, ""},
		{"batch triple", "POST", "/distance/batch", `{"pairs":[[0,1,2]]}`, 400, "pair 0: want [s,t]"},
		{"batch unknown field", "POST", "/distance/batch", `{"pairs":[[0,1]],"nope":1}`, 400, ""},
		{"batch only unknown field", "POST", "/distance/batch", `{"nope":1}`, 400, ""},
		{"batch trailing garbage", "POST", "/distance/batch", `{"pairs":[[0,1]]}garbage`, 400, "trailing data"},
		{"batch trailing object", "POST", "/distance/batch", `{"pairs":[[0,1]]}{"pairs":[[0,2]]}`, 400, "trailing data"},
		// A valid object followed by bytes past the cap is a 413 naming
		// the byte cap, not the trailing-data 400.
		{"batch body cap", "POST", "/distance/batch", `{"pairs":[[0,1]]}` + pad, 413, "1280 bytes"},
		{"batch over MaxBatch", "POST", "/distance/batch", `{"pairs":[[0,1],[0,2],[0,3],[0,4],[0,5]]}`, 413, "limit 4"},
		{"batch range", "POST", "/distance/batch", `{"pairs":[[0,1],[0,9999]]}`, 400, "pair 1: vertex 9999 out of range"},
		// The first bad pair is the one reported, whichever way it is bad.
		{"batch range before triple", "POST", "/distance/batch", `{"pairs":[[0,9999],[0,1,2]]}`, 400, "pair 0: vertex 9999 out of range"},
		{"batch triple before range", "POST", "/distance/batch", `{"pairs":[[0,1],[0,1,2],[0,9999]]}`, 400, "pair 1: want [s,t]"},
		{"distance range", "GET", "/distance?s=0&t=9999", ``, 400, ""},
		{"distance non-integer", "GET", "/distance?s=0&t=junk", ``, 400, ""},
		{"edges malformed JSON", "POST", "/edges", `{"edge":[0,`, 400, ""},
		{"edges not JSON", "POST", "/edges", `not json`, 400, ""},
		{"edges not JSON delete", "DELETE", "/edges", `not json`, 400, ""},
		{"edges unknown field", "DELETE", "/edges", `{"edge":[0,1],"nope":1}`, 400, ""},
		{"edges trailing data", "POST", "/edges", `{"edge":[0,1]}garbage`, 400, "trailing data"},
		{"edges body cap", "POST", "/edges", `{"edge":[0,1]}` + pad, 413, "1280 bytes"},
		{"edge and edges", "POST", "/edges", `{"edge":[0,1],"edges":[[0,2]]}`, 400, ""},
		{"neither edge nor edges", "DELETE", "/edges", `{}`, 400, ""},
		{"edge triple", "POST", "/edges", `{"edge":[1,2,3]}`, 400, "edge 0: want [a,b]"},
		{"edges singleton", "POST", "/edges", `{"edges":[[1]]}`, 400, "edge 0: want [a,b]"},
		{"edges over MaxBatch", "POST", "/edges", `{"edges":[[0,1],[0,2],[0,3],[0,4],[0,5]]}`, 413, "limit 4"},
		{"edges range", "POST", "/edges", `{"edge":[0,9999]}`, 400, ""},
		{"edges negative", "POST", "/edges", `{"edge":[1,-2]}`, 400, ""},
		{"edges range delete", "DELETE", "/edges", `{"edges":[[0,1],[-1,2]]}`, 400, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var bodies []string
			for _, f := range fronts {
				status, _, body := httpDo(t, tc.method, f.url+tc.path, tc.body)
				if status != tc.status {
					t.Errorf("%s: status %d (%s), want %d", f.name, status, body, tc.status)
				}
				var e struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
					t.Errorf("%s: body %q is not {\"error\":...}", f.name, body)
				}
				if !strings.Contains(e.Error, tc.contains) {
					t.Errorf("%s: error %q lacks %q", f.name, e.Error, tc.contains)
				}
				bodies = append(bodies, body)
			}
			if bodies[0] != bodies[1] {
				t.Errorf("body differs through the router:\n server %s router %s", bodies[0], bodies[1])
			}
		})
	}

	// The successful shapes agree too, and both fronts document
	// themselves on GET /.
	for _, tc := range []struct{ method, path, body string }{
		{"GET", "/distance?s=0&t=5", ``},
		{"POST", "/distance/batch", `{"pairs":[[0,5],[3,3]]}`},
		{"GET", "/healthz", ``},
		{"GET", "/", ``},
	} {
		var bodies []string
		for _, f := range fronts {
			status, _, body := httpDo(t, tc.method, f.url+tc.path, tc.body)
			if status != 200 {
				t.Errorf("%s %s %s: status %d (%s)", f.name, tc.method, tc.path, status, body)
			}
			bodies = append(bodies, body)
		}
		if bodies[0] != bodies[1] {
			t.Errorf("%s %s differs through the router:\n server %s router %s", tc.method, tc.path, bodies[0], bodies[1])
		}
	}

	// The stats documents differ by design, but both count the requests
	// above under the same per-endpoint names.
	for _, f := range fronts {
		_, _, body := httpDo(t, "GET", f.url+"/stats", ``)
		var st struct {
			Endpoints map[string]serve.EndpointStats `json:"endpoints"`
		}
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if ep := st.Endpoints["batch"]; ep.Requests == 0 || ep.Errors == 0 || ep.Errors == ep.Requests {
			t.Errorf("%s /stats: endpoints.batch = %+v, want the requests and errors of this test", f.name, ep)
		}
	}
}

// TestFrontendBinaryContract is the binary half: error codes and
// messages match with and without the router, the connection survives
// every in-band error, and a pipelined burst is answered in order.
func TestFrontendBinaryContract(t *testing.T) {
	ix, fronts := serverAndRouter(t)
	// sameError sends one frame to each front and requires the same
	// in-band error from both, on a connection that survives it.
	sameError := func(t *testing.T, fronts []front, reqType wire.Type, payload []byte, want wire.ErrorCode) {
		var msgs []string
		for _, f := range fronts {
			r, w := dialBinary(t, f.bin)
			typ, p := roundTrip(t, r, w, reqType, payload)
			if typ != wire.TError {
				t.Fatalf("%s: response %v, want Error", f.name, typ)
			}
			code, msg, err := wire.DecodeError(p)
			if err != nil {
				t.Fatal(err)
			}
			if code != want {
				t.Errorf("%s: code %v (%s), want %v", f.name, code, msg, want)
			}
			msgs = append(msgs, msg)
			if typ, _ := roundTrip(t, r, w, wire.TPing, nil); typ != wire.TPingResp {
				t.Errorf("%s: connection did not survive the error: ping answered %v", f.name, typ)
			}
		}
		if msgs[0] != msgs[1] {
			t.Errorf("message differs through the router: server %q, router %q", msgs[0], msgs[1])
		}
	}
	big := wire.AppendPairs(nil, make([][2]int32, testMaxBatch+1))
	for _, tc := range []struct {
		name    string
		typ     wire.Type
		payload []byte
		code    wire.ErrorCode
	}{
		{"distance range", wire.TDistance, wire.AppendPair(nil, 0, 9999), wire.CodeRange},
		{"distance short payload", wire.TDistance, make([]byte, 7), wire.CodeMalformed},
		{"unknown record type", wire.Type(0x42), nil, wire.CodeMalformed},
		{"batch over MaxBatch", wire.TBatch, big, wire.CodeTooLarge},
		{"batch range", wire.TBatch, wire.AppendPairs(nil, [][2]int32{{0, 1}, {0, 9999}}), wire.CodeRange},
		{"batch count mismatch", wire.TBatch, []byte{9, 0, 0, 0}, wire.CodeMalformed},
		{"insert over MaxBatch", wire.TInsert, big, wire.CodeTooLarge},
		{"insert range", wire.TInsert, wire.AppendPairs(nil, [][2]int32{{0, 9999}}), wire.CodeRange},
		{"delete range", wire.TDelete, wire.AppendPairs(nil, [][2]int32{{-1, 2}}), wire.CodeRange},
		{"repl frame to a non-follower", wire.TReplAppend, wire.AppendReplAppend(nil, 1, nil), wire.CodeMalformed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sameError(t, fronts, tc.typ, tc.payload, tc.code)
		})
	}

	t.Run("insert on a read-only server", func(t *testing.T) {
		ro := listen(t, "server", serve.New(ix, serve.Config{MaxBatch: testMaxBatch}))
		routed := listen(t, "router", routerTo(t, ro.bin, testMaxBatch))
		sameError(t, []front{ro, routed}, wire.TInsert, wire.AppendPairs(nil, [][2]int32{{0, 1}}), wire.CodeReadOnly)
	})

	t.Run("pipelined burst", func(t *testing.T) {
		const burst = 300
		for _, f := range fronts {
			r, w := dialBinary(t, f.bin)
			var scratch []byte
			for i := 0; i < burst; i++ {
				scratch = wire.AppendPair(scratch[:0], int32(i%400), int32((i*7)%400))
				if err := w.WriteFrame(wire.TDistance, scratch); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < burst; i++ {
				typ, p, err := r.ReadFrame()
				if err != nil || typ != wire.TDistanceResp {
					t.Fatalf("%s: response %d: (%v, %v)", f.name, i, typ, err)
				}
				d, err := wire.DecodeDistance(p)
				if err != nil {
					t.Fatal(err)
				}
				if want := ix.Distance(int32(i%400), int32((i*7)%400)); d != want {
					t.Fatalf("%s: response %d out of order or wrong: %d, want %d", f.name, i, d, want)
				}
			}
		}
	})
}

// TestFrontendShutdownAcksAppliedWrites: shutdown in the middle of a
// pipelined burst of writes stops executing requests, but every write
// that was applied is acknowledged before the connection closes — the
// responses sitting in the connection's write buffer are not dropped.
func TestFrontendShutdownAcksAppliedWrites(t *testing.T) {
	for _, through := range []string{"server", "router"} {
		t.Run(through, func(t *testing.T) {
			g := gen.BarabasiAlbert(400, 3, 7)
			lms, err := landmark.Select(g, landmark.Options{K: 8})
			if err != nil {
				t.Fatal(err)
			}
			ix, err := core.BuildParallel(g, lms)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := serve.NewLive(ix, serve.LiveConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			var fe binaryServer = srv
			if through == "router" {
				fe = routerTo(t, listen(t, "member", srv).bin, 0)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- fe.ServeBinary(ctx, ln) }()

			const burst = 3000 // 51 KB of frames: fits the server's read buffer
			r, w := dialBinary(t, ln.Addr().String())
			go func() {
				var scratch []byte
				for i := 0; i < burst; i++ {
					scratch = wire.AppendPairs(scratch[:0], [][2]int32{{int32(i % 400), int32((i*7 + 1) % 400)}})
					if w.WriteFrame(wire.TInsert, scratch) != nil {
						return
					}
				}
				w.Flush()
			}()
			// Shut down as soon as the burst is under way.
			for srv.LiveStats().AcceptedEdges == 0 {
				time.Sleep(50 * time.Microsecond)
			}
			cancel()
			var acks int64
			for {
				typ, _, err := r.ReadFrame()
				if err != nil {
					break
				}
				if typ == wire.TInsertResp {
					acks++
				}
			}
			if err := <-done; err != nil {
				t.Fatalf("ServeBinary: %v", err)
			}
			applied := srv.LiveStats().AcceptedEdges
			t.Logf("%d of %d writes applied before shutdown, %d acknowledged", applied, burst, acks)
			// The router abandons the one forward that is in flight when
			// its context is cancelled; the member may still apply it.
			slack := int64(0)
			if through == "router" {
				slack = 1
			}
			if acks > applied || applied-acks > slack {
				t.Fatalf("%d writes applied but %d acknowledged", applied, acks)
			}
		})
	}
}

// failing is a Backend whose every request fails with err.
type failing struct{ err error }

func (b failing) Distance(context.Context, int32, int32) (int32, error) { return 0, b.err }
func (b failing) DistanceBatch(context.Context, [][2]int32, []int32) ([]int32, error) {
	return nil, b.err
}
func (b failing) InsertEdges(context.Context, [][2]int32) (serve.InsertResult, error) {
	return serve.InsertResult{}, b.err
}
func (b failing) DeleteEdges(context.Context, [][2]int32) (serve.DeleteResult, error) {
	return serve.DeleteResult{}, b.err
}
func (b failing) StatsDoc() any          { return struct{}{} }
func (b failing) Readiness() (any, bool) { return map[string]string{"status": "ready"}, true }

// TestErrorTable pins the error contract row by row: a backend failing
// with the row's sentinel answers the row's HTTP status (and Retry-After
// iff retryable) and the row's wire code, on reads and on writes — and
// the same pair again when the failure is relayed by a router, because
// the relayed error enters the table by its code.
func TestErrorTable(t *testing.T) {
	want := map[wire.ErrorCode]int{
		wire.CodeMalformed:   400,
		wire.CodeRange:       400,
		wire.CodeTooLarge:    413,
		wire.CodeReadOnly:    404,
		wire.CodeClosed:      503,
		wire.CodeInternal:    500,
		wire.CodeOverloaded:  429,
		wire.CodeDegraded:    503,
		wire.CodeFenced:      409,
		wire.CodeUnavailable: 503,
	}
	retryable := map[wire.ErrorCode]bool{wire.CodeOverloaded: true, wire.CodeDegraded: true, wire.CodeUnavailable: true}
	if len(serve.ErrorTable) != len(wire.ErrorCodeNames) {
		t.Fatalf("ErrorTable has %d rows, the protocol has %d error codes", len(serve.ErrorTable), len(wire.ErrorCodeNames))
	}
	for _, row := range serve.ErrorTable {
		t.Run(row.Code.String(), func(t *testing.T) {
			if row.Status != want[row.Code] || row.Retryable != retryable[row.Code] {
				t.Fatalf("row %+v, want status %d retryable %v", row, want[row.Code], retryable[row.Code])
			}
			err := row.Sentinel
			if err == nil {
				err = errors.New("disk on fire") // Internal: whatever matches no sentinel
			}
			err = fmt.Errorf("%w: detail", err) // classified through wrapping
			direct := listen(t, "direct", serve.NewFrontend(failing{err}, testMaxBatch))
			routed := listen(t, "routed", routerTo(t, direct.bin, testMaxBatch))
			for _, f := range []front{direct, routed} {
				for _, req := range []struct{ method, path, body string }{
					{"GET", "/distance?s=0&t=1", ``},
					{"POST", "/distance/batch", `{"pairs":[[0,1]]}`},
					{"POST", "/edges", `{"edge":[0,1]}`},
					{"DELETE", "/edges", `{"edge":[0,1]}`},
				} {
					status, retryAfter, body := httpDo(t, req.method, f.url+req.path, req.body)
					if status != row.Status || (retryAfter != "") != row.Retryable {
						t.Errorf("%s %s %s: status %d Retry-After %q (%s), want %d retryable %v",
							f.name, req.method, req.path, status, retryAfter, body, row.Status, row.Retryable)
					}
					if !strings.Contains(body, err.Error()) {
						t.Errorf("%s %s %s: body %s lacks the backend's message %q", f.name, req.method, req.path, body, err)
					}
				}
				r, w := dialBinary(t, f.bin)
				for _, req := range []struct {
					typ     wire.Type
					payload []byte
				}{
					{wire.TDistance, wire.AppendPair(nil, 0, 1)},
					{wire.TBatch, wire.AppendPairs(nil, [][2]int32{{0, 1}})},
					{wire.TInsert, wire.AppendPairs(nil, [][2]int32{{0, 1}})},
					{wire.TDelete, wire.AppendPairs(nil, [][2]int32{{0, 1}})},
				} {
					typ, p := roundTrip(t, r, w, req.typ, req.payload)
					code, msg, derr := wire.DecodeError(p)
					if typ != wire.TError || derr != nil || code != row.Code || msg != err.Error() {
						t.Errorf("%s %v: answered %v code %v %q, want Error %v %q", f.name, req.typ, typ, code, msg, row.Code, err)
					}
				}
			}
		})
	}
}
