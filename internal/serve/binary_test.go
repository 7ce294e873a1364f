package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"highway/internal/core"
	"highway/internal/gen"
	"highway/internal/graph"
	"highway/internal/landmark"
	"highway/internal/wire"
)

// binTestServer starts a binary listener over a fresh index and returns
// its address plus the server and a shutdown func.
func binTestServer(t *testing.T, live bool) (addr string, srv *Server, ix *core.Index, shutdown func()) {
	t.Helper()
	g := gen.BarabasiAlbert(400, 3, 7)
	lms, err := landmark.Select(g, landmark.Options{K: 8, Strategy: landmark.Degree})
	if err != nil {
		t.Fatal(err)
	}
	ix, err = core.BuildParallel(g, lms)
	if err != nil {
		t.Fatal(err)
	}
	if live {
		srv, err = NewLive(ix, LiveConfig{})
		if err != nil {
			t.Fatal(err)
		}
	} else {
		srv = New(ix, Config{})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeBinary(ctx, ln) }()
	shutdown = func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("ServeBinary: %v", err)
		}
		srv.Close()
	}
	return ln.Addr().String(), srv, ix, shutdown
}

// binConn dials and handshakes a raw protocol connection.
func binConn(t *testing.T, addr string) (net.Conn, *wire.Reader, *wire.Writer) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteMagic(c); err != nil {
		t.Fatal(err)
	}
	if err := wire.ReadMagic(c); err != nil {
		t.Fatal(err)
	}
	return c, wire.NewReader(c, 0), wire.NewWriter(c)
}

func TestBinaryDistanceAndBatch(t *testing.T) {
	addr, _, ix, shutdown := binTestServer(t, false)
	defer shutdown()
	c, r, w := binConn(t, addr)
	defer c.Close()

	// Single distance.
	if err := w.WriteFrame(wire.TDistance, wire.AppendPair(nil, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	typ, p, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TDistanceResp {
		t.Fatalf("type = %v, want DistanceResp", typ)
	}
	d, err := wire.DecodeDistance(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := ix.Distance(0, 3); d != want {
		t.Fatalf("d(0,3) = %d over the wire, %d from the index", d, want)
	}

	// Batch: answers must line up pairwise with the library.
	pairs := [][2]int32{{0, 1}, {5, 9}, {17, 17}, {100, 399}}
	if err := w.WriteFrame(wire.TBatch, wire.AppendPairs(nil, pairs)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	typ, p, err = r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TBatchResp {
		t.Fatalf("type = %v, want BatchResp", typ)
	}
	ds, err := wire.DecodeDistances(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != len(pairs) {
		t.Fatalf("%d answers for %d pairs", len(ds), len(pairs))
	}
	for i, pr := range pairs {
		if want := ix.Distance(pr[0], pr[1]); ds[i] != want {
			t.Fatalf("pair %v: wire %d, index %d", pr, ds[i], want)
		}
	}
}

// TestBinaryPipelining writes a burst of requests before reading any
// response and checks every answer comes back in request order.
func TestBinaryPipelining(t *testing.T) {
	addr, _, ix, shutdown := binTestServer(t, false)
	defer shutdown()
	c, r, w := binConn(t, addr)
	defer c.Close()

	const burst = 500
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
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if typ != wire.TDistanceResp {
			t.Fatalf("response %d: type %v", i, typ)
		}
		d, err := wire.DecodeDistance(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := ix.Distance(int32(i%400), int32((i*7)%400)); d != want {
			t.Fatalf("response %d out of order or wrong: %d, want %d", i, d, want)
		}
	}
}

func TestBinaryInsertAndStats(t *testing.T) {
	addr, srv, _, shutdown := binTestServer(t, true)
	defer shutdown()
	c, r, w := binConn(t, addr)
	defer c.Close()

	// Distance before the insert.
	w.WriteFrame(wire.TDistance, wire.AppendPair(nil, 0, 5))
	w.Flush()
	_, p, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	before, _ := wire.DecodeDistance(p)

	// Insert a shortcut edge; the next read must observe it.
	w.WriteFrame(wire.TInsert, wire.AppendPairs(nil, [][2]int32{{0, 5}}))
	w.Flush()
	typ, p, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TInsertResp {
		t.Fatalf("type = %v, want InsertResp", typ)
	}
	accepted, _, epoch, err := wire.DecodeInsertResult(p)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 1 || epoch == 0 {
		t.Fatalf("insert result accepted=%d epoch=%d", accepted, epoch)
	}

	w.WriteFrame(wire.TDistance, wire.AppendPair(nil, 0, 5))
	w.Flush()
	_, p, err = r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	after, _ := wire.DecodeDistance(p)
	if after != 1 {
		t.Fatalf("d(0,5) after inserting edge {0,5}: %d (before %d), want 1", after, before)
	}

	// Stats over the wire: same JSON document as GET /stats, and the
	// binary endpoints show up in it.
	w.WriteFrame(wire.TStats, nil)
	w.Flush()
	typ, p, err = r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TStatsResp {
		t.Fatalf("type = %v, want StatsResp", typ)
	}
	var doc struct {
		Index struct {
			N int `json:"n"`
		} `json:"index"`
		Live      *LiveStats               `json:"live"`
		Endpoints map[string]EndpointStats `json:"endpoints"`
	}
	if err := json.Unmarshal(p, &doc); err != nil {
		t.Fatalf("stats payload is not the /stats JSON: %v", err)
	}
	if doc.Index.N != 400 || doc.Live == nil || doc.Live.Epoch == 0 {
		t.Fatalf("stats doc: n=%d live=%+v", doc.Index.N, doc.Live)
	}
	if doc.Endpoints["bin_distance"].Requests < 2 || doc.Endpoints["bin_edges"].Pairs != 1 {
		t.Fatalf("binary endpoint metrics missing: %+v", doc.Endpoints)
	}
	_ = srv
}

// TestBinaryBadMagicDropsConnection pins the handshake: a client that
// opens with anything but the protocol magic is cut off before any
// frame is parsed.
func TestBinaryBadMagicDropsConnection(t *testing.T) {
	addr, _, _, shutdown := binTestServer(t, false)
	defer shutdown()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("GET / HT")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(c); err != nil {
		t.Fatalf("want clean close after bad magic, got %v", err)
	}
}

// TestBinaryCorruptFrameDropsConnection: once framing is untrusted the
// server must drop the connection rather than answer garbage.
func TestBinaryCorruptFrameDropsConnection(t *testing.T) {
	addr, _, _, shutdown := binTestServer(t, false)
	defer shutdown()
	c, r, w := binConn(t, addr)
	defer c.Close()

	// A frame with a bad checksum.
	var buf bytes.Buffer
	bw := wire.NewWriter(&buf)
	bw.WriteFrame(wire.TPing, nil)
	bw.Flush()
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xFF
	if _, err := c.Write(raw); err != nil {
		t.Fatal(err)
	}
	_ = w
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := r.ReadFrame(); err == nil {
		t.Fatal("server answered a corrupt frame")
	}
}

// TestBinaryConcurrentClients hammers one server from many connections
// while (on the live half) writes land, exercising the lock-free
// snapshot path across both protocols. Run under -race in CI.
func TestBinaryConcurrentClients(t *testing.T) {
	addr, srv, _, shutdown := binTestServer(t, true)
	defer shutdown()

	const clients = 8
	const perClient = 200
	var wg sync.WaitGroup
	errc := make(chan error, clients+1)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := net.Dial("tcp", addr)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			if err := wire.WriteMagic(c); err != nil {
				errc <- err
				return
			}
			if err := wire.ReadMagic(c); err != nil {
				errc <- err
				return
			}
			r, w := wire.NewReader(c, 0), wire.NewWriter(c)
			var scratch []byte
			for q := 0; q < perClient; q++ {
				scratch = wire.AppendPair(scratch[:0], int32((id*37+q)%400), int32((q*13)%400))
				if err := w.WriteFrame(wire.TDistance, scratch); err != nil {
					errc <- err
					return
				}
				if err := w.Flush(); err != nil {
					errc <- err
					return
				}
				typ, _, err := r.ReadFrame()
				if err != nil || typ != wire.TDistanceResp {
					errc <- errors.Join(err, errTypeMismatch(typ))
					return
				}
			}
		}(i)
	}
	// Concurrent writer through the Go API while binary reads run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := srv.InsertEdges([][2]int32{{int32(i % 400), int32((i*31 + 1) % 400)}}); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func errTypeMismatch(typ wire.Type) error {
	if typ == wire.TDistanceResp {
		return nil
	}
	return errors.New("unexpected response type " + typ.String())
}

// TestBinaryGracefulShutdown: cancelling the context must release an
// idle connection promptly and return nil.
func TestBinaryGracefulShutdown(t *testing.T) {
	g, err := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildParallel(g, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(ix, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeBinary(ctx, ln) }()

	c, r, w := binConn(t, ln.Addr().String())
	defer c.Close()
	w.WriteFrame(wire.TPing, nil)
	w.Flush()
	if typ, _, err := r.ReadFrame(); err != nil || typ != wire.TPingResp {
		t.Fatalf("ping: (%v, %v)", typ, err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeBinary returned %v on graceful shutdown", err)
		}
	case <-time.After(shutdownGrace / 2):
		t.Fatal("ServeBinary did not return after cancel")
	}
}

// TestBinaryShutdownRightAfterResponse: a connection that has just been
// answered is between requests, not idle yet — shutdown must release it
// as promptly as an idle one instead of waiting out the grace period.
func TestBinaryShutdownRightAfterResponse(t *testing.T) {
	g, err := graph.FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildParallel(g, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(ix, Config{})
	for i := 0; i < 40; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- srv.ServeBinary(ctx, ln) }()
		c, r, w := binConn(t, ln.Addr().String())
		w.WriteFrame(wire.TPing, nil)
		w.Flush()
		if typ, _, err := r.ReadFrame(); err != nil || typ != wire.TPingResp {
			t.Fatalf("ping: (%v, %v)", typ, err)
		}
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("ServeBinary returned %v on graceful shutdown", err)
			}
		case <-time.After(shutdownGrace / 2): // below the grace, so waiting it out fails
			t.Fatalf("round %d: ServeBinary waited for the grace period with no request in flight", i)
		}
		c.Close()
	}
}
