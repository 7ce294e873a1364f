package hlclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"highway/internal/core"
	"highway/internal/gen"
	"highway/internal/landmark"
	"highway/internal/serve"
	"highway/internal/wire"
)

// startServer builds a small index and serves it on a binary listener,
// returning the address, the server, the index and a shutdown func.
func startServer(t *testing.T, live bool) (string, *serve.Server, *core.Index, func()) {
	t.Helper()
	g := gen.BarabasiAlbert(500, 3, 11)
	lms, err := landmark.Select(g, landmark.Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildParallel(g, lms)
	if err != nil {
		t.Fatal(err)
	}
	var srv *serve.Server
	if live {
		srv, err = serve.NewLive(ix, serve.LiveConfig{})
		if err != nil {
			t.Fatal(err)
		}
	} else {
		srv = serve.New(ix, serve.Config{})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeBinary(ctx, ln) }()
	return ln.Addr().String(), srv, ix, func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("ServeBinary: %v", err)
		}
		srv.Close()
	}
}

func TestClientRoundTrip(t *testing.T) {
	addr, _, ix, shutdown := startServer(t, false)
	defer shutdown()
	ctx := context.Background()
	cl, err := Dial(ctx, addr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	d, err := cl.Distance(ctx, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if want := ix.Distance(0, 42); d != want {
		t.Fatalf("Distance(0,42) = %d, index says %d", d, want)
	}

	pairs := [][2]int32{{0, 1}, {9, 200}, {3, 3}, {499, 0}}
	ds, err := cl.DistanceBatch(ctx, pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		if want := ix.Distance(p[0], p[1]); ds[i] != want {
			t.Fatalf("batch pair %v: %d, want %d", p, ds[i], want)
		}
	}
	// dst reuse: a large-enough result buffer must come back as the
	// answer slice.
	buf := make([]int32, 16)
	ds2, err := cl.DistanceBatch(ctx, pairs, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &ds2[0] != &buf[0] {
		t.Fatal("DistanceBatch allocated despite a large-enough dst")
	}

	doc, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Index struct {
			N int `json:"n"`
		} `json:"index"`
	}
	if err := json.Unmarshal(doc, &stats); err != nil || stats.Index.N != 500 {
		t.Fatalf("stats doc n=%d err=%v", stats.Index.N, err)
	}
}

func TestClientRemoteErrors(t *testing.T) {
	addr, _, _, shutdown := startServer(t, false)
	defer shutdown()
	ctx := context.Background()
	cl, err := Dial(ctx, addr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	_, err = cl.Distance(ctx, 0, 99999)
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeRange {
		t.Fatalf("out-of-range: err = %v, want RemoteError{Range}", err)
	}
	// Insert on a read-only server.
	_, err = cl.InsertEdges(ctx, [][2]int32{{0, 1}})
	if !errors.As(err, &re) || re.Code != wire.CodeReadOnly {
		t.Fatalf("insert on read-only: err = %v, want RemoteError{ReadOnly}", err)
	}
	// The connection survived both in-band errors and was pooled: the
	// next query must not need a new dial (observable as it still
	// answering correctly).
	if _, err := cl.Distance(ctx, 0, 1); err != nil {
		t.Fatalf("query after remote errors: %v", err)
	}
}

func TestClientInsertEdges(t *testing.T) {
	addr, _, _, shutdown := startServer(t, true)
	defer shutdown()
	ctx := context.Background()
	cl, err := Dial(ctx, addr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	before, err := cl.Distance(ctx, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.InsertEdges(ctx, [][2]int32{{0, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 || res.Epoch == 0 {
		t.Fatalf("insert result %+v", res)
	}
	after, err := cl.Distance(ctx, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if after != 1 {
		t.Fatalf("d(0,7) = %d after inserting the edge (was %d), want 1", after, before)
	}
}

// TestClientReconnect kills the server between two calls: the pooled
// connection goes stale, and the retry path must transparently dial the
// replacement listener on the same address.
func TestClientReconnect(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 5)
	lms, err := landmark.Select(g, landmark.Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildParallel(g, lms)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(ix, serve.Config{})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan error, 1)
	go func() { done1 <- srv.ServeBinary(ctx1, ln) }()

	ctx := context.Background()
	cl, err := Dial(ctx, addr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	want, err := cl.Distance(ctx, 1, 2)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the first listener; its connections die with it.
	cancel1()
	if err := <-done1; err != nil {
		t.Fatal(err)
	}

	// Restart on the same address.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan error, 1)
	go func() { done2 <- srv.ServeBinary(ctx2, ln2) }()
	defer func() {
		cancel2()
		<-done2
	}()

	// The pooled connection is stale; the call must succeed anyway.
	got, err := cl.Distance(ctx, 1, 2)
	if err != nil {
		t.Fatalf("query across restart: %v", err)
	}
	if got != want {
		t.Fatalf("d(1,2) = %d across restart, want %d", got, want)
	}
}

func TestClientContextAndClose(t *testing.T) {
	addr, _, _, shutdown := startServer(t, false)
	defer shutdown()
	cl, err := Dial(context.Background(), addr, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// An already-cancelled context fails fast without touching the
	// network.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.Distance(cctx, 0, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v", err)
	}

	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Distance(context.Background(), 0, 1); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("after Close: err = %v, want ErrClientClosed", err)
	}
	if err := cl.Ping(context.Background()); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("after Close: err = %v, want ErrClientClosed", err)
	}
}

func TestDialFailures(t *testing.T) {
	// Nothing listening.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := Dial(ctx, "127.0.0.1:1", Config{}); err == nil {
		t.Fatal("Dial to a dead port succeeded")
	}

	// A listener speaking the wrong protocol (it answers the magic with
	// garbage) must fail the handshake.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Write([]byte("HTTP/1.1 400 Bad Request\r\n\r\n"))
			c.Close()
		}
	}()
	if _, err := Dial(ctx, ln.Addr().String(), Config{}); !errors.Is(err, wire.ErrBadMagic) {
		t.Fatalf("handshake with non-protocol peer: err = %v, want ErrBadMagic", err)
	}
}

// TestClientConcurrent fans many goroutines over one client against a
// live server taking writes; run under -race in CI (the round trip this
// exercises is the client/server concurrency contract).
func TestClientConcurrent(t *testing.T) {
	addr, srv, _, shutdown := startServer(t, true)
	defer shutdown()
	ctx := context.Background()
	cl, err := Dial(ctx, addr, Config{PoolSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const workers = 8
	var wg sync.WaitGroup
	errc := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var dst []int32
			pairs := make([][2]int32, 32)
			for i := 0; i < 50; i++ {
				if _, err := cl.Distance(ctx, int32((id+i)%500), int32((i*3)%500)); err != nil {
					errc <- err
					return
				}
				for j := range pairs {
					pairs[j] = [2]int32{int32((id*j + i) % 500), int32(j % 500)}
				}
				var err error
				if dst, err = cl.DistanceBatch(ctx, pairs, dst); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, err := cl.InsertEdges(ctx, [][2]int32{{int32(i % 500), int32((i*17 + 1) % 500)}}); err != nil {
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
	_ = srv
}

// TestPooledConnReleasesLargeFrames: a snapshot chunk goes out without
// being copied into the pooled connection's scratch, and no buffer a
// large request or response grew outlives its exchange — the connection
// goes back to the pool holding at most wire.MaxRetained in each.
func TestPooledConnReleasesLargeFrames(t *testing.T) {
	const size = 1 << 20
	var chunkLen atomic.Int64
	addr, stop := fakeServer(t, func(_ int32, typ wire.Type, p []byte) (wire.Type, []byte, bool) {
		switch typ {
		case wire.TReplSnapshot:
			_, _, chunk, _ := wire.DecodeReplSnapshot(p)
			chunkLen.Store(int64(len(chunk)))
			return wire.TReplSnapshotResp, wire.AppendReplAck(nil, 5), true
		case wire.TBatch:
			pairs, _ := wire.DecodePairs(p, nil)
			return wire.TBatchResp, wire.AppendDistances(nil, make([]int32, len(pairs))), true
		default:
			return wire.TStatsResp, append([]byte(`"`), append(bytes.Repeat([]byte{'x'}, size), '"')...), true
		}
	})
	defer stop()
	ctx := context.Background()
	cl, err := Dial(ctx, addr, Config{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	pooled := func(what string) *poolConn {
		t.Helper()
		if len(cl.idle) != 1 {
			t.Fatalf("after %s: %d pooled connections, want 1", what, len(cl.idle))
		}
		pc := cl.idle[0]
		if held := cap(pc.scratch); held > wire.MaxRetained {
			t.Fatalf("after %s the pooled connection's scratch holds %d bytes", what, held)
		}
		return pc
	}

	if ep, err := cl.ReplSnapshot(ctx, 5, true, make([]byte, size)); err != nil || ep != 5 || chunkLen.Load() != size {
		t.Fatalf("ReplSnapshot: epoch %d, %v; the server got %d bytes", ep, err, chunkLen.Load())
	}
	if held := cap(pooled("a 1 MiB snapshot chunk").scratch); held > 64 {
		t.Fatalf("the chunk was staged in the scratch: it holds %d bytes", held)
	}
	if _, err := cl.DistanceBatch(ctx, make([][2]int32, size/8), nil); err != nil {
		t.Fatal(err)
	}
	pooled("a 1 MiB batch")

	// The response side: the reader's buffer of a 1 MiB answer is garbage
	// once the call returns, while its connection stays pooled.
	var answer weak.Pointer[byte]
	err = cl.do(ctx, wire.TStats, nil, nil, wire.TStatsResp, func(p []byte) error {
		answer = weak.Make(&p[0])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pc := pooled("a 1 MiB response")
	runtime.GC()
	if answer.Value() != nil {
		t.Fatal("the 1 MiB response's buffer survives a collection in the pooled connection")
	}
	runtime.KeepAlive(pc)
}
