package hlclient

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"highway/internal/core"
	"highway/internal/failpoint"
	"highway/internal/gen"
	"highway/internal/landmark"
	"highway/internal/serve"
	"highway/internal/wire"
)

// fakeServer speaks just enough of the wire protocol to script
// per-request responses: handle is called with the global request
// ordinal (across reconnects) and must return the response frame, or
// respond=false to black-hole the request (read it, answer nothing).
func fakeServer(t *testing.T, handle func(n int32, typ wire.Type, payload []byte) (wire.Type, []byte, bool)) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int32
	serveConn := func(c net.Conn) {
		defer c.Close()
		if err := wire.ReadMagic(c); err != nil {
			return
		}
		if err := wire.WriteMagic(c); err != nil {
			return
		}
		r, w := wire.NewReader(c, 0), wire.NewWriter(c)
		for {
			typ, p, err := r.ReadFrame()
			if err != nil {
				return
			}
			rt, payload, respond := handle(n.Add(1)-1, typ, p)
			if !respond {
				continue
			}
			if w.WriteFrame(rt, payload) != nil || w.Flush() != nil {
				return
			}
		}
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go serveConn(c)
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

// fastRetry is test tuning: real backoff shape, negligible wall time,
// and a 100 ms breaker cooldown, restored when the test ends.
func fastRetry(t *testing.T) Config {
	old := [3]time.Duration{retryBaseDelay, retryMaxDelay, breakerCooldown}
	retryBaseDelay, retryMaxDelay, breakerCooldown = time.Millisecond, 4*time.Millisecond, 100*time.Millisecond
	t.Cleanup(func() { retryBaseDelay, retryMaxDelay, breakerCooldown = old[0], old[1], old[2] })
	return Config{}
}

func TestBackoffBounds(t *testing.T) {
	base, max := 10*time.Millisecond, 80*time.Millisecond
	for attempt := 0; attempt < 8; attempt++ {
		want := base << uint(attempt)
		if want > max {
			want = max
		}
		for i := 0; i < 50; i++ {
			d := backoff(attempt, base, max)
			if d < want/2 || d > want {
				t.Fatalf("backoff(%d) = %v, want in [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
	// Deep attempts must not overflow the shift into a negative delay.
	if d := backoff(62, base, max); d < max/2 || d > max {
		t.Fatalf("backoff(62) = %v, want in [%v, %v]", d, max/2, max)
	}
}

func TestRetryableClassification(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{ErrCircuitOpen, false},
		{ErrClientClosed, false},
		{&wire.RemoteError{Code: wire.CodeOverloaded}, true},
		{&wire.RemoteError{Code: wire.CodeRange}, false},
		{&wire.RemoteError{Code: wire.CodeDegraded}, false},
		{errors.New("hlclient: read: connection reset"), true},
	} {
		if got := retryable(tc.err); got != tc.want {
			t.Fatalf("retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestRetryOnOverloaded pins the shed-retry contract: a server answer
// of CodeOverloaded is retried with backoff and the retry's answer is
// returned as if nothing happened.
func TestRetryOnOverloaded(t *testing.T) {
	addr, stop := fakeServer(t, func(n int32, typ wire.Type, _ []byte) (wire.Type, []byte, bool) {
		if n < 2 {
			return wire.TError, wire.AppendError(nil, wire.CodeOverloaded, "shed"), true
		}
		return wire.TDistanceResp, wire.AppendDistance(nil, 7), true
	})
	defer stop()
	cl, err := Dial(context.Background(), addr, fastRetry(t))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	d, err := cl.Distance(context.Background(), 1, 2)
	if err != nil {
		t.Fatalf("Distance after sheds: %v", err)
	}
	if d != 7 {
		t.Fatalf("Distance = %d, want 7", d)
	}
}

// TestRetryDisabled: MaxRetries < 0 surfaces the shed raw — what the
// load harness depends on.
func TestRetryDisabled(t *testing.T) {
	addr, stop := fakeServer(t, func(int32, wire.Type, []byte) (wire.Type, []byte, bool) {
		return wire.TError, wire.AppendError(nil, wire.CodeOverloaded, "shed"), true
	})
	defer stop()
	cfg := fastRetry(t)
	cfg.MaxRetries = -1
	cl, err := Dial(context.Background(), addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Distance(context.Background(), 1, 2)
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeOverloaded {
		t.Fatalf("err = %v, want raw Overloaded", err)
	}
}

// TestNoRetryOnDeterministicError: remote errors other than Overloaded
// would fail identically on every retry, so exactly one request must
// reach the server.
func TestNoRetryOnDeterministicError(t *testing.T) {
	var served atomic.Int32
	addr, stop := fakeServer(t, func(int32, wire.Type, []byte) (wire.Type, []byte, bool) {
		served.Add(1)
		return wire.TError, wire.AppendError(nil, wire.CodeRange, "vertex out of range"), true
	})
	defer stop()
	cl, err := Dial(context.Background(), addr, fastRetry(t))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Distance(context.Background(), 1, 1<<30)
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeRange {
		t.Fatalf("err = %v, want Range", err)
	}
	if got := served.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want exactly 1 (no retry on deterministic errors)", got)
	}
}

// TestCircuitBreaker drives the full open → fail-fast → half-open →
// closed cycle against a server that goes down and comes back.
func TestCircuitBreaker(t *testing.T) {
	addr, _, _, shutdown := startServer(t, false)
	cfg := fastRetry(t)
	cfg.MaxRetries = -1 // isolate the breaker from the retry layer
	cfg.BreakerThreshold = 2
	cl, err := Dial(context.Background(), addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if _, err := cl.Distance(ctx, 0, 42); err != nil {
		t.Fatalf("healthy call: %v", err)
	}

	shutdown() // server gone; the pooled connection is now stale
	for i := 0; i < cfg.BreakerThreshold; i++ {
		if _, err := cl.Distance(ctx, 0, 42); err == nil {
			t.Fatal("call against a dead server succeeded")
		} else if errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("breaker opened after %d failures, threshold is %d", i, cfg.BreakerThreshold)
		}
	}
	// Threshold reached: the breaker fails fast without dialing.
	t0 := time.Now()
	if _, err := cl.Distance(ctx, 0, 42); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if el := time.Since(t0); el > 500*time.Millisecond {
		t.Fatalf("fail-fast call took %v", el)
	}

	// Bring a server back on the same address, wait out the cooldown:
	// the half-open probe must succeed and close the breaker.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv2 := newTestServerOn(t, ln)
	defer srv2()
	time.Sleep(breakerCooldown + 20*time.Millisecond)
	if _, err := cl.Distance(ctx, 0, 42); err != nil {
		t.Fatalf("post-recovery probe: %v", err)
	}
	if _, err := cl.Distance(ctx, 0, 42); err != nil {
		t.Fatalf("post-recovery steady state: %v", err)
	}
}

// TestInsertRetryNoDoubleApply is the acknowledged-idempotency
// contract end to end: the server applies an insert but the response
// write dies (serve.bin.write failpoint), the client re-sends on a
// fresh connection, and the duplicate is acknowledged as a no-op — the
// edge exists exactly once and the caller sees one coherent answer.
func TestInsertRetryNoDoubleApply(t *testing.T) {
	addr, srv, ix, shutdown := startServer(t, true)
	defer shutdown()
	cl, err := Dial(context.Background(), addr, fastRetry(t))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// An edge the base graph does not have: d(a,b) > 1.
	var a, b int32 = -1, -1
	for s := int32(0); s < 100 && a < 0; s++ {
		for u := s + 1; u < 200; u++ {
			if ix.Distance(s, u) > 1 {
				a, b = s, u
				break
			}
		}
	}
	if a < 0 {
		t.Fatal("no non-adjacent pair found")
	}

	// Kill exactly one response write: the insert is applied
	// server-side, the acknowledgement is lost in transit.
	if err := failpoint.Set(serve.FPBinWrite, "1*error(response write died)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Clear(serve.FPBinWrite)

	res, err := cl.InsertEdges(ctx, [][2]int32{{a, b}})
	if err != nil {
		t.Fatalf("InsertEdges with lost ack: %v", err)
	}
	if res.Accepted != 1 {
		t.Fatalf("Accepted = %d, want 1", res.Accepted)
	}
	// The answer the caller sees is the retry's: the edge was already
	// applied by the first (unacknowledged) attempt, so the retry
	// inserted nothing new.
	if res.Inserted != 0 {
		t.Fatalf("Inserted = %d, want 0 (the retry must be a no-op)", res.Inserted)
	}
	if failpoint.Hits(serve.FPBinWrite) != 1 {
		t.Fatalf("failpoint fired %d times, want 1", failpoint.Hits(serve.FPBinWrite))
	}

	d, err := cl.Distance(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Fatalf("d(%d,%d) = %d after insert, want 1", a, b, d)
	}
	// A deliberate duplicate confirms the server-side state is the
	// single edge, not two stacked copies.
	res2, err := cl.InsertEdges(ctx, [][2]int32{{a, b}})
	if err != nil || res2.Inserted != 0 {
		t.Fatalf("duplicate insert: res=%+v err=%v, want Inserted 0", res2, err)
	}
	_ = srv
}

// newTestServerOn serves a fresh index's binary protocol on an
// existing listener (used to restart "the same" server for breaker
// recovery tests).
func newTestServerOn(t *testing.T, ln net.Listener) (stop func()) {
	t.Helper()
	g := gen.BarabasiAlbert(500, 3, 11)
	lms, err := landmark.Select(g, landmark.Options{K: 8, Strategy: landmark.Degree})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildParallel(g, lms)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(ix, serve.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeBinary(ctx, ln) }()
	return func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("ServeBinary: %v", err)
		}
		srv.Close()
	}
}
