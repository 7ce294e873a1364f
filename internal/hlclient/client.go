// Package hlclient is the native Go client for the binary serving
// protocol (internal/wire, specified in PROTOCOL.md): a
// connection-pooled Client whose Distance call costs one framed round
// trip instead of an HTTP/1 request, and whose DistanceBatch carries
// thousands of pairs per round trip. It is re-exported at the module
// root as highway.Client / highway.Dial.
//
// A Client is safe for concurrent use: every call checks a connection
// out of the pool (dialing a fresh one when the pool is empty) and
// returns it afterwards, so N goroutines fan out over up to N
// connections while idle ones are reused. Reconnection is transparent:
// a request that fails on a pooled connection — typically a server
// restart having closed it — is retried once on a freshly dialed one.
// Retrying is safe for every request type: reads are idempotent by
// nature and edge mutation is idempotent by design (duplicate inserts
// and deletes of absent edges are accepted as no-ops; see
// internal/serve's WAL replay contract).
//
// On top of that sits the resilience layer (see resilience.go):
// requests the server shed with wire.CodeOverloaded, and
// transport-level failures, are retried up to MaxRetries times with
// jittered exponential backoff; and a circuit breaker trips after
// BreakerThreshold consecutive transport failures so a down server
// costs callers ErrCircuitOpen, not a dial timeout each. A caller that
// owns failure handling itself (the cluster router and shipper) turns
// both off with negative values.
//
// Deadlines come from the caller's context: a context deadline is
// applied to the dial, the write and the read of each call.
package hlclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"highway/internal/wire"
)

// Config tunes a Client. The zero value is ready for use.
type Config struct {
	// PoolSize caps the number of idle connections kept for reuse
	// (DefaultPoolSize when 0). Concurrent calls beyond the pool dial
	// extra connections, which are closed instead of pooled when they
	// come back to a full pool.
	PoolSize int

	// MaxRetries bounds how many times a failed request is re-sent
	// beyond its first attempt, with jittered exponential backoff in
	// between (10 ms doubling to at most 1 s; DefaultMaxRetries when 0;
	// negative disables retries). Retried failures are server sheds
	// (wire Overloaded) and transport-level errors; every request type
	// is idempotent, so a retry after a lost acknowledgement never
	// duplicates state. The immediate re-send after a stale pooled
	// connection does not count against this budget.
	MaxRetries int

	// BreakerThreshold opens the circuit breaker after that many
	// consecutive transport-level failures: further calls fail fast
	// with ErrCircuitOpen instead of dialing a server known to be down
	// (DefaultBreakerThreshold when 0; negative disables the breaker).
	// After a 1 s cooldown one probe request is let through; success
	// closes the breaker, failure re-opens it.
	BreakerThreshold int
}

// DefaultPoolSize is the idle-connection cap used when Config.PoolSize
// is zero.
const DefaultPoolSize = 8

// dialTimeout bounds dial+handshake when the caller's context has no
// deadline.
const dialTimeout = 10 * time.Second

// ErrClientClosed is returned by every call after Close.
var ErrClientClosed = errors.New("hlclient: client is closed")

// Client is a pooled connection to one server's binary listener.
// Create one with Dial; all methods are safe for concurrent use.
type Client struct {
	addr string
	cfg  Config
	brk  breaker

	mu     sync.Mutex
	idle   []*poolConn
	closed bool
}

// poolConn is one protocol connection plus its per-connection codec
// state and scratch buffers (reused across the requests it serves).
type poolConn struct {
	c       net.Conn
	r       *wire.Reader
	w       *wire.Writer
	scratch []byte
}

// Dial connects to a server's binary listener at addr (host:port),
// performs the protocol handshake, and returns a ready Client. The
// handshake on this first connection is the liveness check: a peer
// that is not speaking the protocol fails here, not on the first
// query.
func Dial(ctx context.Context, addr string, cfg Config) (*Client, error) {
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = DefaultPoolSize
	}
	switch {
	case cfg.MaxRetries == 0:
		cfg.MaxRetries = DefaultMaxRetries
	case cfg.MaxRetries < 0:
		cfg.MaxRetries = 0
	}
	switch {
	case cfg.BreakerThreshold == 0:
		cfg.BreakerThreshold = DefaultBreakerThreshold
	case cfg.BreakerThreshold < 0:
		cfg.BreakerThreshold = 0 // disabled
	}
	c := &Client{addr: addr, cfg: cfg}
	c.brk.threshold = cfg.BreakerThreshold
	c.brk.cooldown = breakerCooldown
	pc, err := c.dial(ctx)
	if err != nil {
		return nil, err
	}
	c.put(pc)
	return c, nil
}

// dial opens and handshakes one new connection.
func (c *Client) dial(ctx context.Context) (*poolConn, error) {
	dctx := ctx
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, dialTimeout)
		defer cancel()
	}
	var d net.Dialer
	conn, err := d.DialContext(dctx, "tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("hlclient: dial %s: %w", c.addr, err)
	}
	if dl, ok := dctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	if err := wire.WriteMagic(conn); err != nil {
		conn.Close()
		return nil, fmt.Errorf("hlclient: handshake with %s: %w", c.addr, err)
	}
	if err := wire.ReadMagic(conn); err != nil {
		conn.Close()
		return nil, fmt.Errorf("hlclient: handshake with %s: %w", c.addr, err)
	}
	conn.SetDeadline(time.Time{})
	return &poolConn{c: conn, r: wire.NewReader(conn, wire.MaxFrame), w: wire.NewWriter(conn)}, nil
}

// get checks a connection out of the pool, reporting whether it was
// reused (a reused connection may have been closed by the server since
// it was pooled, so a transport failure on it is retried once on a
// fresh one).
func (c *Client) get(ctx context.Context) (pc *poolConn, reused bool, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, ErrClientClosed
	}
	if n := len(c.idle); n > 0 {
		pc = c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return pc, true, nil
	}
	c.mu.Unlock()
	pc, err = c.dial(ctx)
	return pc, false, err
}

// put returns a healthy connection to the pool (closing it when the
// pool is full or the client is closed).
func (c *Client) put(pc *poolConn) {
	c.mu.Lock()
	if !c.closed && len(c.idle) < c.cfg.PoolSize {
		c.idle = append(c.idle, pc)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	pc.c.Close()
}

// Close releases every pooled connection. In-flight calls on
// checked-out connections finish; subsequent calls return
// ErrClientClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.closed = true
	c.mu.Unlock()
	var err error
	for _, pc := range idle {
		if cerr := pc.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// do runs one request/response exchange with the client's full
// resilience stack: circuit breaker check, then up to 1+MaxRetries
// attempts with jittered exponential backoff between them. Each
// attempt checks a connection out of the pool, frames the request (the
// payload build appends, then body as it is) and decodes the response
// with decode (called while the connection still owns the payload
// buffer — copy anything retained). A TError response
// is returned as *wire.RemoteError with the connection kept healthy;
// Overloaded is the one remote error that is retried (the server asked
// for exactly that).
func (c *Client) do(ctx context.Context, req wire.Type, build func(dst []byte) []byte, body []byte,
	want wire.Type, decode func(payload []byte) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for attempt := 0; ; attempt++ {
		if !c.brk.allow() {
			return fmt.Errorf("%w: %s", ErrCircuitOpen, c.addr)
		}
		err := c.attempt(ctx, req, build, body, want, decode)

		// Breaker accounting: any in-band response — success or remote
		// error — proves the server alive; a caller-cancelled context
		// proves nothing either way; everything else is a transport
		// failure.
		var re *wire.RemoteError
		switch {
		case err == nil, errors.As(err, &re):
			c.brk.onSuccess()
		case ctx.Err() != nil, errors.Is(err, ErrClientClosed):
			c.brk.onNeutral()
		default:
			c.brk.onFailure()
		}

		if err == nil || !retryable(err) || attempt >= c.cfg.MaxRetries || ctx.Err() != nil {
			return err
		}
		if sleepCtx(ctx, backoff(attempt, retryBaseDelay, retryMaxDelay)) != nil {
			return err // the caller's deadline beat the backoff; report the real failure
		}
	}
}

// attempt is one try of do: check out (or dial) a connection and run
// the round trip. A transport failure on a reused connection is re-sent immediately on
// the next connection — the pooled connection had gone stale under us
// (server restart, idle timeout), which is routine, not overload.
// Each such failure closes one stale pooled connection, so the loop
// drains the pool and then dials fresh; a fresh connection's failure
// is returned to the retry/backoff layer above.
func (c *Client) attempt(ctx context.Context, req wire.Type, build func(dst []byte) []byte, body []byte,
	want wire.Type, decode func(payload []byte) error) error {
	for {
		pc, reused, err := c.get(ctx)
		if err != nil {
			return err
		}
		healthy, err := pc.roundTrip(ctx, req, build, body, want, decode)
		if healthy {
			c.put(pc)
		} else {
			pc.c.Close()
		}
		if err != nil && !healthy && reused && ctx.Err() == nil {
			continue
		}
		return err
	}
}

// roundTrip performs the exchange on one connection, reporting whether
// the connection is still usable afterwards. A request or response
// buffer the exchange grew past wire.MaxRetained is released with it.
func (pc *poolConn) roundTrip(ctx context.Context, req wire.Type, build func(dst []byte) []byte, body []byte,
	want wire.Type, decode func(payload []byte) error) (healthy bool, err error) {
	if dl, ok := ctx.Deadline(); ok {
		pc.c.SetDeadline(dl)
	} else {
		pc.c.SetDeadline(time.Time{})
	}
	defer pc.release()
	pc.scratch = pc.scratch[:0]
	if build != nil {
		pc.scratch = build(pc.scratch)
	}
	if err := pc.w.WriteFrameParts(req, pc.scratch, body); err != nil {
		return false, fmt.Errorf("hlclient: write: %w", err)
	}
	if err := pc.w.Flush(); err != nil {
		return false, fmt.Errorf("hlclient: write: %w", err)
	}
	typ, payload, err := pc.r.ReadFrame()
	if err != nil {
		return false, fmt.Errorf("hlclient: read: %w", err)
	}
	switch typ {
	case want:
		if decode == nil {
			return true, nil
		}
		if err := decode(payload); err != nil {
			// The frame was well-formed transport-wise but its payload
			// was not what the response type promises: protocol
			// violation, stop trusting the connection.
			return false, fmt.Errorf("hlclient: %v response: %w", typ, err)
		}
		return true, nil
	case wire.TError:
		code, msg, derr := wire.DecodeError(payload)
		if derr != nil {
			return false, fmt.Errorf("hlclient: error response: %w", derr)
		}
		// An in-band error leaves the stream position intact: the
		// connection stays pooled.
		return true, &wire.RemoteError{Code: code, Message: msg}
	default:
		return false, fmt.Errorf("hlclient: server answered %v to a %v request", typ, req)
	}
}

// release drops the connection's request and response buffers if the
// exchange just finished grew either past wire.MaxRetained.
func (pc *poolConn) release() {
	if cap(pc.scratch) > wire.MaxRetained {
		pc.scratch = nil
	}
	pc.r.Release()
}

// Distance returns the exact distance between s and t (-1 when
// disconnected), in one framed round trip.
func (c *Client) Distance(ctx context.Context, s, t int32) (int32, error) {
	var d int32
	err := c.do(ctx,
		wire.TDistance, func(dst []byte) []byte { return wire.AppendPair(dst, s, t) }, nil,
		wire.TDistanceResp, func(p []byte) error {
			var derr error
			d, derr = wire.DecodeDistance(p)
			return derr
		})
	if err != nil {
		return -1, err
	}
	return d, nil
}

// DistanceBatch answers len(pairs) queries in one round trip:
// distances[i] answers pairs[i]. The result is written into dst when it
// has the capacity (pass the previous call's slice to make a query loop
// allocation-free) and dst may be nil.
//
// The server executes the batch through its vectorized batch engine:
// pairs sharing a source are grouped and amortize the source-side label
// work, so source-skewed batches run several times faster than the same
// pairs issued one Distance call at a time — at identical answers.
// Batches the server abandons mid-flight (shutdown) surface here as a
// dropped connection, not a partial response; see PROTOCOL.md.
func (c *Client) DistanceBatch(ctx context.Context, pairs [][2]int32, dst []int32) ([]int32, error) {
	var out []int32
	err := c.do(ctx,
		wire.TBatch, func(b []byte) []byte { return wire.AppendPairs(b, pairs) }, nil,
		wire.TBatchResp, func(p []byte) error {
			var derr error
			out, derr = wire.DecodeDistances(p, dst)
			if derr == nil && len(out) != len(pairs) {
				derr = fmt.Errorf("%d answers for %d pairs", len(out), len(pairs))
			}
			return derr
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// InsertEdges inserts a batch of undirected edges on a live server,
// returning the same acknowledgement as POST /edges. The whole batch is
// accepted or rejected together.
func (c *Client) InsertEdges(ctx context.Context, edges [][2]int32) (wire.InsertResult, error) {
	var res wire.InsertResult
	err := c.do(ctx,
		wire.TInsert, func(b []byte) []byte { return wire.AppendPairs(b, edges) }, nil,
		wire.TInsertResp, func(p []byte) error {
			acc, ins, epoch, derr := wire.DecodeInsertResult(p)
			res = wire.InsertResult{Accepted: acc, Inserted: ins, Epoch: epoch}
			return derr
		})
	if err != nil {
		return wire.InsertResult{}, err
	}
	return res, nil
}

// DeleteEdges deletes a batch of undirected edges on a live server,
// returning the same acknowledgement as DELETE /edges. The whole batch
// is accepted or rejected together; absent edges are acked no-ops,
// which is what makes retrying a lost acknowledgement safe.
func (c *Client) DeleteEdges(ctx context.Context, edges [][2]int32) (wire.DeleteResult, error) {
	var res wire.DeleteResult
	err := c.do(ctx,
		wire.TDelete, func(b []byte) []byte { return wire.AppendPairs(b, edges) }, nil,
		wire.TDeleteResp, func(p []byte) error {
			acc, del, epoch, derr := wire.DecodeDeleteResult(p)
			res = wire.DeleteResult{Accepted: acc, Deleted: del, Epoch: epoch}
			return derr
		})
	if err != nil {
		return wire.DeleteResult{}, err
	}
	return res, nil
}

// Stats fetches the server's stats document — the same JSON served by
// GET /stats.
func (c *Client) Stats(ctx context.Context) (json.RawMessage, error) {
	var doc json.RawMessage
	err := c.do(ctx,
		wire.TStats, nil, nil,
		wire.TStatsResp, func(p []byte) error {
			doc = append(json.RawMessage(nil), p...) // the frame buffer is reused; copy
			return nil
		})
	if err != nil {
		return nil, err
	}
	return doc, nil
}

// Ping performs a liveness round trip.
func (c *Client) Ping(ctx context.Context) error {
	return c.do(ctx, wire.TPing, nil, nil, wire.TPingResp, nil)
}

// ReplAppend ships one WAL batch (ops in WAL record encoding, see
// serve.EncodeWALOps) stamped with the primary's epoch, returning the
// follower's durable epoch after it applied. A stale epoch surfaces as
// *wire.RemoteError with wire.CodeFenced — deterministic, so the retry
// layer correctly leaves it alone.
func (c *Client) ReplAppend(ctx context.Context, epoch uint64, ops [][2]int32) (uint64, error) {
	var cur uint64
	err := c.do(ctx,
		wire.TReplAppend, func(b []byte) []byte { return wire.AppendReplAppend(b, epoch, ops) }, nil,
		wire.TReplAck, func(p []byte) error {
			var derr error
			cur, derr = wire.DecodeReplAck(p)
			return derr
		})
	if err != nil {
		return 0, err
	}
	return cur, nil
}

// ReplSnapshot ships one chunk of a streamed snapshot transfer (done on
// the final chunk installs it), returning the follower's epoch. The chunk
// goes to the connection as it is, after the 9-byte head; it is not
// copied into the connection's buffers.
func (c *Client) ReplSnapshot(ctx context.Context, epoch uint64, done bool, chunk []byte) (uint64, error) {
	var cur uint64
	err := c.do(ctx,
		wire.TReplSnapshot, func(b []byte) []byte { return wire.AppendReplSnapshot(b, epoch, done, nil) }, chunk,
		wire.TReplSnapshotResp, func(p []byte) error {
			var derr error
			cur, derr = wire.DecodeReplAck(p)
			return derr
		})
	if err != nil {
		return 0, err
	}
	return cur, nil
}
