package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"time"

	"highway/internal/failpoint"
	"highway/internal/wire"
)

// Binary protocol listener: the same Backend as the HTTP API, behind
// the length-prefixed framed protocol of internal/wire (specified in
// PROTOCOL.md). One goroutine per connection decodes request frames and
// answers them strictly in order, so clients may pipeline thousands of
// requests per round trip; responses are buffered and flushed only when
// no further request is already readable, which is what collapses a
// pipelined burst into a handful of syscalls.

// Connection timeouts, mirroring the HTTP listener's bounds: a slow or
// dead peer must not pin a goroutine forever.
const (
	binHandshakeTimeout = 10 * time.Second
	binIdleTimeout      = 2 * time.Minute
	binWriteTimeout     = 2 * time.Minute
)

// ListenAndServeBinary serves the binary wire protocol on addr until
// ctx is cancelled, then shuts down gracefully (in-flight requests
// finish; idle connections are released immediately). It returns nil on
// clean shutdown.
func (fe *Frontend) ListenAndServeBinary(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return fe.ServeBinary(ctx, ln)
}

// ServeBinary is ListenAndServeBinary over an existing listener. It may
// run concurrently with Serve on another listener.
func (fe *Frontend) ServeBinary(ctx context.Context, ln net.Listener) error {
	var (
		mu    sync.Mutex
		conns = make(map[net.Conn]struct{})
		wg    sync.WaitGroup
	)
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
		case <-stop:
		}
		ln.Close()
		// Poison pending reads: a connection blocked waiting for its
		// next request fails fast, while one mid-request still gets to
		// write its response before its next read errors out.
		mu.Lock()
		for c := range conns {
			c.SetReadDeadline(time.Now())
		}
		mu.Unlock()
	}()

	var acceptErr error
	for {
		c, err := ln.Accept()
		if err != nil {
			if ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				acceptErr = err
			}
			break
		}
		mu.Lock()
		conns[c] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			fe.serveConn(ctx, c)
			mu.Lock()
			delete(conns, c)
			mu.Unlock()
		}()
	}
	close(stop)

	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(shutdownGrace):
		mu.Lock()
		for c := range conns {
			c.Close()
		}
		mu.Unlock()
		<-drained
	}
	return acceptErr
}

// connScratch is one connection's buffers, reused across requests so
// the steady state allocates nothing: decoded pairs, computed
// distances, and the response payload under construction.
type connScratch struct {
	pairs [][2]int32
	dists []int32
	out   []byte
}

// release drops every buffer the request just answered grew past
// wire.MaxRetained bytes; a full batch's fit under it and are kept.
func (st *connScratch) release() {
	if 8*cap(st.pairs) > wire.MaxRetained {
		st.pairs = nil
	}
	if 4*cap(st.dists) > wire.MaxRetained {
		st.dists = nil
	}
	if cap(st.out) > wire.MaxRetained {
		st.out = nil
	}
}

// serveConn runs one connection's request loop: handshake, then
// frame → dispatch → response until the peer closes, a frame is
// corrupt, or the idle deadline passes. Framing errors drop the
// connection (once the stream position is untrusted nothing on it can
// be answered); application errors are answered in-band with a TError
// frame and the connection keeps going.
//
// ctx is the listener context: its cancellation (shutdown) aborts an
// in-flight batch within ~CancelCheckEvery pairs and drops the
// connection. A peer that merely disconnects mid-batch is only observed
// at response-write time — the pipelined reader gives the server no
// per-request signal before that (see PROTOCOL.md).
func (fe *Frontend) serveConn(ctx context.Context, c net.Conn) {
	defer c.Close()
	c.SetDeadline(time.Now().Add(binHandshakeTimeout))
	if err := wire.ReadMagic(c); err != nil {
		return
	}
	if err := wire.WriteMagic(c); err != nil {
		return
	}
	c.SetDeadline(time.Time{})

	r := wire.NewReader(c, wire.MaxFrame)
	w := wire.NewWriter(c)
	// A pipelined burst is flushed only once drained, so any exit below
	// can leave answers in w: every executed request gets its response.
	defer w.Flush()
	var st connScratch
	for {
		c.SetReadDeadline(time.Now().Add(binIdleTimeout))
		if ctx.Err() != nil {
			// The line above may have just overwritten the shutdown
			// poison; without this check the connection would idle until
			// the grace period force-closes it.
			return
		}
		typ, payload, err := r.ReadFrame()
		if err != nil {
			return
		}
		c.SetWriteDeadline(time.Now().Add(binWriteTimeout))
		start := time.Now()

		// Admission before decode: the cost estimate needs only the
		// payload length, so an over-budget frame is shed for the price
		// of having read it (frames must be consumed in order — the
		// stream cannot be skipped past an unread request). Replication
		// frames are never gated: shedding the primary's shipping stream
		// would turn overload into replica lag, the opposite of what the
		// gate protects.
		ep, g := fe.classOf(typ)
		var (
			respType wire.Type
			answered int64
		)
		st.out = st.out[:0]
		if cost := frameCost(len(payload)); g == nil || g.tryAcquire(cost) {
			respType, answered, err = fe.dispatch(ctx, typ, payload, &st)
			if g != nil {
				g.release(cost)
			}
			if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
				// Shutdown cut the request short: drop the connection.
				// Any other failure is still answered with its TError.
				return
			}
		} else {
			err = ErrOverloaded
		}
		if err != nil {
			row, msg := classify(err)
			respType, st.out = wire.TError, wire.AppendError(st.out[:0], row.Code, msg)
		}
		fe.metrics.observe(ep, answered, time.Since(start), err != nil)
		// The serve.bin.write failpoint stands in for a client connection
		// dying mid-response.
		if err := failpoint.Eval(FPBinWrite); err != nil {
			return
		}
		if err := w.WriteFrame(respType, st.out); err != nil {
			return
		}
		r.Release()
		st.release()
		// Pipelining flush heuristic: only flush when no further
		// request is already buffered, so a burst of N requests costs
		// ~1 write syscall, not N.
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// dispatch decodes and answers one request frame, leaving the response
// payload in st.out. A returned error becomes a TError frame through
// ErrorTable.
func (fe *Frontend) dispatch(ctx context.Context, typ wire.Type, payload []byte, st *connScratch) (wire.Type, int64, error) {
	switch typ {
	case wire.TDistance:
		sv, tv, err := wire.DecodePair(payload)
		if err != nil {
			return 0, 0, errorf(ErrMalformed, "%v", err)
		}
		d, err := fe.backend.Distance(ctx, sv, tv)
		if err != nil {
			return 0, 0, err
		}
		st.out = wire.AppendDistance(st.out, d)
		return wire.TDistanceResp, 1, nil

	case wire.TBatch, wire.TInsert, wire.TDelete:
		var err error
		st.pairs, err = wire.DecodePairs(payload, st.pairs)
		if err != nil {
			return 0, 0, errorf(ErrMalformed, "%v", err)
		}
		if len(st.pairs) > fe.maxBatch {
			noun := "edges"
			if typ == wire.TBatch {
				noun = "pairs"
			}
			return 0, 0, errorf(ErrTooLarge, "batch of %d %s exceeds limit %d", len(st.pairs), noun, fe.maxBatch)
		}
		switch typ {
		case wire.TBatch:
			dists, err := fe.backend.DistanceBatch(ctx, st.pairs, st.dists)
			if err != nil {
				return 0, 0, err
			}
			st.dists = dists
			st.out = wire.AppendDistances(st.out, dists)
			return wire.TBatchResp, int64(len(dists)), nil
		case wire.TInsert:
			res, err := fe.backend.InsertEdges(ctx, st.pairs)
			if err != nil {
				return 0, 0, err
			}
			st.out = wire.AppendInsertResult(st.out, res.Accepted, res.Inserted, res.Epoch)
			return wire.TInsertResp, int64(res.Accepted), nil
		default:
			res, err := fe.backend.DeleteEdges(ctx, st.pairs)
			if err != nil {
				return 0, 0, err
			}
			st.out = wire.AppendDeleteResult(st.out, res.Accepted, res.Deleted, res.Epoch)
			return wire.TDeleteResp, int64(res.Accepted), nil
		}

	case wire.TStats:
		doc, err := json.Marshal(fe.backend.StatsDoc())
		if err != nil {
			return 0, 0, err
		}
		st.out = append(st.out, doc...)
		return wire.TStatsResp, 0, nil

	case wire.TPing:
		return wire.TPingResp, 0, nil

	case wire.TReplAppend, wire.TReplSnapshot:
		if fe.repl == nil {
			return 0, 0, errorf(ErrMalformed, "server is not a replication follower")
		}
		if typ == wire.TReplSnapshot {
			epoch, done, chunk, err := wire.DecodeReplSnapshot(payload)
			if err != nil {
				return 0, 0, errorf(ErrMalformed, "%v", err)
			}
			cur, err := fe.repl.ReplSnapshot(epoch, done, chunk)
			if err != nil {
				return 0, 0, err
			}
			st.out = wire.AppendReplAck(st.out, cur)
			return wire.TReplSnapshotResp, 0, nil
		}
		epoch, ops, err := wire.DecodeReplAppend(payload, st.pairs)
		if err != nil {
			return 0, 0, errorf(ErrMalformed, "%v", err)
		}
		st.pairs = ops
		cur, err := fe.repl.ReplAppend(epoch, ops)
		if err != nil {
			return 0, 0, err
		}
		st.out = wire.AppendReplAck(st.out, cur)
		return wire.TReplAck, int64(len(ops)), nil

	default:
		return 0, 0, errorf(ErrMalformed, "unknown record type 0x%02x", byte(typ))
	}
}

// classOf maps a request type to its metric slot, so binary traffic
// shows up in /stats (and TStatsResp) beside the HTTP endpoints, and to
// the admission gate it must pass (nil: never gated).
func (fe *Frontend) classOf(t wire.Type) (ep int, g *gate) {
	switch t {
	case wire.TDistance:
		return epBinDistance, &fe.readGate
	case wire.TBatch:
		return epBinBatch, &fe.readGate
	case wire.TInsert:
		return epBinEdges, &fe.writeGate
	case wire.TDelete:
		return epBinDelete, &fe.writeGate
	case wire.TStats:
		return epBinStats, nil
	case wire.TReplAppend, wire.TReplSnapshot:
		return epBinRepl, nil
	default:
		return epBinPing, nil
	}
}
