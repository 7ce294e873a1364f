package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"highway/internal/wire"
)

// Handler returns the HTTP API as an http.Handler. Routes:
//
//	GET    /                 self-documenting endpoint listing
//	GET    /distance?s=&t=   one exact distance
//	POST   /distance/batch   {"pairs":[[s,t],...]} -> {"distances":[...]}
//	GET    /stats            the backend's stats document
//	GET    /healthz          liveness probe (process up)
//	GET    /readyz           readiness probe (503 + Retry-After while not ready)
//
// and, on a writable front-end, the mutation API:
//
//	POST   /edges            {"edge":[a,b]} or {"edges":[[a,b],...]}
//	DELETE /edges            same body; decremental repair of the labelling
func (fe *Frontend) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", fe.handleHelp)
	// Query and mutation endpoints sit behind the admission gates;
	// monitoring endpoints (/stats, /healthz, /readyz, /) never do — an
	// overloaded server must still be observable and drainable.
	mux.HandleFunc("GET /distance", fe.timed(epDistance, gated(&fe.readGate, fe.handleDistance)))
	mux.HandleFunc("POST /distance/batch", fe.timed(epBatch, gated(&fe.readGate, fe.handleBatch)))
	mux.HandleFunc("GET /stats", fe.timed(epStats, fe.handleStats))
	mux.HandleFunc("GET /healthz", fe.timed(epHealth, fe.handleHealth))
	mux.HandleFunc("GET /readyz", fe.timed(epReady, fe.handleReady))
	if fe.writable {
		mux.HandleFunc("POST /edges", fe.timed(epEdges, gated(&fe.writeGate, fe.handleEdges(false))))
		mux.HandleFunc("DELETE /edges", fe.timed(epDelete, gated(&fe.writeGate, fe.handleEdges(true))))
	}
	return mux
}

// ListenAndServe serves the HTTP API on addr until ctx is cancelled,
// then shuts down gracefully, waiting up to shutdownGrace (5 s) for
// in-flight requests. It returns nil on clean shutdown.
func (fe *Frontend) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return fe.Serve(ctx, ln)
}

// ListenAndServeBoth is ListenAndServe on addr plus, unless binAddr is
// empty, ListenAndServeBinary on binAddr. Either listener failing takes
// the other down (a half-up server is worse than a down one); ctx shuts
// both down gracefully.
func (fe *Frontend) ListenAndServeBoth(ctx context.Context, addr, binAddr string) error {
	if binAddr == "" {
		return fe.ListenAndServe(ctx, addr)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errc := make(chan error, 2)
	go func() { errc <- fe.ListenAndServeBinary(ctx, binAddr) }()
	go func() { errc <- fe.ListenAndServe(ctx, addr) }()
	err := <-errc
	cancel()
	if e2 := <-errc; err == nil {
		err = e2
	}
	return err
}

// Serve is ListenAndServe over an existing listener.
func (fe *Frontend) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler: fe.Handler(),
		// Bound slow clients: without these a connection trickling
		// header bytes pins a goroutine forever and stalls Shutdown for
		// the whole grace period.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// handlerFunc is an http.HandlerFunc that also reports how many pairs it
// answered and whether it failed, for the metric set.
type handlerFunc func(w http.ResponseWriter, r *http.Request) (pairs int64, failed bool)

// timed wraps a handler with latency/QPS accounting for one endpoint.
func (fe *Frontend) timed(ep int, h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		pairs, failed := h(w, r)
		fe.metrics.observe(ep, pairs, time.Since(start), failed)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// reply answers a request with v, which counts as answered pairs in
// the metrics, or fails it with err when there is one.
func reply(w http.ResponseWriter, v any, answered int, err error) (int64, bool) {
	if err != nil {
		return fail(w, err)
	}
	writeJSON(w, http.StatusOK, v)
	return int64(answered), false
}

// fail answers a failed request through ErrorTable.
func fail(w http.ResponseWriter, err error) (int64, bool) {
	row, msg := classify(err)
	if row.Retryable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, row.Status, errorBody{Error: msg})
	return 0, true
}

func (fe *Frontend) handleHelp(w http.ResponseWriter, r *http.Request) {
	endpoints := map[string]string{
		"GET /distance?s=&t=":  "one exact distance; -1 = disconnected",
		"POST /distance/batch": `{"pairs":[[s,t],...]} -> {"distances":[...]}; max ` + strconv.Itoa(fe.maxBatch) + " pairs",
		"GET /stats":           "index + live-serving stats, per-endpoint latency/QPS counters",
		"GET /healthz":         "liveness probe (process up)",
		"GET /readyz":          "readiness probe: 503 while the server is degraded (load balancers drain on this, not /healthz)",
	}
	if fe.writable {
		endpoints["POST /edges"] = `{"edge":[a,b]} or {"edges":[[a,b],...]} -> {"accepted":n,"inserted":m,"epoch":e}`
		endpoints["DELETE /edges"] = `same body as POST -> {"accepted":n,"deleted":m,"epoch":e}; absent edges are acked no-ops`
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"service":   "hlserve: exact distance oracle (highway cover labelling, EDBT 2019)",
		"endpoints": endpoints,
	})
}

// distanceResponse is the JSON shape of GET /distance.
type distanceResponse struct {
	S        int32 `json:"s"`
	T        int32 `json:"t"`
	Distance int32 `json:"distance"`
}

func (fe *Frontend) handleDistance(w http.ResponseWriter, r *http.Request) (int64, bool) {
	sv, err1 := strconv.ParseInt(r.URL.Query().Get("s"), 10, 32)
	tv, err2 := strconv.ParseInt(r.URL.Query().Get("t"), 10, 32)
	if err1 != nil || err2 != nil {
		return fail(w, errorf(ErrMalformed, `need integer query params "s" and "t"`))
	}
	d, err := fe.backend.Distance(r.Context(), int32(sv), int32(tv))
	return reply(w, distanceResponse{S: int32(sv), T: int32(tv), Distance: d}, 1, err)
}

// decodeBody strictly decodes a JSON request body into dst: capped in
// size, no unknown fields, exactly one object. what names the request
// in the error text.
func (fe *Frontend) decodeBody(w http.ResponseWriter, r *http.Request, what string, dst any) error {
	// 64 bytes/pair comfortably covers pretty-printed JSON for maxBatch
	// pairs; the element-count check in toPairs is the real limit.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, int64(fe.maxBatch)*64+1024))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	trailing := false
	if err == nil {
		// Reject trailing garbage after the object — a concatenated second
		// request must fail loudly, not be half-answered. The byte cap can
		// also trip here (a valid object followed by bytes past the limit),
		// and must still surface as 413, not a generic 400.
		if err = dec.Decode(&struct{}{}); err == io.EOF {
			return nil
		}
		trailing = true
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return errorf(ErrTooLarge, "%s request body exceeds %d bytes", what, tooLarge.Limit)
	case trailing:
		return errorf(ErrMalformed, "malformed %s request: trailing data after JSON object", what)
	default:
		return errorf(ErrMalformed, "malformed %s request: %v", what, err)
	}
}

// toPairs checks a decoded list against the batch limit and the
// two-element shape. noun ("pair", "edge") and shape ("[s,t]", "[a,b]")
// name an element in the error text. On a mis-shaped element it also
// returns the well-formed elements before it.
func (fe *Frontend) toPairs(raw [][]int32, noun, shape string) ([][2]int32, error) {
	if len(raw) > fe.maxBatch {
		return nil, errorf(ErrTooLarge, "batch of %d %ss exceeds limit %d", len(raw), noun, fe.maxBatch)
	}
	pairs := make([][2]int32, len(raw))
	for i, p := range raw {
		if len(p) != 2 {
			return pairs[:i], errorf(ErrMalformed, "%s %d: want %s, got %d elements", noun, i, shape, len(p))
		}
		pairs[i] = [2]int32{p[0], p[1]}
	}
	return pairs, nil
}

// batchRequest is the JSON shape of POST /distance/batch. Pairs are
// 2-element [s,t] arrays, the compact form batch clients generate
// trivially in any language. They decode as slices (not [2]int32)
// because encoding/json silently pads or truncates fixed-size arrays —
// a [s,t,junk] triple must be a 400, not a guess.
type batchRequest struct {
	Pairs [][]int32 `json:"pairs"`
}

// batchResponse mirrors batchRequest: Distances[i] answers Pairs[i].
type batchResponse struct {
	Count     int     `json:"count"`
	Distances []int32 `json:"distances"`
}

func (fe *Frontend) handleBatch(w http.ResponseWriter, r *http.Request) (int64, bool) {
	var req batchRequest
	if err := fe.decodeBody(w, r, "batch", &req); err != nil {
		return fail(w, err)
	}
	pairs, err := fe.toPairs(req.Pairs, "pair", "[s,t]")
	if err != nil {
		// A batch reports its first bad pair, and only the backend knows
		// the range: ask it about the pairs ahead of the mis-shaped one.
		if len(pairs) > 0 {
			if _, berr := fe.backend.DistanceBatch(r.Context(), pairs, nil); berr != nil {
				if row, _ := classify(berr); row.Code == wire.CodeRange {
					err = berr
				}
			}
		}
		return fail(w, err)
	}
	// The request context cancels an abandoned batch — a disconnected
	// client stops burning CPU within ~1k pairs.
	distances, err := fe.backend.DistanceBatch(r.Context(), pairs, nil)
	if err != nil {
		if r.Context().Err() != nil {
			// The client is gone (or the server is shutting down), so
			// there is nobody to answer.
			return 0, true
		}
		return fail(w, err)
	}
	return reply(w, batchResponse{Count: len(distances), Distances: distances}, len(distances), nil)
}

// edgesRequest is the JSON shape of POST and DELETE /edges: either one
// edge or a batch, not both. Edges decode as slices for the same reason
// as batchRequest.
type edgesRequest struct {
	Edge  []int32   `json:"edge"`
	Edges [][]int32 `json:"edges"`
}

// handleEdges serves POST /edges (del=false) and DELETE /edges.
func (fe *Frontend) handleEdges(del bool) handlerFunc {
	return func(w http.ResponseWriter, r *http.Request) (int64, bool) {
		var req edgesRequest
		if err := fe.decodeBody(w, r, "update", &req); err != nil {
			return fail(w, err)
		}
		if (req.Edge == nil) == (req.Edges == nil) {
			return fail(w, errorf(ErrMalformed, `want exactly one of "edge" or "edges"`))
		}
		if req.Edge != nil {
			req.Edges = [][]int32{req.Edge}
		}
		edges, err := fe.toPairs(req.Edges, "edge", "[a,b]")
		if err != nil {
			return fail(w, err)
		}
		if del {
			res, err := fe.backend.DeleteEdges(r.Context(), edges)
			return reply(w, res, res.Accepted, err)
		}
		res, err := fe.backend.InsertEdges(r.Context(), edges)
		return reply(w, res, res.Accepted, err)
	}
}

func (fe *Frontend) handleStats(w http.ResponseWriter, r *http.Request) (int64, bool) {
	return reply(w, fe.backend.StatsDoc(), 0, nil)
}

func (fe *Frontend) handleHealth(w http.ResponseWriter, r *http.Request) (int64, bool) {
	return reply(w, map[string]string{"status": "ok"}, 0, nil)
}

func (fe *Frontend) handleReady(w http.ResponseWriter, r *http.Request) (int64, bool) {
	doc, ready := fe.backend.Readiness()
	if !ready {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, doc)
		return 0, true
	}
	return reply(w, doc, 0, nil)
}
