package serve

import (
	"context"
	"time"
)

// Backend is what the protocol front-end needs from whatever answers
// the requests: a Server answering from its own snapshots, or a router
// (internal/cluster) placing each request on a replica-set member. Both
// protocols, every decoder, limit and error mapping are written once
// against it (Frontend), so a client sees one request contract
// whichever process it talks to.
//
// Errors are classified by ErrorTable: wrap one of its sentinels (or
// relay a *wire.RemoteError) to pick the row; anything else is Internal.
type Backend interface {
	Distance(ctx context.Context, s, t int32) (int32, error)
	// DistanceBatch answers pairs[i] in dst[i], reusing dst's storage
	// when it has the capacity: the binary connection loop hands the
	// same slice back on every request.
	DistanceBatch(ctx context.Context, pairs [][2]int32, dst []int32) ([]int32, error)
	InsertEdges(ctx context.Context, edges [][2]int32) (InsertResult, error)
	DeleteEdges(ctx context.Context, edges [][2]int32) (DeleteResult, error)
	// StatsDoc is the document served by GET /stats and Stats frames.
	StatsDoc() any
	// Readiness is the /readyz answer: the JSON body, and whether it is
	// a 200 or a 503 + Retry-After.
	Readiness() (doc any, ready bool)
}

// Frontend serves both protocols over one Backend: the HTTP/JSON mux
// (Handler, Serve) and the binary listener (ServeBinary). Server and
// cluster.Router each embed one whose backend is themselves. The two
// differ in instance state, not in code: a Server sets admission
// budgets and (on a follower) a replication handler; a router has
// neither, so it is un-gated and answers replication frames Malformed.
type Frontend struct {
	backend  Backend
	maxBatch int // pairs or edges per request, Config.MaxBatch
	// writable registers the /edges routes (and lists them in GET /). A
	// read-only Server has none; binary Insert/Delete frames always reach
	// the backend, which answers ReadOnly.
	writable bool

	// Admission gates: bounded in-flight budgets per request class,
	// shared by both listeners (HTTP and binary traffic drain one pool
	// of capacity, because they drain one pool of CPU). The zero gate
	// admits everything.
	readGate  gate
	writeGate gate

	repl    ReplicationHandler // nil: replication frames are Malformed
	metrics metricSet
}

// NewFrontend returns a writable, un-gated front-end for a backend
// outside this package. maxBatch must be positive.
func NewFrontend(b Backend, maxBatch int) *Frontend {
	return &Frontend{backend: b, maxBatch: maxBatch, writable: true}
}

// EndpointStats snapshots the per-endpoint latency/QPS counters of both
// listeners, for the "endpoints" section of the backend's stats
// document. uptime scales the QPS figures.
func (fe *Frontend) EndpointStats(uptime time.Duration) map[string]EndpointStats {
	return fe.metrics.snapshot(uptime)
}

// serverBackend is the Server as a Backend. The Server's own methods
// predate the interface and take no context (a label query finishes in
// microseconds; a write must not be abandoned between its WAL append
// and its publish), so the view adds the parameter instead of changing
// them under every Go caller.
type serverBackend struct{ s *Server }

func (b serverBackend) Distance(_ context.Context, s, t int32) (int32, error) {
	return b.s.Distance(s, t)
}

func (b serverBackend) DistanceBatch(ctx context.Context, pairs [][2]int32, dst []int32) ([]int32, error) {
	return b.s.DistanceBatchContext(ctx, pairs, dst)
}

func (b serverBackend) InsertEdges(_ context.Context, edges [][2]int32) (InsertResult, error) {
	return b.s.InsertEdges(edges)
}

func (b serverBackend) DeleteEdges(_ context.Context, edges [][2]int32) (DeleteResult, error) {
	return b.s.DeleteEdges(edges)
}

func (b serverBackend) StatsDoc() any { return b.s.statsDoc() }

// Readiness (as opposed to liveness): a load balancer should stop
// routing *writes* here while the server is degraded, without the
// process being restarted — /healthz stays 200, /readyz flips to 503.
func (b serverBackend) Readiness() (any, bool) {
	s := b.s
	if s.Degraded() {
		return map[string]string{
			"status": "degraded",
			"detail": "WAL unwritable: writes rejected, reads served from the last snapshot",
		}, false
	}
	rs := s.replicationStats()
	if rs == nil {
		return map[string]string{"status": "ready"}, true
	}
	if !rs.Bootstrapped {
		// A follower that has not installed any state yet answers
		// queries over an empty vertex range; routers must not send
		// reads here until the first snapshot lands.
		return map[string]any{
			"status":            "bootstrapping",
			"detail":            "awaiting replication snapshot",
			"replication_epoch": rs.Epoch,
		}, false
	}
	return map[string]any{
		"status":                  "ready",
		"replication_epoch":       rs.Epoch,
		"replication_lag_batches": rs.LagBatches,
		"replication_lag_ms":      rs.LagMs,
	}, true
}

// statsResponse is the JSON shape of a Server's stats document.
type statsResponse struct {
	// Epoch is the served snapshot epoch at top level — one place for
	// routers, fencing tests and dashboards to read it, on every role
	// (read-only servers report 0; the live section repeats it for
	// live servers).
	Epoch         uint64                   `json:"epoch"`
	Index         indexStats               `json:"index"`
	Live          *LiveStats               `json:"live,omitempty"`
	Replication   *ReplicationStats        `json:"replication,omitempty"`
	Admission     AdmissionStats           `json:"admission"`
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
}

type indexStats struct {
	Method       string  `json:"method,omitempty"`
	NumVertices  int     `json:"n"`
	NumEdges     int64   `json:"m"`
	NumLandmarks int     `json:"landmarks"`
	NumEntries   int64   `json:"entries"`
	AvgLabelSize float64 `json:"avg_label_size"`
	MaxLabelSize int     `json:"max_label_size"`
	SizeBytes    int64   `json:"size_bytes,omitempty"`
	Bytes8       int64   `json:"bytes_compressed"`
}

func (s *Server) statsDoc() statsResponse {
	st := s.snap.Load().ix.Stats()
	return statsResponse{
		Epoch:       s.Epoch(),
		Live:        s.LiveStats(),
		Replication: s.replicationStats(),
		Admission:   s.AdmissionStats(),
		Index: indexStats{
			Method:       st.Method,
			NumVertices:  st.NumVertices,
			NumEdges:     st.NumEdges,
			NumLandmarks: st.NumLandmarks,
			NumEntries:   st.NumEntries,
			AvgLabelSize: st.AvgLabelSize,
			MaxLabelSize: st.MaxLabelSize,
			SizeBytes:    st.SizeBytes,
			Bytes8:       st.Bytes8,
		},
		UptimeSeconds: time.Since(s.started).Seconds(),
		Endpoints:     s.EndpointStats(time.Since(s.started)),
	}
}
