package serve

import (
	"io"
	"net/http"
	"sync/atomic"
)

// Overload protection: a bounded in-flight admission gate per request
// class. The server maintains two budgets — reads (distance/batch) and
// writes (edge inserts) — measured in cost units rather than request
// counts, so one 64k-pair batch weighs roughly 64 single queries and
// cannot sneak past a per-request limit. Requests beyond the budget are
// shed *before any work* (no JSON decode, no pair validation, no
// searcher checkout): a rejected request costs microseconds, which is
// the property that keeps shedding cheaper than collapsing.
//
// Shed responses carry HTTP 429 + Retry-After on the JSON listener and
// wire.CodeOverloaded on the binary listener; /stats, /healthz and
// /readyz are never gated — overload is exactly when monitoring must
// keep answering.

// admissionCostDivisor converts an estimated pair count into cost
// units: 1 base unit plus one per 1024 pairs.
const admissionCostDivisor = 1024

// Default admission budgets (cost units of concurrent in-flight work)
// used when Config.ReadBudget / Config.WriteBudget are zero. Sized so
// ordinary deployments never notice the gate: ~1k concurrent single
// queries (or ~16 maximal batches) and ~256 concurrent insert batches
// have no business being in flight at once on one node.
const (
	DefaultReadBudget  = 1024
	DefaultWriteBudget = 256
)

// gate is one admission budget. tryAcquire is a single atomic add on
// the admit path — the gate itself must never become the bottleneck it
// guards against.
type gate struct {
	budget   int64 // <= 0: unlimited
	inflight atomic.Int64
	admitted atomic.Int64
	shed     atomic.Int64
}

// tryAcquire admits cost units of work, or sheds the request. The
// add-then-check-then-rollback shape keeps the fast path to one atomic
// op; transient overshoot between add and rollback is bounded by the
// number of concurrently-shedding requests, which is exactly the
// overload case where precision stops mattering.
func (g *gate) tryAcquire(cost int64) bool {
	if g.budget <= 0 {
		return true
	}
	if g.inflight.Add(cost) > g.budget {
		g.inflight.Add(-cost)
		g.shed.Add(1)
		return false
	}
	g.admitted.Add(1)
	return true
}

// release returns cost units acquired by a successful tryAcquire.
func (g *gate) release(cost int64) {
	if g.budget <= 0 {
		return
	}
	g.inflight.Add(-cost)
}

// resolveBudget maps a Config budget knob to a gate budget: 0 picks the
// default, negative disables the gate.
func resolveBudget(configured, def int) int64 {
	switch {
	case configured == 0:
		return int64(def)
	case configured < 0:
		return 0 // unlimited
	default:
		return int64(configured)
	}
}

// pairsCost converts a pair/edge count estimate to admission cost.
func pairsCost(pairs int64) int64 {
	if pairs < 0 {
		pairs = 0
	}
	return 1 + pairs/admissionCostDivisor
}

// httpCost estimates a request's admission cost from its declared body
// size, before reading a byte of it: compact JSON spends ~10 bytes per
// pair, so ContentLength/10 approximates the pair count. GETs and small
// bodies cost the 1 base unit.
func httpCost(r *http.Request) int64 {
	return pairsCost(r.ContentLength / 10)
}

// frameCost estimates a binary frame's admission cost from its payload
// length (8 bytes per pair), again before decoding it.
func frameCost(payloadLen int) int64 {
	return pairsCost(int64(payloadLen) / 8)
}

// shedDrainLimit bounds how much of a shed request's body the server
// reads to keep its connection reusable. Bodies beyond it forfeit the
// connection rather than the budget.
const shedDrainLimit = 1 << 20

// gated wraps a handler with admission control against g: shed requests
// are answered 429 + Retry-After without invoking h.
func gated(g *gate, h handlerFunc) handlerFunc {
	return func(w http.ResponseWriter, r *http.Request) (int64, bool) {
		cost := httpCost(r)
		if !g.tryAcquire(cost) {
			// Drain the unread body (bounded) so net/http keeps the
			// connection alive: a shed that costs the client its
			// keep-alive connection triggers a reconnect storm, which is
			// the opposite of overload protection. Reading bytes that
			// already arrived is cheap; it is the decode and the query
			// work that shedding avoids.
			if r.ContentLength >= 0 && r.ContentLength <= shedDrainLimit {
				io.Copy(io.Discard, r.Body)
			}
			return fail(w, ErrOverloaded)
		}
		defer g.release(cost)
		return h(w, r)
	}
}

// GateStats is one admission gate's counters in /stats.
type GateStats struct {
	Budget   int64 `json:"budget"` // 0 = unlimited
	Inflight int64 `json:"inflight"`
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
}

// AdmissionStats is the admission section of /stats.
type AdmissionStats struct {
	Read  GateStats `json:"read"`
	Write GateStats `json:"write"`
}

func (g *gate) stats() GateStats {
	return GateStats{
		Budget:   g.budget,
		Inflight: g.inflight.Load(),
		Admitted: g.admitted.Load(),
		Shed:     g.shed.Load(),
	}
}

// AdmissionStats returns the current gate counters.
func (s *Server) AdmissionStats() AdmissionStats {
	return AdmissionStats{Read: s.readGate.stats(), Write: s.writeGate.stats()}
}
