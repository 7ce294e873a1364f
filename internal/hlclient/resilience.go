package hlclient

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"highway/internal/wire"
)

// Client-side resilience: bounded retries with jittered exponential
// backoff for requests the server shed (Overloaded) or that failed in
// transport, and a circuit breaker that stops hammering a server that
// is demonstrably down. Every request type is idempotent — reads by
// nature, edge insertion by the server's acknowledged-duplicate
// contract — so retrying after a lost acknowledgement can duplicate
// work but never state.

// Default retry/breaker tuning, used for the zero Config values.
const (
	DefaultMaxRetries       = 3
	DefaultBreakerThreshold = 5
)

// The backoff shape and the breaker's cooldown. Variables so the
// package's tests can shorten them; a Client reads the cooldown once,
// in Dial.
var (
	retryBaseDelay  = 10 * time.Millisecond
	retryMaxDelay   = time.Second
	breakerCooldown = time.Second
)

// ErrCircuitOpen is returned without touching the network while the
// circuit breaker is open: enough consecutive transport failures have
// shown the server unreachable, and the client fails fast until the
// cooldown expires and a probe succeeds.
var ErrCircuitOpen = errors.New("hlclient: circuit breaker open (server unreachable)")

// retryable reports whether a request that failed with err may be sent
// again: a shed (the server explicitly asks for retry-with-backoff) or
// a transport-level failure (dial, write, read, protocol violation —
// all safe to retry because requests are idempotent). In-band
// application errors other than Overloaded are deterministic — the
// same request would fail the same way — and context errors belong to
// the caller.
func retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrCircuitOpen) || errors.Is(err, ErrClientClosed) {
		return false
	}
	var re *wire.RemoteError
	if errors.As(err, &re) {
		return re.Code == wire.CodeOverloaded
	}
	return true
}

// backoff computes the jittered delay before retry attempt (0-based):
// exponential growth from base, capped at max, with equal jitter (the
// second half of the interval is uniformly random) so a burst of
// clients shed together does not return together.
func backoff(attempt int, base, max time.Duration) time.Duration {
	d := base << uint(attempt)
	if d > max || d <= 0 { // <= 0: shift overflow
		d = max
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// breakerState is the classic three-state machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker trips after threshold consecutive transport-level failures.
// While open, calls fail fast with ErrCircuitOpen; after the cooldown
// one probe request is let through (half-open) — its success closes
// the breaker, its failure re-opens it for another cooldown.
type breaker struct {
	threshold int // <= 0: disabled
	cooldown  time.Duration

	mu       sync.Mutex
	state    breakerState
	fails    int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// allow reports whether a request may proceed. When it returns true
// the caller MUST report the outcome via onSuccess/onFailure (the
// half-open probe slot is reserved until then).
func (b *breaker) allow() bool {
	if b.threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// onSuccess records a request that reached the server (any in-band
// response counts — a RemoteError still proves the server alive).
func (b *breaker) onSuccess() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.state = breakerClosed
	b.fails = 0
	b.probing = false
	b.mu.Unlock()
}

// onNeutral records an outcome that proves nothing about the server —
// the caller cancelled, or the client was closed mid-call. It only
// releases a reserved half-open probe slot so the next call may probe.
func (b *breaker) onNeutral() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// onFailure records a transport-level failure (dial error, or a dead
// fresh connection).
func (b *breaker) onFailure() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		// The probe failed: back to open for another cooldown.
		b.state = breakerOpen
		b.openedAt = time.Now()
		b.probing = false
		return
	}
	b.fails++
	if b.fails >= b.threshold {
		b.state = breakerOpen
		b.openedAt = time.Now()
	}
}
