package highway

import (
	"context"

	"highway/internal/hlclient"
	"highway/internal/wire"
)

// Client is the native client for the binary wire protocol
// (PROTOCOL.md): a connection-pooled handle whose Distance call costs
// one framed round trip instead of an HTTP request, and whose
// DistanceBatch carries thousands of pairs per round trip. Create one
// with Dial; all methods are safe for concurrent use and reconnect
// transparently across server restarts.
type Client = hlclient.Client

// ClientConfig tunes a Client (pool size, dial timeout, retry policy,
// circuit breaker); the zero value is ready for use.
type ClientConfig = hlclient.Config

// ErrClientClosed is returned by every Client call after Close.
var ErrClientClosed = hlclient.ErrClientClosed

// ErrCircuitOpen is returned without touching the network while the
// client's circuit breaker is open: enough consecutive transport
// failures proved the server unreachable, and calls fail fast until a
// cooldown expires and a probe succeeds (ClientConfig.BreakerThreshold
// to tune, negative to disable).
var ErrCircuitOpen = hlclient.ErrCircuitOpen

// Dial connects to a server's binary listener (Server.ServeBinary, or
// "hlserve serve -binaddr") at addr and performs the protocol
// handshake, so a peer not speaking the protocol fails here rather
// than on the first query.
func Dial(ctx context.Context, addr string, cfg ClientConfig) (*Client, error) {
	return hlclient.Dial(ctx, addr, cfg)
}

// RemoteError is a server-reported request failure (an in-band Error
// frame): the request was rejected — out-of-range vertex, oversized
// batch, read-only server — but the connection stays healthy and
// pooled. Distinguish it from transport errors with errors.As.
type RemoteError = wire.RemoteError

// RemoteErrorCode classifies a RemoteError; the values are the wire
// protocol's error codes (PROTOCOL.md).
type RemoteErrorCode = wire.ErrorCode

const (
	// RemoteMalformed: the request payload did not parse.
	RemoteMalformed = wire.CodeMalformed
	// RemoteRange: a vertex id was outside [0, n).
	RemoteRange = wire.CodeRange
	// RemoteTooLarge: the batch exceeded the server's MaxBatch.
	RemoteTooLarge = wire.CodeTooLarge
	// RemoteReadOnly: an insert was sent to a read-only server.
	RemoteReadOnly = wire.CodeReadOnly
	// RemoteClosed: the server is shutting down.
	RemoteClosed = wire.CodeClosed
	// RemoteInternal: the server failed to apply an accepted request.
	RemoteInternal = wire.CodeInternal
	// RemoteOverloaded: the admission gate shed the request before any
	// work; retrying after a short backoff is always safe (the client
	// does so itself unless retries are disabled).
	RemoteOverloaded = wire.CodeOverloaded
	// RemoteDegraded: the server is in degraded read-only mode (its WAL
	// is unwritable); the insert was not applied, reads still work.
	RemoteDegraded = wire.CodeDegraded
	// RemoteFenced: a replication frame carried a stale epoch — the
	// sender is a deposed primary or replaying applied history
	// (DESIGN.md "Replication & routing").
	RemoteFenced = wire.CodeFenced
	// RemoteUnavailable: a router could not reach any healthy member
	// for the request; retry after a short backoff.
	RemoteUnavailable = wire.CodeUnavailable
)
