package serve

import (
	"errors"
	"fmt"
	"net/http"

	"highway/internal/wire"
)

// The request-failure taxonomy: one sentinel per wire error code. Code
// that fails a request wraps one of these; the front-end turns it into
// an HTTP status or a TError frame through ErrorTable and nothing else.
var (
	// ErrMalformed: the request did not decode (bad JSON, wrong payload
	// length, unknown record type).
	ErrMalformed = errors.New("serve: malformed request")
	// ErrRange: a vertex id is outside the served graph (mutations wrap
	// it through ErrEdgeRange).
	ErrRange = errors.New("serve: vertex out of range")
	// ErrTooLarge: a batch (or its HTTP body) exceeds Config.MaxBatch.
	ErrTooLarge = errors.New("serve: batch exceeds limit")
	// ErrReadOnly is returned by InsertEdges on a server built with New.
	ErrReadOnly = errors.New("serve: read-only server (built without NewLive)")
	// ErrClosed is returned by InsertEdges after Close.
	ErrClosed = errors.New("serve: server is closed")
	// ErrOverloaded: the admission gate shed the request before any work.
	ErrOverloaded = errors.New("server overloaded: in-flight budget exhausted, retry with backoff")
	// ErrDegraded is wrapped by InsertEdges while the server is in degraded
	// read-only mode: a WAL append or fsync failed, so writes cannot be made
	// durable and are rejected until the recovery probe finds the log
	// writable again. Reads are unaffected.
	ErrDegraded = errors.New("serve: degraded read-only mode (WAL unwritable)")
	// ErrFenced is wrapped by a ReplicationHandler when a replication frame
	// carries an epoch at or below the follower's durable epoch: the sender
	// is deposed or replaying already-applied history.
	ErrFenced = errors.New("serve: replication epoch fenced")
	// ErrUnavailable is returned by a routing Backend with no healthy
	// upstream for the request (every read member, or the primary, is down).
	ErrUnavailable = errors.New("serve: no healthy member")
)

// ErrEdgeRange is wrapped by InsertEdges when a batch names a vertex
// outside the graph: a client fault, distinguishable with errors.Is from
// server-side failures. It is an ErrRange.
var ErrEdgeRange error = &rowError{ErrRange, "serve: edge endpoint out of range"}

// ErrorRow is one line of the error contract: how one class of failure
// appears on each protocol.
type ErrorRow struct {
	// Sentinel is the Go error of the class (errors.Is matches it); nil
	// on the Internal row, which every unclassified error falls into.
	Sentinel error
	// Code is the TError code on the binary protocol.
	Code wire.ErrorCode
	// Status is the HTTP status of the JSON error response.
	Status int
	// Retryable failures carry Retry-After on HTTP: nothing was executed
	// and the condition may clear by itself.
	Retryable bool
}

// ErrorTable is the whole error contract of both protocols, whichever
// process answers: a Server's own failure and the same failure relayed
// by a router are the same row, because a relayed *wire.RemoteError
// enters by its Code. PROTOCOL.md's error-code table is checked against
// it by the root docs test.
var ErrorTable = []ErrorRow{
	{ErrMalformed, wire.CodeMalformed, http.StatusBadRequest, false},
	{ErrRange, wire.CodeRange, http.StatusBadRequest, false},
	{ErrTooLarge, wire.CodeTooLarge, http.StatusRequestEntityTooLarge, false},
	// A read-only Server registers no /edges route, so over HTTP this
	// row is only reached through a router whose primary is read-only;
	// it answers what the primary itself would.
	{ErrReadOnly, wire.CodeReadOnly, http.StatusNotFound, false},
	{ErrClosed, wire.CodeClosed, http.StatusServiceUnavailable, false},
	// Freeze or apply failure: the batch was NOT applied.
	{nil, wire.CodeInternal, http.StatusInternalServerError, false},
	{ErrOverloaded, wire.CodeOverloaded, http.StatusTooManyRequests, true},
	// Durability is gone, not the server: reads still work and the
	// recovery probe may re-arm writes, so tell the client when to come
	// back rather than just failing.
	{ErrDegraded, wire.CodeDegraded, http.StatusServiceUnavailable, true},
	// Replication frames are binary-only; the status is for completeness.
	{ErrFenced, wire.CodeFenced, http.StatusConflict, false},
	{ErrUnavailable, wire.CodeUnavailable, http.StatusServiceUnavailable, true},
}

// classify finds err's row and the message to report for it. A remote
// error reports the member's own message, so the text is the same with
// or without a router in the path.
func classify(err error) (ErrorRow, string) {
	msg := err.Error()
	var re *wire.RemoteError
	if errors.As(err, &re) {
		msg = re.Message
	}
	var internal ErrorRow
	for _, row := range ErrorTable {
		switch {
		case row.Sentinel == nil:
			internal = row
		case re != nil && re.Code == row.Code, re == nil && errors.Is(err, row.Sentinel):
			return row, msg
		}
	}
	return internal, msg
}

// rowError files a message under a table row without changing its text
// (the texts predate the table and clients match on them).
type rowError struct {
	sentinel error
	msg      string
}

func (e *rowError) Error() string { return e.msg }
func (e *rowError) Unwrap() error { return e.sentinel }

func errorf(sentinel error, format string, args ...any) error {
	return &rowError{sentinel, fmt.Sprintf(format, args...)}
}
