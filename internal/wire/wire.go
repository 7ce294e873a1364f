// Package wire is the binary serving protocol: the length-prefixed,
// checksummed frame format spoken between highway.Client and a Server's
// binary listener. It exists because a single label query costs ~1µs
// while an HTTP/1 + JSON round trip costs three orders of magnitude
// more — the full specification, including the compatibility rules and
// worked byte layouts, is PROTOCOL.md at the repository root.
//
// The package is deliberately dependency-free (stdlib only) and sits
// below both internal/serve (the listener) and internal/hlclient (the
// native client) in the dependency graph, the same way internal/method
// sits below every labelling.
//
// # Protocol summary
//
// A connection opens with an 8-byte magic exchange ("HWLRPC01", client
// first, then server), mirroring the "HWLIDX02"/"HWLWAL01" file
// conventions. After that, both directions carry frames:
//
//	uint32  length   little-endian; len(payload)+1 (the type byte)
//	uint8   type     record type (see the T... constants)
//	[]byte  payload  length-1 bytes
//	uint32  crc      CRC-32C (Castagnoli) over type byte + payload
//
// Requests may be pipelined: a client can write any number of frames
// before reading; the server answers strictly in request order, one
// response frame per request frame. See PROTOCOL.md for record payloads,
// error codes and versioning rules.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic is the 8-byte connection preamble each side sends before any
// frame (client first). The trailing digit is the protocol version:
// incompatible revisions bump it, so a mismatched peer fails at the
// handshake instead of misparsing frames.
const Magic = "HWLRPC01"

// Type identifies a record. Requests have the high bit clear, responses
// have it set; a response's type is its request's type | 0x80, except
// TError which may answer any request.
type Type byte

// Request record types (client → server).
const (
	// TDistance asks for one exact distance: payload is s,t (two
	// little-endian int32, 8 bytes).
	TDistance Type = 0x01
	// TBatch asks for many distances in one frame: payload is a
	// uint32 pair count followed by count (s,t) int32 pairs.
	TBatch Type = 0x02
	// TInsert inserts undirected edges (live servers only): payload is
	// a uint32 edge count followed by count (a,b) int32 pairs.
	TInsert Type = 0x03
	// TStats asks for the server's stats document: empty payload.
	TStats Type = 0x04
	// TPing is a liveness probe: empty payload.
	TPing Type = 0x05
	// TDelete deletes undirected edges (live servers only): payload is
	// a uint32 edge count followed by count (a,b) int32 pairs — the
	// same shape as TInsert. Absent edges are acked no-ops.
	TDelete Type = 0x06
	// TReplAppend ships one acked WAL batch from a primary to a
	// follower: payload is a uint64 epoch followed by a counted pair
	// array in WAL record encoding (deletes are one's-complement pairs,
	// both components negative — see PROTOCOL.md "Replication").
	TReplAppend Type = 0x07
	// TReplSnapshot streams one chunk of a `.snap` snapshot file to a
	// bootstrapping follower: payload is a uint64 epoch, a uint8 done
	// flag (1 on the final chunk) and the raw chunk bytes.
	TReplSnapshot Type = 0x08
)

// Response record types (server → client).
const (
	// TDistanceResp answers TDistance: payload is one int32 distance
	// (-1 = disconnected).
	TDistanceResp Type = 0x81
	// TBatchResp answers TBatch: payload is a uint32 count followed by
	// count int32 distances, in request order.
	TBatchResp Type = 0x82
	// TInsertResp answers TInsert: payload is uint32 accepted, uint32
	// inserted, uint64 epoch (all little-endian).
	TInsertResp Type = 0x83
	// TStatsResp answers TStats: payload is the UTF-8 JSON stats
	// document, byte-identical in shape to GET /stats.
	TStatsResp Type = 0x84
	// TPingResp answers TPing: empty payload.
	TPingResp Type = 0x85
	// TDeleteResp answers TDelete: payload is uint32 accepted, uint32
	// deleted, uint64 epoch (all little-endian).
	TDeleteResp Type = 0x86
	// TReplAck answers TReplAppend: payload is the follower's durable
	// uint64 epoch after applying the batch.
	TReplAck Type = 0x87
	// TReplSnapshotResp answers TReplSnapshot: payload is the
	// follower's uint64 epoch (the snapshot's epoch once done=1 has
	// been accepted and installed).
	TReplSnapshotResp Type = 0x88
	// TError answers any request that failed: payload is a uint16
	// error code followed by a UTF-8 message.
	TError Type = 0xFF
)

// TypeNames maps every record type this protocol version emits to its
// PROTOCOL.md name. The docs test at the repository root checks the
// table in PROTOCOL.md against this map, so the spec cannot drift from
// the implementation.
var TypeNames = map[Type]string{
	TDistance:         "Distance",
	TBatch:            "Batch",
	TInsert:           "Insert",
	TStats:            "Stats",
	TPing:             "Ping",
	TDelete:           "Delete",
	TReplAppend:       "ReplAppend",
	TReplSnapshot:     "ReplSnapshot",
	TDistanceResp:     "DistanceResp",
	TBatchResp:        "BatchResp",
	TInsertResp:       "InsertResp",
	TStatsResp:        "StatsResp",
	TPingResp:         "PingResp",
	TDeleteResp:       "DeleteResp",
	TReplAck:          "ReplAck",
	TReplSnapshotResp: "ReplSnapshotResp",
	TError:            "Error",
}

func (t Type) String() string {
	if n, ok := TypeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("Type(0x%02x)", byte(t))
}

// ErrorCode classifies a TError response, so clients can map failures
// to the right behavior (retry, fix the request, give up) without
// parsing messages.
type ErrorCode uint16

const (
	// CodeMalformed: the request frame decoded but its payload did not
	// (wrong length, truncated array, unknown record type).
	CodeMalformed ErrorCode = 1
	// CodeRange: a vertex id is outside the served graph.
	CodeRange ErrorCode = 2
	// CodeTooLarge: the batch exceeds the server's configured limit.
	CodeTooLarge ErrorCode = 3
	// CodeReadOnly: an Insert was sent to a read-only server.
	CodeReadOnly ErrorCode = 4
	// CodeClosed: the server's writer side is shut down.
	CodeClosed ErrorCode = 5
	// CodeInternal: a server-side failure (WAL append, freeze); the
	// batch was NOT applied.
	CodeInternal ErrorCode = 6
	// CodeOverloaded: the server shed the request at admission (its
	// in-flight budget is full). Nothing was executed; retrying after a
	// short backoff is always safe.
	CodeOverloaded ErrorCode = 7
	// CodeDegraded: the server is in degraded read-only mode (its WAL is
	// unwritable); the insert was rejected and NOT applied. Reads still
	// work; writes may be retried after the server recovers.
	CodeDegraded ErrorCode = 8
	// CodeFenced: a replication frame carried an epoch at or below the
	// follower's durable epoch — the sender is deposed or replaying
	// already-applied history. The frame was NOT applied.
	CodeFenced ErrorCode = 9
	// CodeUnavailable: a router has no healthy upstream for the
	// request (every member it could use is down). Nothing was
	// executed; retrying after a backoff may succeed.
	CodeUnavailable ErrorCode = 10
)

// ErrorCodeNames mirrors TypeNames for error codes; checked against
// PROTOCOL.md by the same docs test.
var ErrorCodeNames = map[ErrorCode]string{
	CodeMalformed:   "Malformed",
	CodeRange:       "Range",
	CodeTooLarge:    "TooLarge",
	CodeReadOnly:    "ReadOnly",
	CodeClosed:      "Closed",
	CodeInternal:    "Internal",
	CodeOverloaded:  "Overloaded",
	CodeDegraded:    "Degraded",
	CodeFenced:      "Fenced",
	CodeUnavailable: "Unavailable",
}

func (c ErrorCode) String() string {
	if n, ok := ErrorCodeNames[c]; ok {
		return n
	}
	return fmt.Sprintf("ErrorCode(%d)", uint16(c))
}

// MaxFrame is the absolute frame-length cap both sides enforce: 16 MiB
// comfortably holds the largest legal batch (DefaultMaxBatch pairs is
// under 1 MiB) while bounding what a corrupt or hostile length prefix
// can make a reader allocate.
const MaxFrame = 1 << 24

// frame header/trailer sizes.
const (
	lenSize = 4 // uint32 length prefix
	crcSize = 4 // uint32 CRC-32C trailer
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrBadMagic is returned by ReadMagic when the peer is not speaking
// this protocol (or speaks an incompatible version).
var ErrBadMagic = errors.New("wire: bad protocol magic")

// ErrFrameTooLarge is returned by Reader.ReadFrame when a length prefix
// exceeds the reader's limit. The connection is unrecoverable after it:
// framing is lost.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// ErrChecksum is returned by Reader.ReadFrame when a frame's CRC-32C
// does not match its contents. The connection is unrecoverable after
// it.
var ErrChecksum = errors.New("wire: frame checksum mismatch")

// WriteMagic sends the protocol preamble.
func WriteMagic(w io.Writer) error {
	_, err := w.Write([]byte(Magic))
	return err
}

// ReadMagic consumes and verifies the peer's preamble.
func ReadMagic(r io.Reader) error {
	var m [len(Magic)]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return fmt.Errorf("wire: reading magic: %w", err)
	}
	if string(m[:]) != Magic {
		return fmt.Errorf("%w: got %q, want %q", ErrBadMagic, m[:], Magic)
	}
	return nil
}

// MaxRetained is the largest frame buffer a connection keeps between
// frames, on either end. Point frames and full batch frames fit under it
// and reuse their buffers; a buffer a larger frame grew (a snapshot chunk,
// an oversized batch) is dropped once its frame has been handled, so no
// connection holds a snapshot-sized buffer for its life.
const MaxRetained = 64 << 10

// Writer frames records onto a stream. Not safe for concurrent use.
type Writer struct {
	bw *bufio.Writer
}

// NewWriter returns a Writer over w. Frames are buffered; call Flush
// when the caller has no further frames to pipeline.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
}

// WriteFrame appends one framed record. The payload is not retained.
func (w *Writer) WriteFrame(t Type, payload []byte) error {
	return w.WriteFrameParts(t, payload, nil)
}

// WriteFrameParts appends one framed record whose payload is head
// followed by body, without joining them first: a large body goes from
// the caller's buffer to the stream. Neither is retained.
func (w *Writer) WriteFrameParts(t Type, head, body []byte) error {
	size := len(head) + len(body)
	if size+1 > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [lenSize + 1]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(size+1))
	hdr[4] = byte(t)
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(head); err != nil {
		return err
	}
	if _, err := w.bw.Write(body); err != nil {
		return err
	}
	crc := crc32.Update(crc32.Update(crc32.Checksum([]byte{byte(t)}, crcTable), crcTable, head), crcTable, body)
	var tail [crcSize]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	_, err := w.bw.Write(tail[:])
	return err
}

// Flush pushes buffered frames to the underlying stream.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Reader decodes framed records from a stream. Not safe for concurrent
// use.
type Reader struct {
	br  *bufio.Reader
	max int
	buf []byte
}

// NewReader returns a Reader over r enforcing maxFrame (MaxFrame when
// maxFrame <= 0 or larger than MaxFrame).
func NewReader(r io.Reader, maxFrame int) *Reader {
	if maxFrame <= 0 || maxFrame > MaxFrame {
		maxFrame = MaxFrame
	}
	return &Reader{br: bufio.NewReaderSize(r, 1<<16), max: maxFrame}
}

// Buffered reports how many unread bytes are sitting in the reader's
// buffer. The server's pipelining flush heuristic is built on it: when
// a response has been written and Buffered() == 0, no further request
// is in flight on this connection, so the response buffer is flushed.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// firstStep bounds the first buffer a frame's body is read into: what a
// length prefix alone can make a reader allocate.
const firstStep = 1 << 20

// ReadFrame reads one frame, verifies its checksum and returns its type
// and payload. The payload slice is reused by the next ReadFrame call
// (until Release drops it). Oversized lengths are rejected before
// allocation: the body is read into a buffer of at most 1 MiB that then
// grows in place, each time to no more than twice what the stream has
// delivered, so a hostile 16 MiB length prefix on a 5-byte stream costs
// an error, not 16 MiB.
func (r *Reader) ReadFrame() (Type, []byte, error) {
	var hdr [lenSize]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 1 {
		return 0, nil, fmt.Errorf("wire: frame length %d below minimum 1", n)
	}
	if int64(n) > int64(r.max) {
		return 0, nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, r.max)
	}
	t, err := r.br.ReadByte()
	if err != nil {
		return 0, nil, eofIsUnexpected(err)
	}
	body := int(n) - 1
	buf := r.buf[:0]
	for len(buf) < body {
		if len(buf) == cap(buf) {
			// Full: double, never past the frame.
			grown := make([]byte, len(buf), min(body, max(2*cap(buf), firstStep)))
			copy(grown, buf)
			buf = grown
		}
		k, err := io.ReadFull(r.br, buf[len(buf):min(cap(buf), body)])
		if buf = buf[:len(buf)+k]; err != nil {
			return 0, nil, eofIsUnexpected(err)
		}
	}
	r.buf = buf
	var tail [crcSize]byte
	if _, err := io.ReadFull(r.br, tail[:]); err != nil {
		return 0, nil, eofIsUnexpected(err)
	}
	crc := crc32.Update(crc32.Checksum([]byte{t}, crcTable), crcTable, r.buf)
	if binary.LittleEndian.Uint32(tail[:]) != crc {
		return 0, nil, ErrChecksum
	}
	return Type(t), r.buf, nil
}

// Release drops the frame buffer if the last frame grew it past
// MaxRetained. Call it once that frame's payload has been handled; the
// payload must not be used after.
func (r *Reader) Release() {
	if cap(r.buf) > MaxRetained {
		r.buf = nil
	}
}

// eofIsUnexpected maps a mid-frame EOF to ErrUnexpectedEOF: only an EOF
// on a frame boundary is a clean close.
func eofIsUnexpected(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Payload encoding helpers. All integers are little-endian; all append
// to dst and return the extended slice, so callers can reuse one scratch
// buffer across requests.

// AppendPair appends one (s,t) int32 pair (the TDistance payload).
func AppendPair(dst []byte, s, t int32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s))
	return binary.LittleEndian.AppendUint32(dst, uint32(t))
}

// DecodePair decodes a TDistance payload.
func DecodePair(p []byte) (s, t int32, err error) {
	if len(p) != 8 {
		return 0, 0, fmt.Errorf("wire: pair payload is %d bytes, want 8", len(p))
	}
	return int32(binary.LittleEndian.Uint32(p[0:4])), int32(binary.LittleEndian.Uint32(p[4:8])), nil
}

// AppendPairs appends a counted pair array (the TBatch/TInsert payload).
func AppendPairs(dst []byte, pairs [][2]int32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pairs)))
	for _, p := range pairs {
		dst = AppendPair(dst, p[0], p[1])
	}
	return dst
}

// DecodePairs decodes a counted pair array into dst (reused when large
// enough). The count must match the payload length exactly.
func DecodePairs(p []byte, dst [][2]int32) ([][2]int32, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("wire: pairs payload is %d bytes, want >= 4", len(p))
	}
	count := binary.LittleEndian.Uint32(p[0:4])
	body := p[4:]
	if int64(len(body)) != int64(count)*8 {
		return nil, fmt.Errorf("wire: pairs payload declares %d pairs but carries %d bytes", count, len(body))
	}
	if cap(dst) < int(count) {
		dst = make([][2]int32, count)
	}
	dst = dst[:count]
	for i := range dst {
		dst[i][0] = int32(binary.LittleEndian.Uint32(body[i*8:]))
		dst[i][1] = int32(binary.LittleEndian.Uint32(body[i*8+4:]))
	}
	return dst, nil
}

// AppendDistances appends a counted distance array (the TBatchResp
// payload).
func AppendDistances(dst []byte, ds []int32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ds)))
	for _, d := range ds {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(d))
	}
	return dst
}

// DecodeDistances decodes a counted distance array into dst (reused
// when large enough).
func DecodeDistances(p []byte, dst []int32) ([]int32, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("wire: distances payload is %d bytes, want >= 4", len(p))
	}
	count := binary.LittleEndian.Uint32(p[0:4])
	body := p[4:]
	if int64(len(body)) != int64(count)*4 {
		return nil, fmt.Errorf("wire: distances payload declares %d entries but carries %d bytes", count, len(body))
	}
	if cap(dst) < int(count) {
		dst = make([]int32, count)
	}
	dst = dst[:count]
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(body[i*4:]))
	}
	return dst, nil
}

// AppendDistance appends one int32 distance (the TDistanceResp
// payload).
func AppendDistance(dst []byte, d int32) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(d))
}

// DecodeDistance decodes a TDistanceResp payload.
func DecodeDistance(p []byte) (int32, error) {
	if len(p) != 4 {
		return 0, fmt.Errorf("wire: distance payload is %d bytes, want 4", len(p))
	}
	return int32(binary.LittleEndian.Uint32(p)), nil
}

// AppendInsertResult appends a TInsertResp payload.
func AppendInsertResult(dst []byte, accepted, inserted int, epoch uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(accepted))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(inserted))
	return binary.LittleEndian.AppendUint64(dst, epoch)
}

// DecodeInsertResult decodes a TInsertResp payload.
func DecodeInsertResult(p []byte) (accepted, inserted int, epoch uint64, err error) {
	if len(p) != 16 {
		return 0, 0, 0, fmt.Errorf("wire: insert result payload is %d bytes, want 16", len(p))
	}
	return int(binary.LittleEndian.Uint32(p[0:4])),
		int(binary.LittleEndian.Uint32(p[4:8])),
		binary.LittleEndian.Uint64(p[8:16]), nil
}

// AppendDeleteResult appends a TDeleteResp payload.
func AppendDeleteResult(dst []byte, accepted, deleted int, epoch uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(accepted))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(deleted))
	return binary.LittleEndian.AppendUint64(dst, epoch)
}

// DecodeDeleteResult decodes a TDeleteResp payload.
func DecodeDeleteResult(p []byte) (accepted, deleted int, epoch uint64, err error) {
	if len(p) != 16 {
		return 0, 0, 0, fmt.Errorf("wire: delete result payload is %d bytes, want 16", len(p))
	}
	return int(binary.LittleEndian.Uint32(p[0:4])),
		int(binary.LittleEndian.Uint32(p[4:8])),
		binary.LittleEndian.Uint64(p[8:16]), nil
}

// AppendReplAppend appends a TReplAppend payload: the primary's epoch
// for the batch followed by a counted pair array of WAL-encoded ops
// (deletes carry both components one's-complemented, i.e. negative).
func AppendReplAppend(dst []byte, epoch uint64, ops [][2]int32) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	return AppendPairs(dst, ops)
}

// DecodeReplAppend decodes a TReplAppend payload into dst (reused when
// large enough).
func DecodeReplAppend(p []byte, dst [][2]int32) (uint64, [][2]int32, error) {
	if len(p) < 8 {
		return 0, nil, fmt.Errorf("wire: repl append payload is %d bytes, want >= 8", len(p))
	}
	epoch := binary.LittleEndian.Uint64(p[0:8])
	ops, err := DecodePairs(p[8:], dst)
	if err != nil {
		return 0, nil, err
	}
	return epoch, ops, nil
}

// AppendReplAck appends a TReplAck or TReplSnapshotResp payload: the
// follower's durable epoch.
func AppendReplAck(dst []byte, epoch uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, epoch)
}

// DecodeReplAck decodes a TReplAck or TReplSnapshotResp payload.
func DecodeReplAck(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("wire: repl ack payload is %d bytes, want 8", len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

// AppendReplSnapshot appends a TReplSnapshot payload: the snapshot's
// epoch, a done flag (1 on the final chunk) and one chunk of the
// snapshot stream. Chunks must stay under MaxFrame; senders use a few
// MiB so one frame never monopolizes the connection.
func AppendReplSnapshot(dst []byte, epoch uint64, done bool, chunk []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	if done {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return append(dst, chunk...)
}

// DecodeReplSnapshot decodes a TReplSnapshot payload. The chunk slice
// aliases p and is only valid until the reader's next ReadFrame.
func DecodeReplSnapshot(p []byte) (epoch uint64, done bool, chunk []byte, err error) {
	if len(p) < 9 {
		return 0, false, nil, fmt.Errorf("wire: repl snapshot payload is %d bytes, want >= 9", len(p))
	}
	if p[8] > 1 {
		return 0, false, nil, fmt.Errorf("wire: repl snapshot done flag is %d, want 0 or 1", p[8])
	}
	return binary.LittleEndian.Uint64(p[0:8]), p[8] == 1, p[9:], nil
}

// AppendError appends a TError payload.
func AppendError(dst []byte, code ErrorCode, msg string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(code))
	return append(dst, msg...)
}

// DecodeError decodes a TError payload.
func DecodeError(p []byte) (ErrorCode, string, error) {
	if len(p) < 2 {
		return 0, "", fmt.Errorf("wire: error payload is %d bytes, want >= 2", len(p))
	}
	return ErrorCode(binary.LittleEndian.Uint16(p[0:2])), string(p[2:]), nil
}

// RemoteError is a TError response surfaced as a Go error by the
// client.
type RemoteError struct {
	Code    ErrorCode
	Message string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("server error %s: %s", e.Code, e.Message)
}
