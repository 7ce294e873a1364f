package serve

import "highway/internal/failpoint"

// The serving tier's fault-injection sites (see internal/failpoint for
// arming them with Fail or Delay, and DESIGN.md "Failure modes &
// degraded operation" for what each is meant to break). Exported so
// tests in other packages — the hlclient resilience tests, the router
// tests — can arm them.
var (
	// FPWALAppend fires before the batch's bytes are written: the whole
	// batch fails cleanly, nothing reaches the file.
	FPWALAppend = failpoint.New("wal.append")
	// FPWALAppendShort simulates a torn write: roughly half the batch's
	// bytes reach the file before the error, exercising the
	// truncate-back-to-last-acknowledged-record repair path.
	FPWALAppendShort = failpoint.New("wal.append.short")
	// FPWALSync fires in place of the post-append fsync, and is also
	// evaluated by the degraded-mode recovery probe — arming it with a
	// persistent error holds the server in degraded read-only mode.
	FPWALSync = failpoint.New("wal.sync")
	// FPWALCompact fires at the start of CompactTo; the old log stays
	// intact.
	FPWALCompact = failpoint.New("wal.compact")
	// FPSnapshotWrite fires at the start of writeSnapshot, failing a
	// checkpoint before anything reaches the disk: the log stays
	// uncompacted and the retry/backoff machinery takes over.
	FPSnapshotWrite = failpoint.New("serve.snapshot.write")
	// FPBinWrite fires before each binary-listener frame write,
	// simulating a broken client connection mid-response.
	FPBinWrite = failpoint.New("serve.bin.write")
	// FPQuery fires once per query request at searcher checkout, inside
	// the admission gate's hold. Its error (if any) is discarded — arm
	// it with Delay to simulate slow queries, which is how the overload
	// tests make admitted requests hold budget long enough for the gate
	// to observably shed.
	FPQuery = failpoint.New("serve.query")
)
