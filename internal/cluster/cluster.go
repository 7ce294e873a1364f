// Package cluster turns single-node servers from internal/serve into a
// WAL-shipping replica set: a primary that accepts writes and ships
// every acked batch to followers over the binary protocol's
// replication frames, followers that bootstrap from a streamed
// snapshot and serve reads from their own lock-free snapshots, and a
// router that health-checks members, sends each read to one follower
// (every member is a full replica and answers exactly on its own) and
// forwards writes to the primary.
//
// Epoch fencing holds the roles together. Every published snapshot on
// the primary carries an epoch (generation << 32) | counter, where the
// generation is persisted (and fsynced) in a small file next to the
// primary's WAL and bumped once per primary start. A follower applies
// a shipped batch only when its epoch is strictly above the
// follower's durable epoch and accepts a snapshot only at or above
// it, so a deposed or restarted primary's stale stream bounces off
// with wire.CodeFenced instead of rewinding replicas. See DESIGN.md
// "Replication & routing" and PROTOCOL.md "Replication".
package cluster

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"highway/internal/container"
)

// NextGeneration durably claims the next primary generation from the
// counter file at path (created at 1 when absent), fsyncing both the
// file and its directory before returning, and returns the claimed
// generation. Call it once per primary start and seed
// serve.LiveConfig.EpochBase with EpochBase(gen): every epoch the new
// incarnation publishes is then strictly above those of any prior one,
// which is the total order epoch fencing needs.
func NextGeneration(path string) (uint64, error) {
	var gen uint64
	if raw, err := os.ReadFile(path); err == nil {
		gen, err = strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 32)
		if err != nil {
			return 0, fmt.Errorf("cluster: corrupt generation file %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return 0, fmt.Errorf("cluster: read generation: %w", err)
	}
	gen++
	if gen > 1<<32-1 {
		return 0, fmt.Errorf("cluster: generation counter exhausted (%d)", gen)
	}
	// Write-fsync-rename-fsync: a crash leaves either the old claimed
	// generation or the new one, never a torn file.
	err := container.SaveFile(path, true, func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%d\n", gen)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("cluster: claim generation: %w", err)
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return gen, nil
}

// EpochBase shifts a claimed generation into the high 32 bits of the
// epoch space, leaving the low 32 for the incarnation's write counter.
func EpochBase(gen uint64) uint64 { return gen << 32 }
