package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"highway/internal/core"
	"highway/internal/failpoint"
	"highway/internal/graph"
)

// Chaos harness: the capstone of the fault-injection work. Each
// iteration runs a live server against a randomized failpoint schedule
// under a mixed insert/delete/query load, kills it (gracefully or with
// a simulated torn tail, as a crash would leave), restarts from disk
// and checks the two durability invariants end to end:
//
//   - zero acknowledged-op loss: the restarted index answers exactly
//     like a from-scratch reference built on base + the acked op
//     history, checked at every acked op's endpoints and on random
//     pairs — nothing lost (a vanished delete shows up here just like a
//     vanished insert), nothing smuggled in from un-acked failed
//     writes;
//   - byte-identical replay: with compaction out of the picture the WAL
//     ends up byte-for-byte equal to magic + one record per acked op in
//     ack order — insertions as plain endpoints, deletions as
//     one's-complement records (failed appends and crash garbage leave
//     no trace) — and a second restart leaves a log under the
//     checkpoint threshold byte-identical (recovery is read-only on an
//     intact log), a longer one checkpointed down to nothing with the
//     answers unchanged.
//
// Every iteration is seeded, so a failure reproduces with -run
// 'TestChaos.*/iter042'.

// chaosPoints is the failpoint schedule space: each iteration arms a
// random subset with small fail-N-times error budgets (plus occasional
// fsync delays), so faults are transient and the server must come back
// through the degraded-mode probe / checkpoint-retry machinery on its own.
var chaosPoints = []*failpoint.Point{
	FPWALSync, FPWALAppend, FPWALAppendShort,
	FPSnapshotWrite, FPWALCompact,
}

func armChaos(rng *rand.Rand) {
	for _, p := range chaosPoints {
		switch roll := rng.Intn(4); {
		case roll == 0:
			p.Fail(1+rng.Intn(3), "chaos: injected failure")
		case roll == 1 && p == FPWALSync:
			p.Delay(1+rng.Intn(3), time.Millisecond) // a slow disk, not a broken one
		}
	}
}

// tornTail simulates the disk state a crash mid-append leaves behind:
// garbage after the last acknowledged record. Fewer bytes than one
// record guarantees the tail is torn (no accidental valid record), so
// the check that recovery erases it is deterministic.
func tornTail(t *testing.T, walPath string, rng *rand.Rand) {
	t.Helper()
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, 1+rng.Intn(walRecordSize-1))
	rng.Read(junk)
	if _, err := f.Write(junk); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func randBatch(rng *rand.Rand, n int32, k int) [][2]int32 {
	batch := make([][2]int32, k)
	for i := range batch {
		a, b := rng.Int31n(n), rng.Int31n(n)
		for b == a {
			b = rng.Int31n(n)
		}
		batch[i] = [2]int32{a, b}
	}
	return batch
}

// liveEdges mirrors the currently-live edge set across acked batches,
// so chaos deletions mostly target edges that exist (uniformly random
// pairs would nearly always be acked no-ops and never stress the
// repair path). Seeded with the base graph, so deletions also hit
// edges the base labelling depends on.
type liveEdges struct {
	idx  map[[2]int32]int
	list [][2]int32
}

func newLiveEdges(g *graph.Graph) *liveEdges {
	l := &liveEdges{idx: make(map[[2]int32]int)}
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(v) {
			if v < u {
				l.apply(core.Op{A: v, B: u})
			}
		}
	}
	return l
}

func (l *liveEdges) apply(op core.Op) {
	a, b := op.A, op.B
	if a > b {
		a, b = b, a
	}
	k := [2]int32{a, b}
	i, present := l.idx[k]
	switch {
	case op.Del && present:
		last := len(l.list) - 1
		l.list[i] = l.list[last]
		l.idx[l.list[i]] = i
		l.list = l.list[:last]
		delete(l.idx, k)
	case !op.Del && !present && a != b:
		l.idx[k] = len(l.list)
		l.list = append(l.list, k)
	}
}

func (l *liveEdges) ack(ops []core.Op) {
	for _, op := range ops {
		l.apply(op)
	}
}

// randOpBatch draws one single-kind batch for a chaos round: a third of
// the rounds delete currently-live edges, the rest insert random pairs.
// Single-kind batches match the public mutation API (InsertEdges /
// DeleteEdges) while the round interleaving makes the schedule — and
// the WAL — genuinely mixed.
func randOpBatch(rng *rand.Rand, n int32, live *liveEdges) []core.Op {
	k := 1 + rng.Intn(3)
	if rng.Intn(3) == 0 && len(live.list) > 0 {
		ops := make([]core.Op, k)
		for i := range ops {
			e := live.list[rng.Intn(len(live.list))]
			ops[i] = core.Op{A: e[0], B: e[1], Del: true}
		}
		return ops
	}
	return core.InsertOps(randBatch(rng, n, k))
}

// sendOps pushes one single-kind batch through the public mutation API.
func sendOps(srv *Server, ops []core.Op) error {
	pairs := make([][2]int32, len(ops))
	for i, op := range ops {
		pairs[i] = [2]int32{op.A, op.B}
	}
	var err error
	if ops[0].Del {
		_, err = srv.DeleteEdges(pairs)
	} else {
		_, err = srv.InsertEdges(pairs)
	}
	return err
}

// replayOps feeds an acked op history into a live server through the
// public API, preserving op order by splitting it into same-kind runs.
func replayOps(srv *Server, ops []core.Op) error {
	for i := 0; i < len(ops); {
		j := i + 1
		for j < len(ops) && ops[j].Del == ops[i].Del {
			j++
		}
		if err := sendOps(srv, ops[i:j]); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// expectedWALBytes is the byte-exact log an acked op history must leave
// behind when no compaction ran: magic, then one record per op in
// acknowledgement order, deletions in one's-complement encoding.
func expectedWALBytes(acked []core.Op) []byte {
	buf := make([]byte, 0, len(walMagic)+len(acked)*walRecordSize)
	buf = append(buf, walMagic...)
	for _, op := range acked {
		a, b := walEncode(op)
		var rec [walRecordSize]byte
		binary.LittleEndian.PutUint32(rec[0:4], uint32(a))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(b))
		binary.LittleEndian.PutUint32(rec[8:12], walSum(a, b))
		buf = append(buf, rec[:]...)
	}
	return buf
}

func TestChaosCrashRestartDurability(t *testing.T) {
	iters := 100
	if testing.Short() {
		iters = 10
	}
	g, _, ix := liveBase(t, 240, 6)
	graphPath, indexPath, _ := saveBase(t, g, ix)
	dir := t.TempDir()
	n := int32(g.NumVertices())
	t.Cleanup(failpoint.Reset)
	setLiveTimings(t, 2*time.Millisecond, 2*time.Millisecond, 8*time.Millisecond)

	for it := 0; it < iters; it++ {
		it := it
		t.Run(fmt.Sprintf("iter%03d", it), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x9E3779B9*int64(it) + 12345))
			walPath := filepath.Join(dir, fmt.Sprintf("chaos-%03d.wal", it))

			// A quarter of the iterations run with an aggressive
			// checkpoint threshold so compaction and snapshot persistence
			// are in the blast radius too; the rest never checkpoint,
			// which is what makes the byte-exact WAL prediction valid for
			// them (compaction does shorten the log).
			checkpointOn := rng.Intn(4) == 0
			cfg := LiveConfig{RebuildThreshold: -1}
			if checkpointOn {
				cfg.RebuildThreshold = 8 + rng.Intn(16)
			}

			// acked accumulates every op batch the server acknowledged,
			// across all kill/restart cycles: the history the restarted
			// server must reproduce exactly. live mirrors its effect so
			// later deletions target real edges.
			var acked []core.Op
			live := newLiveEdges(g)
			cycles := 1 + rng.Intn(2)
			for c := 0; c < cycles; c++ {
				srv, err := LoadLive(graphPath, indexPath, walPath, cfg)
				if err != nil {
					t.Fatalf("cycle %d: restart failed: %v", c, err)
				}
				armChaos(rng)
				rounds := 4 + rng.Intn(5)
				for r := 0; r < rounds; r++ {
					batch := randOpBatch(rng, n, live)
					switch err := sendOps(srv, batch); {
					case err == nil:
						acked = append(acked, batch...)
						live.ack(batch)
					case errors.Is(err, ErrDegraded):
						// Rejected whole, durably nothing: the batch must
						// not reappear after restart. Nothing to record.
					default:
						t.Fatalf("cycle %d round %d: mutation failed outside the degraded taxonomy: %v", c, r, err)
					}
					// Reads must stay up through every fault mode.
					for q := 0; q < 3; q++ {
						if _, err := srv.Distance(rng.Int31n(n), rng.Int31n(n)); err != nil {
							t.Fatalf("cycle %d round %d: read failed during chaos: %v", c, r, err)
						}
					}
					if rng.Intn(3) == 0 {
						// Let the recovery probe / checkpoint retry fire.
						time.Sleep(time.Duration(1+rng.Intn(4)) * time.Millisecond)
					}
				}
				failpoint.Reset()
				if err := srv.Close(); err != nil {
					t.Fatalf("cycle %d: close: %v", c, err)
				}
				if rng.Intn(2) == 0 {
					tornTail(t, walPath, rng)
				}
			}

			// Final restart: clean (no failpoints), read-only — so the log
			// bytes we compare below are exactly what recovery left.
			srv, err := LoadLive(graphPath, indexPath, walPath, cfg)
			if err != nil {
				t.Fatalf("final restart failed: %v", err)
			}
			// Full-metric equality against a from-scratch reference: base
			// index + acked op history in ack order, no WAL, no faults.
			// Checked at every acked op's endpoints (an insert that
			// vanished or a delete that was forgotten shows up right
			// there) and on random pairs (catches smuggled un-acked
			// writes anywhere in the graph).
			ref, err := NewLive(ix, LiveConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			if err := replayOps(ref, acked); err != nil {
				t.Fatal(err)
			}
			checkAgainstRef := func(srv *Server) {
				check := func(a, b int32) {
					got, err := srv.Distance(a, b)
					if err != nil {
						t.Fatal(err)
					}
					want, err := ref.Distance(a, b)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("d(%d,%d) = %d after restart, reference says %d", a, b, got, want)
					}
				}
				for _, op := range acked {
					check(op.A, op.B)
				}
				for q := 0; q < 30; q++ {
					check(rng.Int31n(n), rng.Int31n(n))
				}
			}
			checkAgainstRef(srv)
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}

			logBytes, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if !checkpointOn {
				if want := expectedWALBytes(acked); !bytes.Equal(logBytes, want) {
					t.Fatalf("WAL is not byte-identical to the acked history: %d bytes on disk, want %d (%d acked edges)",
						len(logBytes), len(want), len(acked))
				}
			}
			// Replay determinism: restarting an intact log under the
			// checkpoint threshold must not rewrite it; a longer one (the
			// restart above was closed before its checkpoint compacted it)
			// is checkpointed by the restart alone, answers unchanged.
			srv2, err := LoadLive(graphPath, indexPath, walPath, cfg)
			if err != nil {
				t.Fatalf("second clean restart failed: %v", err)
			}
			long := checkpointOn && len(srv2.up.wal.Recovered()) >= cfg.RebuildThreshold
			if long {
				waitFor(t, 10*time.Second, "the restart's checkpoint", func() bool { return srv2.LiveStats().WALLen == 0 })
				checkAgainstRef(srv2)
			}
			if err := srv2.Close(); err != nil {
				t.Fatal(err)
			}
			again, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if !long && !bytes.Equal(logBytes, again) {
				t.Fatalf("restart of an intact log changed it: %d bytes -> %d bytes", len(logBytes), len(again))
			}
		})
	}
}
