package serve

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"highway/internal/container"
	"highway/internal/core"
	"highway/internal/failpoint"
	"highway/internal/graph"
)

// v2Bytes renders an index in its on-disk format.
func v2Bytes(t *testing.T, ix *core.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.WriteFormat(&buf, core.FormatV2); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// servedBytes is v2Bytes of what a live server holds.
func servedBytes(t *testing.T, s *Server) []byte {
	t.Helper()
	_, ix, _, err := s.FrozenState()
	if err != nil {
		t.Fatal(err)
	}
	return v2Bytes(t, ix)
}

// scratchBytes is v2Bytes of a from-scratch build over base ⊕ history.
func scratchBytes(t *testing.T, base *graph.Graph, lms []int32, history []core.Op) []byte {
	t.Helper()
	live := newLiveEdges(base)
	live.ack(history)
	g, err := graph.FromEdges(base.NumVertices(), live.list)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildParallel(g, lms)
	if err != nil {
		t.Fatal(err)
	}
	return v2Bytes(t, ix)
}

// TestCheckpointCrashWindow restarts from both disk states a checkpoint
// can leave: snapshot + log compacted to the ops after it, and — a crash
// between the two steps, here a failed compaction — snapshot + the whole
// old log, whose replay over the newer snapshot idempotence makes exact.
// The history inserts and deletes the same edges on both sides of the
// checkpoint, so a replay that mishandled either side would show.
func TestCheckpointCrashWindow(t *testing.T) {
	for _, crash := range []bool{false, true} {
		name := "compacted"
		if crash {
			name = "uncompacted"
		}
		t.Run(name, func(t *testing.T) {
			defer failpoint.Reset()
			g, lms, ix := liveBase(t, 300, 6)
			graphPath, indexPath, walPath := saveBase(t, g, ix)
			e := [2]int32{7, 290} // absent from the base graph
			b := [2]int32{0, g.Neighbors(0)[0]}
			if g.HasEdge(e[0], e[1]) {
				t.Fatalf("test edge %v is a base edge", e)
			}
			before := []core.Op{
				{A: e[0], B: e[1]}, {A: e[0], B: e[1], Del: true}, {A: e[0], B: e[1]},
				{A: b[0], B: b[1], Del: true}, {A: 3, B: 250}, {A: 4, B: 260}, {A: 5, B: 270},
			}
			// One op short of the threshold, so no second checkpoint starts.
			after := []core.Op{
				{A: e[0], B: e[1], Del: true}, {A: e[0], B: e[1]}, {A: b[0], B: b[1], Del: true},
				{A: b[0], B: b[1]}, {A: 3, B: 250, Del: true}, {A: e[0], B: e[1], Del: true},
			}

			// An hour of backoff: the failed checkpoint is not retried
			// while the test looks at what it left.
			setLiveTimings(t, degradedProbeInterval, time.Hour, time.Hour)
			srv, err := LoadLive(graphPath, indexPath, walPath, LiveConfig{RebuildThreshold: len(before)})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if crash {
				FPWALCompact.Fail(0, "crashed before compaction")
			}
			if err := replayOps(srv, before); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 10*time.Second, "the checkpoint attempt", func() bool {
				st := srv.LiveStats()
				return st.Rebuilds+st.RebuildErrors == 1 && !st.Rebuilding
			})
			if err := replayOps(srv, after); err != nil {
				t.Fatal(err)
			}
			st := srv.LiveStats()
			wantLen, wantDone := len(after), int64(1)
			if crash {
				wantLen, wantDone = len(before)+len(after), 0
			}
			if st.WALLen != wantLen || st.Rebuilds != wantDone {
				t.Fatalf("log has %d records after %d checkpoints, want %d after %d", st.WALLen, st.Rebuilds, wantLen, wantDone)
			}

			// Restart from a copy of the files as they are now.
			copyPath := filepath.Join(t.TempDir(), "copy.wal")
			for _, suffix := range []string{"", ".snap"} {
				raw, err := os.ReadFile(walPath + suffix)
				if err != nil {
					t.Fatalf("a checkpoint attempt left no %s: %v", walPath+suffix, err)
				}
				if err := os.WriteFile(copyPath+suffix, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			re, err := LoadLive(graphPath, indexPath, copyPath, LiveConfig{RebuildThreshold: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got := re.LiveStats().WALLen; got != wantLen {
				t.Fatalf("restart recovered %d ops, want %d", got, wantLen)
			}
			want := scratchBytes(t, g, lms, append(before, after...))
			if !bytes.Equal(servedBytes(t, srv), want) {
				t.Fatal("served index differs from a from-scratch build over the acked history")
			}
			if !bytes.Equal(servedBytes(t, re), want) {
				t.Fatal("restarted index differs from a from-scratch build over the acked history")
			}
		})
	}
}

// TestCheckpointOnRestart: a log recovered past the threshold is
// checkpointed by the restart itself, without waiting for a write, so a
// read-mostly server does not replay it on every start.
func TestCheckpointOnRestart(t *testing.T) {
	g, lms, ix := liveBase(t, 300, 6)
	graphPath, indexPath, walPath := saveBase(t, g, ix)
	srv, err := LoadLive(graphPath, indexPath, walPath, LiveConfig{RebuildThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	history := core.InsertOps(randBatch(rand.New(rand.NewSource(3)), 300, 10))
	history = append(history, core.Op{A: history[0].A, B: history[0].B, Del: true})
	if err := replayOps(srv, history); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := LiveConfig{RebuildThreshold: 8}
	srv, err = LoadLive(graphPath, indexPath, walPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(srv.up.wal.Recovered()); got != len(history) {
		t.Fatalf("first restart recovered %d ops, want %d", got, len(history))
	}
	waitFor(t, 10*time.Second, "the restart's checkpoint", func() bool {
		st := srv.LiveStats()
		return st.Rebuilds == 1 && st.WALLen == 0
	})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err = LoadLive(graphPath, indexPath, walPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := len(srv.up.wal.Recovered()); got != 0 {
		t.Fatalf("second restart recovered %d ops, want 0", got)
	}
	if !bytes.Equal(servedBytes(t, srv), scratchBytes(t, g, lms, history)) {
		t.Fatal("index restored from the checkpoint differs from a from-scratch build over the acked history")
	}
}

// TestLoadLiveUnreadableSnapshot: once a checkpoint has compacted the
// log, the snapshot is the only copy of the writes it covers. A restart
// that cannot read it (here: the path is a symlink to itself, so opening
// it fails with ELOOP) must fail, not fall back to the base files and
// serve without acknowledged edges; only a snapshot that does not exist
// selects the base.
func TestLoadLiveUnreadableSnapshot(t *testing.T) {
	g, _, ix := liveBase(t, 300, 6)
	graphPath, indexPath, walPath := saveBase(t, g, ix)
	cfg := LiveConfig{RebuildThreshold: 2}
	srv, err := LoadLive(graphPath, indexPath, walPath, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := [2]int32{7, 290}
	if g.HasEdge(e[0], e[1]) {
		t.Fatalf("test edge %v is a base edge", e)
	}
	if _, err := srv.InsertEdges([][2]int32{e, {3, 250}, {4, 260}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the checkpoint", func() bool {
		st := srv.LiveStats()
		return st.Rebuilds == 1 && st.WALLen == 0
	})
	snapPath := srv.up.wal.SnapshotPath()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	if err := os.Remove(snapPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(snapPath, snapPath); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}
	if srv, err := LoadLive(graphPath, indexPath, walPath, cfg); err == nil {
		d, _ := srv.Distance(e[0], e[1])
		srv.Close()
		t.Fatalf("LoadLive started from the base files over an unreadable snapshot; acked edge %v now at distance %d", e, d)
	}
}

// TestLoadLiveLegacySnapshot: a checkpoint of a retired layout — from
// before the graph became container sections, or with one distance byte a
// label entry — is refused with one line naming `hlbuild migrate`, and the
// restart serves nothing — neither that checkpoint nor the base files
// beside it.
func TestLoadLiveLegacySnapshot(t *testing.T) {
	for _, name := range []string{"tiny.snap1", "tiny.snap2"} {
		g, _, ix := liveBase(t, 300, 6)
		graphPath, indexPath, walPath := saveBase(t, g, ix)
		wal, err := OpenWAL(walPath)
		if err != nil {
			t.Fatal(err)
		}
		snapPath := wal.SnapshotPath()
		if err := wal.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snapPath, legacySnapshot(t, name), 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := LoadLive(graphPath, indexPath, walPath, LiveConfig{})
		if err == nil {
			srv.Close()
			t.Fatalf("LoadLive served over %s", name)
		}
		if srv != nil || !strings.Contains(err.Error(), "hlbuild migrate") || strings.Contains(err.Error(), "\n") {
			t.Fatalf("%s: server %v, err = %v; want none and one line naming hlbuild migrate", name, srv, err)
		}
	}
}

// TestStoredDirectorySnapshots: a checkpoint or resync snapshot written
// before the reader derived the rank directory stores it, in section 15,
// or 18 where the labelling elides its leaves: figure2_dir.snap (the
// paper's Figure 2) and leaves_dir.snap (a labelling that elides its
// leaves), committed as those writers wrote them. Each decodes through
// DecodeSnapshot, DecodeSnapshotBytes and LoadLive to the state a build of
// its landmarks on its graph gives, answering every pair as BFS does, and
// re-encodes to what EncodeSnapshot writes of that state, without the
// directory.
func TestStoredDirectorySnapshots(t *testing.T) {
	for _, c := range []struct {
		name string
		dir  uint32
	}{{"figure2_dir.snap", 15}, {"leaves_dir.snap", 18}} {
		t.Run(c.name, func(t *testing.T) {
			data := legacySnapshot(t, c.name)
			hasDir := func(file []byte) bool {
				_, rows, err := container.ReadTable(bytes.NewReader(file))
				if err != nil {
					t.Fatal(err)
				}
				return slices.ContainsFunc(rows, func(r container.Row) bool { return r.ID == c.dir })
			}
			if !hasDir(data) {
				t.Fatalf("test premise broken: %s has no section %d", c.name, c.dir)
			}
			g, ix, err := DecodeSnapshot(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := core.Build(g, ix.Landmarks())
			if err != nil {
				t.Fatal(err)
			}
			want, err := SnapshotBytes(g, fresh)
			if err != nil || hasDir(want) {
				t.Fatalf("%v, or EncodeSnapshot stores section %d", err, c.dir)
			}
			_, mix, err := DecodeSnapshotBytes(data)
			if err != nil {
				t.Fatal(err)
			}
			walPath := filepath.Join(t.TempDir(), "edges.wal")
			if err := os.WriteFile(walPath+".snap", data, 0o644); err != nil {
				t.Fatal(err)
			}
			srv, err := LoadLive(walPath+".graph", walPath+".idx", walPath, LiveConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			for door, got := range map[string]*core.Index{"DecodeSnapshot": ix, "DecodeSnapshotBytes": mix, "LoadLive": srv.Index().(*core.Index)} {
				if out, err := SnapshotBytes(got.Graph(), got); err != nil || !bytes.Equal(out, want) {
					t.Fatalf("%s: re-encoded to %d bytes (%v), not the %d of a build's snapshot", door, len(out), err, len(want))
				}
				if err := got.Verify(500, 1); err != nil {
					t.Fatalf("%s: %v", door, err)
				}
			}
		})
	}
}

// TestCheckpointPublishesNothing: a checkpoint persists the snapshot the
// server already serves, so the epoch and the served index are the same
// before and after — followers and epoch-pinned readers never see it.
func TestCheckpointPublishesNothing(t *testing.T) {
	g, _, ix := liveBase(t, 300, 6)
	_, _, walPath := saveBase(t, g, ix)
	wal, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewLive(ix, LiveConfig{WAL: wal, RebuildThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Hold the checkpoint in its first step so that "before" is sampled
	// while it is still in flight.
	defer failpoint.Reset()
	FPSnapshotWrite.Delay(1, 50*time.Millisecond)
	res, err := s.InsertEdges([][2]int32{{0, 200}, {1, 201}, {2, 202}, {3, 203}})
	if err != nil {
		t.Fatal(err)
	}
	served := s.Index()
	waitFor(t, 10*time.Second, "the checkpoint", func() bool { return s.LiveStats().Rebuilds == 1 })
	if s.Epoch() != res.Epoch || s.LiveStats().Epoch != res.Epoch {
		t.Fatalf("epoch %d (stats %d) after the checkpoint, want the write's %d", s.Epoch(), s.LiveStats().Epoch, res.Epoch)
	}
	if s.Index() != served {
		t.Fatal("the checkpoint replaced the served index")
	}
}

// TestNoWALNeverCheckpoints: without a log there is nothing to bound, so
// no background work ever starts, however many writes arrive.
func TestNoWALNeverCheckpoints(t *testing.T) {
	_, _, ix := liveBase(t, 300, 6)
	const threshold = 4
	s, err := NewLive(ix, LiveConfig{RebuildThreshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := int32(0); i < 3*threshold; i++ {
		if _, err := s.InsertEdges([][2]int32{{i, 200 + i}}); err != nil {
			t.Fatal(err)
		}
		// The flag is set under the writer lock inside the write, so a
		// checkpoint this write had started would show here.
		if s.Rebuilding() {
			t.Fatalf("write %d started a checkpoint on a server without a WAL", i)
		}
	}
	if st := s.LiveStats(); st.Rebuilds != 0 || st.RebuildErrors != 0 {
		t.Fatalf("checkpoints on a server without a WAL: %+v", st)
	}
}
