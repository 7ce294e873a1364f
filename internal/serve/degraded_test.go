package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"highway/internal/failpoint"
	"highway/internal/workload"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// setLiveTimings sets the live server's recovery-probe interval and
// checkpoint-retry backoff bounds for the servers t makes.
func setLiveTimings(t *testing.T, probe, retryBase, retryMax time.Duration) {
	old := [3]time.Duration{degradedProbeInterval, rebuildRetryBase, rebuildRetryMax}
	degradedProbeInterval, rebuildRetryBase, rebuildRetryMax = probe, retryBase, retryMax
	t.Cleanup(func() { degradedProbeInterval, rebuildRetryBase, rebuildRetryMax = old[0], old[1], old[2] })
}

// TestDegradedReadOnlyUnderFsyncFailure is the degraded-mode acceptance
// test (run under -race in CI): while the WAL's fsync persistently
// fails, the server keeps serving concurrent reads with zero errors,
// rejects every write with the degraded taxonomy starting from the very
// batch that hit the failure, flips /readyz (but not /healthz) to 503 —
// and re-enables writes on its own once the fault clears.
func TestDegradedReadOnlyUnderFsyncFailure(t *testing.T) {
	defer failpoint.Reset()
	g, _, ix := liveBase(t, 300, 6)
	_, _, walPath := saveBase(t, g, ix)
	wal, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	setLiveTimings(t, 10*time.Millisecond, rebuildRetryBase, rebuildRetryMax)
	s, err := NewLive(ix, LiveConfig{
		WAL:              wal,
		RebuildThreshold: -1, // isolate degradation from checkpoints
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Healthy writes first: these must survive everything below.
	if _, err := s.InsertEdges([][2]int32{{0, 200}, {1, 201}}); err != nil {
		t.Fatal(err)
	}

	// Readers hammer the server across the whole degraded episode.
	pairs := workload.RandomPairs(g, 64, 7)
	var stop atomic.Bool
	var readErrs atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				p := pairs[i%len(pairs)]
				if _, err := s.Distance(p.S, p.T); err != nil {
					readErrs.Add(1)
				}
			}
		}()
	}

	// Break the disk.
	FPWALSync.Fail(0, "device gone")
	// The very batch that hits the failure already carries the degraded
	// taxonomy — "within one batch", not eventually.
	if _, err := s.InsertEdges([][2]int32{{2, 202}}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("first write under fsync failure: want ErrDegraded, got %v", err)
	}
	if !s.Degraded() {
		t.Fatal("server not degraded after WAL failure")
	}
	// Subsequent writes are shed before touching the WAL.
	if _, err := s.InsertEdges([][2]int32{{3, 203}}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("second write: want ErrDegraded, got %v", err)
	}

	// HTTP taxonomy: POST /edges → 503 + Retry-After, /readyz → 503,
	// /healthz stays 200 (the process is fine, only durability is gone).
	code, _, eb := postEdges(t, ts.URL, `{"edge":[4,204]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded POST /edges: code %d (%s), want 503", code, eb.Error)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded /readyz: code %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded /healthz: code %d, want 200", resp.StatusCode)
	}

	st := s.LiveStats()
	if !st.Degraded || st.DegradedReason == "" || st.WritesRejected < 3 {
		t.Fatalf("degraded stats: %+v", st)
	}
	if st.WAL == nil || st.WAL.SyncErrors == 0 {
		t.Fatalf("wal stats missing sync errors: %+v", st.WAL)
	}

	// Let the readers run a while against the degraded server.
	time.Sleep(50 * time.Millisecond)

	// Fix the disk: the recovery probe must re-arm writes by itself.
	FPWALSync.Clear()
	waitFor(t, 5*time.Second, "recovery", func() bool { return !s.Degraded() })
	if _, err := s.InsertEdges([][2]int32{{5, 205}}); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered /readyz: code %d, want 200", resp.StatusCode)
	}
	st = s.LiveStats()
	if st.Degraded || st.Recoveries != 1 {
		t.Fatalf("recovered stats: %+v", st)
	}

	stop.Store(true)
	wg.Wait()
	if n := readErrs.Load(); n != 0 {
		t.Fatalf("%d read errors during degraded episode, want 0", n)
	}

	// The log holds exactly the acknowledged batches: the two healthy
	// ones and the post-recovery one, none of the rejected ones.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	want := [][2]int32{{0, 200}, {1, 201}, {5, 205}}
	if len(w2.Recovered()) != len(want) {
		t.Fatalf("replayed %v, want %v", w2.Recovered(), want)
	}
	for i, e := range want {
		if w2.Recovered()[i] != opOf(e) {
			t.Fatalf("replayed %v, want %v", w2.Recovered(), want)
		}
	}
}

// TestRebuildRetryBackoff pins the checkpoint failure policy: while the
// snapshot cannot be written the log stays uncompacted and the same
// index keeps serving, retries come with backoff instead of refiring on
// every write, and the checkpoint lands once the fault clears — all
// visible in LiveStats.
func TestRebuildRetryBackoff(t *testing.T) {
	defer failpoint.Reset()
	g, _, ix := liveBase(t, 300, 6)
	_, _, walPath := saveBase(t, g, ix)
	wal, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	setLiveTimings(t, degradedProbeInterval, 10*time.Millisecond, 40*time.Millisecond)
	s, err := NewLive(ix, LiveConfig{
		WAL:              wal,
		RebuildThreshold: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The first two attempts die at the failpoint, the third succeeds
	// via the retry timer with no further writes arriving.
	FPSnapshotWrite.Fail(2, "disk full")
	edges := make([][2]int32, 0, 4)
	for i := int32(0); i < 4; i++ {
		edges = append(edges, [2]int32{i, 150 + i})
	}
	if _, err := s.InsertEdges(edges); err != nil {
		t.Fatal(err)
	}
	served := s.Index()
	waitFor(t, 10*time.Second, "checkpoint to succeed after retries", func() bool {
		st := s.LiveStats() // one consistent view: compaction and the counter move under one lock hold
		if st.Rebuilds == 0 && st.WALLen != len(edges) {
			t.Fatalf("log compacted to %d records before any checkpoint succeeded", st.WALLen)
		}
		if _, err := s.Distance(0, 150); err != nil {
			t.Fatal(err)
		}
		return st.Rebuilds == 1 && !st.Rebuilding
	})
	st := s.LiveStats()
	if st.RebuildErrors != 2 {
		t.Fatalf("RebuildErrors = %d, want 2", st.RebuildErrors)
	}
	if st.RebuildFails != 0 {
		t.Fatalf("RebuildFails = %d after success, want 0", st.RebuildFails)
	}
	if st.WALLen != 0 {
		t.Fatalf("WALLen = %d after the checkpoint, want 0", st.WALLen)
	}
	// The failpoint fired exactly its budgeted 2 times (hits stop
	// counting once a fail-N-times point exhausts), so the success came
	// from the third attempt.
	if FPSnapshotWrite.Hits() != 2 {
		t.Fatalf("injected failures = %d, want 2", FPSnapshotWrite.Hits())
	}
	// The same index served the whole time, and writes still work.
	if s.Index() != served {
		t.Fatal("a checkpoint retry replaced the served index")
	}
	if _, err := s.InsertEdges([][2]int32{{9, 199}}); err != nil {
		t.Fatal(err)
	}
}

// TestReadyzOnReadOnlyServer pins that /readyz exists (200) on servers
// without a writer side at all.
func TestReadyzOnReadOnlyServer(t *testing.T) {
	_, _, ix := liveBase(t, 200, 4)
	s := New(ix, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: code %d, want 200", ep, resp.StatusCode)
		}
	}
}
