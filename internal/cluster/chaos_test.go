package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"highway/internal/core"
	"highway/internal/gen"
	"highway/internal/hlclient"
	"highway/internal/landmark"
	"highway/internal/oracle"
	"highway/internal/serve"
	"highway/internal/wire"
)

// followerNode is one live follower in a test cluster: the replication
// handler behind a binary listener that can be killed and resurrected
// at the same address (memberNode, router_test.go).
type followerNode struct {
	*memberNode
	f *Follower
}

// startFollower boots a follower's binary listener; addr "" picks a
// fresh loopback port, otherwise the node rebinds the given address
// (the restart path).
func startFollower(t *testing.T, addr string) *followerNode {
	t.Helper()
	f, err := NewFollower(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return &followerNode{memberNode: startMember(t, f.Server(), addr), f: f}
}

func (n *followerNode) stop() {
	n.kill()
	n.f.Server().Close()
}

// primaryNode is the test cluster's write side: a live WAL-backed
// server with a shipper, restartable with a bumped generation.
type primaryNode struct {
	srv *serve.Server
	sh  *Shipper
}

// checkpointEvery is the primaries' checkpoint threshold: low enough
// that the churn and the kill/restart schedule run with snapshot writes
// and log compactions in flight.
const checkpointEvery = 5

// startPrimary starts (or restarts) the primary whose log is walPath the
// way hlserve does, through serve.LoadLive: from the newest checkpoint
// next to the log if there is one, else from ix written out as the base
// files, then the log on top.
func startPrimary(t *testing.T, ix *core.Index, walPath string, followers []string) *primaryNode {
	t.Helper()
	gen, err := NextGeneration(walPath + ".gen")
	if err != nil {
		t.Fatal(err)
	}
	graphPath, indexPath := walPath+".base.hwg", walPath+".base.idx"
	if err := ix.Graph().SaveBinary(graphPath); err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(indexPath); err != nil {
		t.Fatal(err)
	}
	shortRetry(t)
	sh := NewShipper(ShipperConfig{Followers: followers})
	srv, err := serve.LoadLive(graphPath, indexPath, walPath, serve.LiveConfig{
		RebuildThreshold: checkpointEvery,
		EpochBase:        EpochBase(gen),
		OnCommit:         sh.OnCommit,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh.Start(srv)
	srv.SetReplicationStats(sh.Stats)
	return &primaryNode{srv: srv, sh: sh}
}

func (p *primaryNode) stop() {
	p.sh.Close()
	p.srv.Close()
}

// waitConverged blocks until every follower's durable epoch reaches the
// primary's published epoch (and is bootstrapped), or fails the test.
func waitConverged(t *testing.T, p *primaryNode, nodes ...*followerNode) {
	t.Helper()
	want := p.srv.Epoch()
	deadline := time.Now().Add(15 * time.Second)
	for _, n := range nodes {
		for n.f.Epoch() < want || !n.f.Stats().Bootstrapped {
			if time.Now().After(deadline) {
				t.Fatalf("follower %s stuck at epoch %d (bootstrapped=%v), want >= %d",
					n.addr, n.f.Epoch(), n.f.Stats().Bootstrapped, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// indexBytes renders a core index in its on-disk format for byte
// identity comparison.
func indexBytes(t *testing.T, ix *core.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.WriteFormat(&buf, core.FormatV2); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestClusterChaosChurn is the replication acceptance drill: a seeded
// mixed insert/delete churn runs against a 1-primary/2-follower
// cluster while the primary and each follower are killed and restarted
// mid-stream. After every batch both followers must converge to the
// primary's epoch and one of them (alternating) is differentially
// checked against BFS ground truth; at the end both followers' label
// state must be byte-identical to a from-scratch build over the final
// edge set. Zero acked-op loss falls out of the differential check:
// every acked op is visible in the follower the oracle reads.
func TestClusterChaosChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node churn drill")
	}
	dir := t.TempDir()
	walPath := filepath.Join(dir, "edges.wal")

	g := gen.BarabasiAlbert(200, 3, 7)
	lms, err := landmark.Select(g, landmark.Options{K: 8, Strategy: landmark.Degree})
	if err != nil {
		t.Fatal(err)
	}
	ix0, err := core.BuildParallel(g, lms)
	if err != nil {
		t.Fatal(err)
	}

	fA := startFollower(t, "")
	fB := startFollower(t, "")
	nodes := []*followerNode{fA, fB}
	p := startPrimary(t, ix0, walPath, []string{fA.addr, fB.addr})
	defer func() {
		p.stop()
		for _, n := range nodes {
			n.stop()
		}
	}()
	waitConverged(t, p, nodes...) // initial snapshot bootstrap

	batch := 0
	apply := func(ops []oracle.EdgeOp) error {
		batch++
		switch batch {
		case 4: // kill follower A mid-churn, restart empty at the same address
			nodes[0].stop()
			nodes[0] = startFollower(t, nodes[0].addr)
		case 8: // kill the primary, restart with a bumped generation + WAL replay
			p.stop()
			p = startPrimary(t, ix0, walPath, []string{nodes[0].addr, nodes[1].addr})
		case 11: // kill follower B
			nodes[1].stop()
			nodes[1] = startFollower(t, nodes[1].addr)
		}
		// Ops apply one at a time to preserve the mixed batch's order
		// (a delete and re-insert of the same edge must not merge).
		for _, op := range ops {
			var err error
			if op.Del {
				_, err = p.srv.DeleteEdges([][2]int32{{op.A, op.B}})
			} else {
				_, err = p.srv.InsertEdges([][2]int32{{op.A, op.B}})
			}
			if err != nil {
				return fmt.Errorf("batch %d op {%d,%d} del=%v: %w", batch, op.A, op.B, op.Del, err)
			}
		}
		waitConverged(t, p, nodes...)
		return nil
	}
	reader := func() oracle.Oracle {
		n := nodes[batch%2] // alternate which follower answers
		return oracle.Func(func(s, t int32) int32 {
			d, err := n.f.Server().Distance(s, t)
			if err != nil {
				return -2 // diverges loudly in the diff
			}
			return d
		})
	}
	if err := oracle.DiffChurn(g, oracle.ChurnConfig{
		Batches: 14, BatchSize: 6, DeleteRatio: 0.35, Trials: 40, Seed: 9,
	}, apply, reader); err != nil {
		t.Fatal(err)
	}

	// Byte-identity: primary's frozen labelling, both followers'
	// published labelling, and a from-scratch build over the final edge
	// set must all be the same bytes.
	gFinal, ixPrimary, _, err := p.srv.FrozenState()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.BuildParallel(gFinal, lms)
	if err != nil {
		t.Fatal(err)
	}
	want := indexBytes(t, fresh)
	if got := indexBytes(t, ixPrimary); !bytes.Equal(got, want) {
		t.Fatalf("primary labelling differs from from-scratch build (%d vs %d bytes)", len(got), len(want))
	}
	for i, n := range nodes {
		ixF, ok := n.f.Server().Index().(*core.Index)
		if !ok {
			t.Fatalf("follower %d serves a %T, want *core.Index", i, n.f.Server().Index())
		}
		if got := indexBytes(t, ixF); !bytes.Equal(got, want) {
			t.Fatalf("follower %d labelling differs from from-scratch build (%d vs %d bytes)", i, len(got), len(want))
		}
	}

	// Replication stats surfaced through the primary's server.
	rs := p.sh.Stats()
	if rs.Role != "primary" || rs.Followers != 2 || rs.Acked == 0 {
		t.Fatalf("primary replication stats off: %+v", rs)
	}
	// All of the above held with compaction in flight: the restarted
	// primary alone took several thresholds' worth of writes.
	if st := p.srv.LiveStats(); st.Rebuilds == 0 || st.RebuildErrors != 0 {
		t.Fatalf("the churn ran without a clean checkpoint: %+v", st)
	}
}

// TestCheckpointKeepsEpoch: a checkpoint carries no write, so it must
// not move the epoch — one epoch per acked batch, none per checkpoint —
// or followers, which only ever see writes, could never catch up with
// the primary again.
func TestCheckpointKeepsEpoch(t *testing.T) {
	g := gen.BarabasiAlbert(60, 2, 3)
	lms, err := landmark.Select(g, landmark.Options{K: 4, Strategy: landmark.Degree})
	if err != nil {
		t.Fatal(err)
	}
	ix0, err := core.BuildParallel(g, lms)
	if err != nil {
		t.Fatal(err)
	}
	fn := startFollower(t, "")
	defer fn.stop()
	p := startPrimary(t, ix0, filepath.Join(t.TempDir(), "edges.wal"), []string{fn.addr})
	defer p.stop()

	const batches = 2*checkpointEvery + 1
	for i := int32(0); i < batches; i++ {
		if _, err := p.srv.InsertEdges([][2]int32{{i, 59 - i}}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for st := p.srv.LiveStats(); st.Rebuilds == 0 || st.Rebuilding; st = p.srv.LiveStats() {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint after %d writes at threshold %d: %+v", batches, checkpointEvery, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := p.srv.Epoch() - EpochBase(1); got != batches {
		t.Fatalf("primary is %d epochs past its base after %d batches and %d checkpoints",
			got, batches, p.srv.LiveStats().Rebuilds)
	}
	waitConverged(t, p, fn)
	if fe, pe := fn.f.Epoch(), p.srv.Epoch(); fe != pe {
		t.Fatalf("follower at epoch %d, primary at %d", fe, pe)
	}
}

// TestStaleEpochFenced drives the fencing path directly: frames below
// the follower's durable epoch must bounce with wire.CodeFenced and
// leave its state untouched.
func TestStaleEpochFenced(t *testing.T) {
	dir := t.TempDir()
	g := gen.BarabasiAlbert(60, 2, 3)
	lms, err := landmark.Select(g, landmark.Options{K: 4, Strategy: landmark.Degree})
	if err != nil {
		t.Fatal(err)
	}
	ix0, err := core.BuildParallel(g, lms)
	if err != nil {
		t.Fatal(err)
	}
	fn := startFollower(t, "")
	defer fn.stop()
	p := startPrimary(t, ix0, filepath.Join(dir, "edges.wal"), []string{fn.addr})
	defer p.stop()
	if _, err := p.srv.InsertEdges([][2]int32{{0, 59}}); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, p, fn)

	cl, err := hlclient.Dial(context.Background(), fn.addr, hlclient.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	epochBefore := fn.f.Epoch()
	assertFenced := func(tag string, err error) {
		t.Helper()
		var re *wire.RemoteError
		if !errors.As(err, &re) || re.Code != wire.CodeFenced {
			t.Fatalf("%s: want RemoteError{Fenced}, got %v", tag, err)
		}
	}
	_, err = cl.ReplAppend(context.Background(), 1, [][2]int32{{0, 1}})
	assertFenced("stale append", err)
	_, err = cl.ReplAppend(context.Background(), epochBefore, [][2]int32{{0, 1}})
	assertFenced("equal-epoch append", err)
	_, err = cl.ReplSnapshot(context.Background(), epochBefore-1, true, []byte("junk"))
	assertFenced("stale snapshot", err)
	if got := fn.f.Epoch(); got != epochBefore {
		t.Fatalf("fenced frames moved the follower epoch: %d -> %d", epochBefore, got)
	}
	if fn.f.Stats().Fenced < 3 {
		t.Fatalf("fenced counter = %d, want >= 3", fn.f.Stats().Fenced)
	}
}

// TestDeposedPrimary checks the other side of fencing: a primary whose
// follower has been adopted by a newer generation observes Fenced on
// its next ship and marks itself deposed instead of fighting.
func TestDeposedPrimary(t *testing.T) {
	dir := t.TempDir()
	g := gen.BarabasiAlbert(60, 2, 3)
	lms, err := landmark.Select(g, landmark.Options{K: 4, Strategy: landmark.Degree})
	if err != nil {
		t.Fatal(err)
	}
	ix0, err := core.BuildParallel(g, lms)
	if err != nil {
		t.Fatal(err)
	}
	fn := startFollower(t, "")
	defer fn.stop()

	// Old incarnation: generation 1 (its own gen file).
	p1 := startPrimary(t, ix0, filepath.Join(dir, "p1.wal"), []string{fn.addr})
	defer p1.stop()
	if _, err := p1.srv.InsertEdges([][2]int32{{0, 59}}); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, p1, fn)

	// New incarnation: generation claimed from the SAME gen file, so it
	// is strictly newer; it adopts the follower via snapshot + append.
	if _, err := os.Stat(filepath.Join(dir, "p1.wal.gen")); err != nil {
		t.Fatal(err)
	}
	p2 := &primaryNode{}
	{
		gen2, err := NextGeneration(filepath.Join(dir, "p1.wal.gen"))
		if err != nil {
			t.Fatal(err)
		}
		wal, err := serve.OpenWAL(filepath.Join(dir, "p2.wal"))
		if err != nil {
			t.Fatal(err)
		}
		shortRetry(t)
		sh := NewShipper(ShipperConfig{Followers: []string{fn.addr}})
		srv, err := serve.NewLive(ix0, serve.LiveConfig{
			WAL:       wal,
			EpochBase: EpochBase(gen2),
			OnCommit:  sh.OnCommit,
		})
		if err != nil {
			t.Fatal(err)
		}
		sh.Start(srv)
		p2.srv, p2.sh = srv, sh
	}
	defer p2.stop()
	if _, err := p2.srv.InsertEdges([][2]int32{{1, 58}}); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, p2, fn)

	// The old primary ships one more batch; the follower fences it at
	// an epoch the old primary never acked, so it must go deposed.
	if _, err := p1.srv.InsertEdges([][2]int32{{2, 57}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !p1.sh.Stats().Deposed {
		if time.Now().After(deadline) {
			t.Fatalf("old primary never observed deposition: %+v", p1.sh.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if p2.sh.Stats().Deposed {
		t.Fatalf("new primary wrongly deposed: %+v", p2.sh.Stats())
	}
}

// TestGeneration covers the durable generation counter.
func TestGeneration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gen")
	for want := uint64(1); want <= 3; want++ {
		got, err := NextGeneration(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("generation %d, want %d", got, want)
		}
	}
	if err := os.WriteFile(path, []byte("not a number"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NextGeneration(path); err == nil {
		t.Fatal("corrupt generation file accepted")
	}
	if EpochBase(3) != 3<<32 {
		t.Fatalf("EpochBase(3) = %d", EpochBase(3))
	}
}
