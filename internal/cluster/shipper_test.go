package cluster

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"highway/internal/core"
	"highway/internal/gen"
	"highway/internal/serve"
)

// gatedFollower holds the first snapshot chunk it receives until all is
// closed (or ten seconds pass), counting itself in arrived.
type gatedFollower struct {
	*Follower
	gated   atomic.Bool
	arrived *atomic.Int32
	all     chan struct{}
}

func (g *gatedFollower) ReplSnapshot(epoch uint64, done bool, chunk []byte) (uint64, error) {
	if !g.gated.Swap(true) {
		g.arrived.Add(1)
		select {
		case <-g.all:
		case <-time.After(10 * time.Second):
		}
	}
	return g.Follower.ReplSnapshot(epoch, done, chunk)
}

// shortRetry shortens the shipper's reconnect/resync pacing for the
// shippers t makes.
func shortRetry(t *testing.T) {
	old := retryInterval
	retryInterval = 20 * time.Millisecond
	t.Cleanup(func() { retryInterval = old })
}

// startPrimaryOf starts an in-memory live primary over ix shipping to
// followers.
func startPrimaryOf(t *testing.T, ix *core.Index, followers []string) *primaryNode {
	t.Helper()
	shortRetry(t)
	sh := NewShipper(ShipperConfig{Followers: followers})
	srv, err := serve.NewLive(ix, serve.LiveConfig{OnCommit: sh.OnCommit})
	if err != nil {
		t.Fatal(err)
	}
	sh.Start(srv)
	return &primaryNode{srv: srv, sh: sh}
}

// TestShipperEncodesOncePerEpoch: three followers bootstrapping at one
// epoch are sent one encoding of the snapshot, and once the last of them
// has it nothing references those bytes — the shipper keeps no copy. The
// followers hold their first chunks until all three have one, so every
// link has taken the encoding before any is done with it.
func TestShipperEncodesOncePerEpoch(t *testing.T) {
	const followers = 3
	_, ix := testIndex(t, 2000)
	var arrived atomic.Int32
	all := make(chan struct{})
	var addrs []string
	var nodes []*followerNode
	for i := 0; i < followers; i++ {
		f, err := NewFollower(serve.Config{})
		if err != nil {
			t.Fatal(err)
		}
		f.Server().SetReplication(&gatedFollower{Follower: f, arrived: &arrived, all: all})
		n := &followerNode{memberNode: startMember(t, f.Server(), ""), f: f}
		defer n.stop()
		addrs, nodes = append(addrs, n.addr), append(nodes, n)
	}
	p := startPrimaryOf(t, ix, addrs)
	defer p.stop()
	waitUntil(t, "every follower holding its first chunk", func() bool { return arrived.Load() == followers })
	p.sh.encMu.Lock()
	shared := weak.Make(&p.sh.snap.data[0])
	p.sh.encMu.Unlock()
	close(all)
	waitConverged(t, p, nodes...)
	waitUntil(t, "every link done with its transfer", func() bool { return p.sh.resyncs.Load() == followers })

	if n := p.sh.encodes.Load(); n != 1 {
		t.Fatalf("%d followers bootstrapping at one epoch cost %d encodes, want 1", followers, n)
	}
	p.sh.encMu.Lock()
	kept := p.sh.snap
	p.sh.encMu.Unlock()
	if kept != nil {
		t.Fatalf("the shipper still holds the encoding of epoch %d", kept.epoch)
	}
	runtime.GC()
	if shared.Value() != nil {
		t.Fatal("the encoded snapshot survives a collection after every follower has it")
	}
}

// TestClusterSetupKeepsOnlyState: once two followers have bootstrapped and
// a write has landed everywhere, what a collection leaves of the cluster
// is the three nodes' state — each a graph, an index and the sweep arrays
// its write ran in — and not the snapshot-sized buffers that moved it: the
// encoding, the shipper's request scratch, the followers' frame buffers.
// Each of those is a snapshot long, 1.2 MB here: keeping one per follower
// is more than the slack the bound allows.
func TestClusterSetupKeepsOnlyState(t *testing.T) {
	g := gen.BarabasiAlbert(20_000, 5, 7)
	ix, err := core.Build(g, g.DegreeOrder()[:16])
	if err != nil {
		t.Fatal(err)
	}
	off, tgt := g.CSR()
	n := g.NumVertices()
	sweep := int64(32 * n) // the kernel's per-vertex words: seen, front, next, labelled
	state := int64(8*len(off)+4*len(tgt)) + ix.ActualBytes() + sweep
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()

	fA, fB := startFollower(t, ""), startFollower(t, "")
	defer fA.stop()
	defer fB.stop()
	p := startPrimaryOf(t, ix, []string{fA.addr, fB.addr})
	defer p.stop()
	waitConverged(t, p, fA, fB)
	for v, epoch := int32(n-1), p.srv.Epoch(); p.srv.Epoch() == epoch; v-- { // one write that adds an edge
		if _, err := p.srv.InsertEdges([][2]int32{{0, v}}); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, p, fA, fB)

	// Three nodes' state, and a fifth for what serving keeps beside it
	// (searchers, per-worker frontiers, connection buffers): less than a
	// snapshot-sized buffer per follower would add.
	kept := heap() - before
	if limit := 3 * state * 6 / 5; kept > limit {
		t.Fatalf("the cluster keeps %d bytes after set-up and a write: more than %d, three nodes' state of %d and a fifth", kept, limit, state)
	}
	t.Logf("kept %d bytes: %.2f× the three nodes' state of %d", kept, float64(kept)/float64(3*state), state)
	runtime.KeepAlive(ix)
}
