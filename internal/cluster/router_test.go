package cluster

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"highway/internal/core"
	"highway/internal/gen"
	"highway/internal/graph"
	"highway/internal/hlclient"
	"highway/internal/landmark"
	"highway/internal/oracle"
	"highway/internal/serve"
	"highway/internal/wire"
)

// memberMaxBatch is the batch limit of the routed test members: small
// enough that a five-pair batch is their TooLarge.
const memberMaxBatch = 4

// memberNode is one read-only routed member: a server over a fixed
// index whose binary listener can be killed and brought back at the
// same address.
type memberNode struct {
	addr   string
	srv    *serve.Server
	cancel context.CancelFunc
	done   chan struct{}
}

// startMember listens for srv on addr ("" picks a loopback port).
func startMember(t *testing.T, srv *serve.Server, addr string) *memberNode {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("member listen %s: %v", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &memberNode{addr: ln.Addr().String(), srv: srv, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(n.done)
		srv.ServeBinary(ctx, ln)
	}()
	return n
}

// kill closes the listener and every connection; the server itself
// stays usable for restart.
func (n *memberNode) kill() {
	n.cancel()
	<-n.done
}

func (n *memberNode) restart(t *testing.T) *memberNode {
	t.Helper()
	return startMember(t, n.srv, n.addr)
}

func testIndex(t *testing.T, n int) (*graph.Graph, *core.Index) {
	t.Helper()
	g := gen.BarabasiAlbert(n, 3, 7)
	lms, err := landmark.Select(g, landmark.Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.BuildParallel(g, lms)
	if err != nil {
		t.Fatal(err)
	}
	return g, ix
}

// setHealthInterval sets the health cadence of the routers the test
// builds, restoring it when the test ends.
func setHealthInterval(t *testing.T, d time.Duration) {
	old := healthInterval
	healthInterval = d
	t.Cleanup(func() { healthInterval = old })
}

// testRouter starts a router whose health loop never ticks after its
// initial dial pass, so a test decides when members are probed
// (rt.probe()) and the counters it reads are its own requests'.
func testRouter(t *testing.T, primary string, shards ...[]string) *Router {
	t.Helper()
	setHealthInterval(t, time.Hour)
	return startRouter(t, RouterConfig{Primary: primary, Shards: shards})
}

// startRouter builds a router from cfg and waits until it has dialed
// every member it was given.
func startRouter(t *testing.T, cfg RouterConfig) *Router {
	t.Helper()
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	waitUntil(t, "the router to dial all its members", func() bool {
		st := rt.Stats()
		return st.MemberUp == st.Members && (cfg.Primary == "" || st.PrimaryUp)
	})
	return rt
}

// twoMembers is the fixture of the routing tests: two read-only
// replicas of one index behind a router with no primary.
func twoMembers(t *testing.T) (g *graph.Graph, a, b *memberNode, rt *Router) {
	t.Helper()
	g, ix := testIndex(t, 300)
	cfg := serve.Config{MaxBatch: memberMaxBatch}
	a = startMember(t, serve.New(ix, cfg), "")
	b = startMember(t, serve.New(ix, cfg), "")
	t.Cleanup(func() { a.kill(); b.kill() })
	return g, a, b, testRouter(t, "", []string{a.addr, b.addr})
}

// TestRouterFailover: a member killed mid-stream costs the read that
// finds it dead one extra member call, not an error; the member is then
// passed over until a health probe readmits it after its restart at the
// same address.
func TestRouterFailover(t *testing.T) {
	g, a, _, rt := twoMembers(t)
	ctx := context.Background()
	pairs := oracle.SampledPairs(g.NumVertices(), 60, 3)
	truth := oracle.Func(func(s, u int32) int32 {
		d, err := rt.Distance(ctx, s, u)
		if err != nil {
			t.Errorf("routed read (%d,%d): %v", s, u, err)
		}
		return d
	})
	check := func(pairs [][2]int32) {
		t.Helper()
		if err := oracle.Diff(g, truth, pairs); err != nil {
			t.Fatal(err)
		}
	}
	check(pairs[:20])
	if st := rt.Stats(); st.Fanout != st.Reads || st.Reads != 20 {
		t.Fatalf("healthy path: fanout %d, reads %d, want 20 each", st.Fanout, st.Reads)
	}

	a.kill() // an idle router prefers its first member: the next read meets the corpse
	check(pairs[20:40])
	st := rt.Stats()
	if st.Fanout != st.Reads+1 || st.Errors != 0 {
		t.Fatalf("after the kill: fanout %d, reads %d, errors %d; want one failover and no error", st.Fanout, st.Reads, st.Errors)
	}
	if st.MemberUp != 1 || !rt.Ready() {
		t.Fatalf("after the kill: %d members up, ready=%v; want the survivor only", st.MemberUp, rt.Ready())
	}

	a = a.restart(t)
	defer a.kill()
	check(pairs[40:50]) // back, but not yet probed: still passed over
	if st := rt.Stats(); st.MemberUp != 1 || st.Fanout != st.Reads+1 {
		t.Fatalf("restarted member readmitted without a probe: %+v", st)
	}
	rt.probe()
	if up := rt.Stats().MemberUp; up != 2 {
		t.Fatalf("%d members up after the probe, want 2", up)
	}
	served := func() int64 { return a.srv.EndpointStats(time.Second)["bin_distance"].Requests }
	before := served()
	check(pairs[50:])
	if got := served() - before; got != 10 {
		t.Fatalf("readmitted first member served %d of 10 idle-router reads", got)
	}
}

// TestRouterShippedConfigFailsOver: the router is configured as
// hlserve route configures it — members and nothing else — and the
// first member's responses die twice: on the pooled connection and on
// the fresh one the client re-sends on. The router dials members
// without retries or breaker, so the read that meets the failure ejects
// the member and answers from the other one in the same call; no client
// retry schedule runs underneath it.
func TestRouterShippedConfigFailsOver(t *testing.T) {
	g, _, _, rt := twoMembers(t)
	serve.FPBinWrite.Fail(2, "response write died")
	defer serve.FPBinWrite.Clear()

	const s, u = 3, 250
	d, err := rt.Distance(context.Background(), s, u) // an idle router picks the first member
	st := rt.Stats()
	if err != nil {
		t.Fatalf("routed read: %v", err)
	}
	if err := oracle.Diff(g, oracle.Func(func(int32, int32) int32 { return d }), [][2]int32{{s, u}}); err != nil {
		t.Fatalf("routed read against BFS: %v", err)
	}
	if hits := serve.FPBinWrite.Hits(); hits != 2 {
		t.Fatalf("the failpoint fired %d times, want 2", hits)
	}
	if st.Reads != 1 || st.Fanout != st.Reads+1 || st.MemberUp != 1 || st.Errors != 0 {
		t.Fatalf("want one read, one failover and the first member ejected: %+v", st)
	}
}

// TestRouterCancelledReadKeepsMembers: a read whose caller has already
// given up (a disconnected HTTP client, a listener shutting down) fails
// with the caller's context error on the first member it tries. That
// says nothing about the member, so the router ejects nobody, fails
// over nowhere and counts no routing error, and the next live read is
// answered.
func TestRouterCancelledReadKeepsMembers(t *testing.T) {
	g, _, _, rt := twoMembers(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rt.Distance(ctx, 3, 250); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Distance: %v, want context.Canceled", err)
	}
	if _, err := rt.DistanceBatch(ctx, [][2]int32{{3, 250}, {1, 2}}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled DistanceBatch: %v, want context.Canceled", err)
	}
	if st := rt.Stats(); st.MemberUp != 2 || st.Errors != 0 || st.Fanout != st.Reads {
		t.Fatalf("after two cancelled reads: %+v; want both members up, no error and no failover", st)
	}
	d, err := rt.Distance(context.Background(), 3, 250)
	if err != nil {
		t.Fatalf("live read after the cancelled ones: %v", err)
	}
	if err := oracle.Diff(g, oracle.Func(func(int32, int32) int32 { return d }), [][2]int32{{3, 250}}); err != nil {
		t.Fatalf("live read against BFS: %v", err)
	}
}

// TestRouterConcurrentFailover is the same drill with the health loop
// ticking and several readers in flight while the member dies and comes
// back: no read may fail or answer wrongly, whichever of kill, probe and
// read gets there first.
func TestRouterConcurrentFailover(t *testing.T) {
	g, ix := testIndex(t, 300)
	a := startMember(t, serve.New(ix, serve.Config{}), "")
	b := startMember(t, serve.New(ix, serve.Config{}), "")
	defer b.kill()
	setHealthInterval(t, 5*time.Millisecond)
	rt := startRouter(t, RouterConfig{Shards: [][]string{{a.addr, b.addr}}})
	membersUp := func(want int) func() bool {
		return func() bool { return rt.Stats().MemberUp == want }
	}

	pairs := oracle.SampledPairs(g.NumVertices(), 64, 13)
	sr := ix.NewSearcher()
	want := make([]int32, len(pairs))
	for i, p := range pairs {
		want[i] = sr.Distance(p[0], p[1])
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := pairs[i%len(pairs)]
				if d, err := rt.Distance(context.Background(), p[0], p[1]); err != nil || d != want[i%len(pairs)] {
					t.Errorf("routed read (%d,%d) = %d, %v; want %d", p[0], p[1], d, err, want[i%len(pairs)])
					return
				}
			}
		}(w)
	}
	readsPass := func(n int64) func() bool {
		from := rt.Stats().Reads
		return func() bool { return rt.Stats().Reads >= from+n }
	}
	waitUntil(t, "reads before the kill", readsPass(200))
	a.kill()
	waitUntil(t, "the dead member ejected", membersUp(1))
	waitUntil(t, "reads on the survivor", readsPass(200))
	a = a.restart(t)
	defer a.kill()
	waitUntil(t, "the restarted member readmitted", membersUp(2))
	waitUntil(t, "reads after the restart", readsPass(200))
	close(stop)
	wg.Wait()
	if st := rt.Stats(); st.Errors != 0 {
		t.Fatalf("reads failed for want of a member: %+v", st)
	}
}

// waitUntil polls cond for up to ten seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestRouterUnavailable: with no healthy read member a read is
// ErrUnavailable and the router is unready; without a primary, or with
// the primary down, so is a write.
func TestRouterUnavailable(t *testing.T) {
	if _, err := NewRouter(RouterConfig{Primary: "127.0.0.1:1", Shards: [][]string{{}, {}}}); err == nil {
		t.Fatal("a router with no read member was built")
	}
	_, a, b, rt := twoMembers(t)
	ctx := context.Background()
	if _, err := rt.InsertEdges(ctx, [][2]int32{{0, 1}}); !errors.Is(err, serve.ErrUnavailable) {
		t.Fatalf("write without a primary: %v, want ErrUnavailable", err)
	}
	a.kill()
	b.kill()
	if _, err := rt.Distance(ctx, 1, 2); !errors.Is(err, serve.ErrUnavailable) {
		t.Fatalf("read with every member dead: %v, want ErrUnavailable", err)
	}
	if _, err := rt.DistanceBatch(ctx, [][2]int32{{1, 2}}, nil); !errors.Is(err, serve.ErrUnavailable) {
		t.Fatalf("batch with every member dead: %v, want ErrUnavailable", err)
	}
	if st := rt.Stats(); st.Fanout != 2 || st.Reads != 2 || st.Errors != 2 || st.MemberUp != 0 {
		t.Fatalf("want both members tried once by the first read and none by the second: %+v", st)
	}
	if _, ok := rt.Readiness(); ok || rt.Ready() {
		t.Fatal("router with no healthy member reports ready")
	}

	// Primary configured but down: the probe clears its up bit.
	_, ix := testIndex(t, 60)
	live, err := serve.NewLive(ix, serve.LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	p := startMember(t, live, "")
	rt2 := testRouter(t, p.addr, []string{p.addr})
	if _, err := rt2.InsertEdges(ctx, [][2]int32{{0, 59}}); err != nil || !rt2.Stats().PrimaryUp {
		t.Fatalf("write through a healthy primary: %v (%+v)", err, rt2.Stats())
	}
	p.kill()
	rt2.probe()
	if rt2.Stats().PrimaryUp {
		t.Fatal("dead primary still up after a probe")
	}
	if _, err := rt2.DeleteEdges(ctx, [][2]int32{{0, 59}}); !errors.Is(err, serve.ErrUnavailable) {
		t.Fatalf("write with the primary down: %v, want ErrUnavailable", err)
	}
}

// TestRouterRelaysMemberErrors: a Range or TooLarge answer is the
// member's verdict on the request, not a routing failure — it comes
// back as sent, ejects nobody and is not retried elsewhere.
func TestRouterRelaysMemberErrors(t *testing.T) {
	g, _, _, rt := twoMembers(t)
	ctx := context.Background()
	n := int32(g.NumVertices())
	wantCode := func(tag string, err error, code wire.ErrorCode) {
		t.Helper()
		var re *wire.RemoteError
		if !errors.As(err, &re) || re.Code != code {
			t.Fatalf("%s: %v, want RemoteError code %v", tag, err, code)
		}
	}
	_, err := rt.Distance(ctx, 0, n+5)
	wantCode("point out of range", err, wire.CodeRange)
	_, err = rt.DistanceBatch(ctx, [][2]int32{{0, 1}, {n, 2}}, nil)
	wantCode("batch out of range", err, wire.CodeRange)
	_, err = rt.DistanceBatch(ctx, make([][2]int32, memberMaxBatch+1), nil)
	wantCode("batch over the member's limit", err, wire.CodeTooLarge)
	if st := rt.Stats(); st.MemberUp != 2 || st.Fanout != 3 || st.Reads != 3 || st.Errors != 0 {
		t.Fatalf("relayed errors ejected a member or failed over: %+v", st)
	}
}

// TestPickLeastInflight: the balancer's one rule.
func TestPickLeastInflight(t *testing.T) {
	_, _, _, rt := twoMembers(t)
	first, second := rt.members[0], rt.members[1]
	if m, cl := pick(rt.members); m != first || cl == nil {
		t.Fatal("idle members: want the first, with its client")
	}
	first.inflight.Add(2)
	second.inflight.Add(1)
	if m, _ := pick(rt.members); m != second {
		t.Fatal("want the member with fewer requests in flight")
	}
	second.up.Store(false)
	if m, _ := pick(rt.members); m != first {
		t.Fatal("an ejected member must lose to a busy healthy one")
	}
	first.up.Store(false)
	if m, cl := pick(rt.members); m != nil || cl != nil {
		t.Fatal("no healthy member: want nil")
	}
}

// TestRouterSpreadsConcurrentReads: with reads slow enough to overlap
// (serve.query holds each for 2ms on the member), eight readers through
// the router keep both replicas working — each serves at least a third
// of the reads — and every read is still one member call.
func TestRouterSpreadsConcurrentReads(t *testing.T) {
	const readers, perReader = 8, 25
	g, a, b, rt := twoMembers(t)
	serve.FPQuery.Delay(0, 2*time.Millisecond)
	defer serve.FPQuery.Clear()
	served := func(m *memberNode) int64 { return m.srv.EndpointStats(time.Second)["bin_distance"].Requests }
	fromA, fromB := served(a), served(b)

	ctx := context.Background()
	n := int32(g.NumVertices())
	var wg sync.WaitGroup
	for w := int32(0); w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int32(0); i < perReader; i++ {
				if _, err := rt.Distance(ctx, (w*perReader+i)%n, (7*i)%n); err != nil {
					t.Errorf("routed read: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := rt.Stats()
	if st.Reads != readers*perReader || st.Fanout != st.Reads || st.Errors != 0 {
		t.Fatalf("want %d reads, one member call each: %+v", readers*perReader, st)
	}
	gotA, gotB := served(a)-fromA, served(b)-fromB
	t.Logf("%d reads: %d on the first member, %d on the second", st.Reads, gotA, gotB)
	if 3*gotA < st.Reads || 3*gotB < st.Reads {
		t.Fatalf("members served %d and %d of %d concurrent reads, want at least a third each", gotA, gotB, st.Reads)
	}
}

// TestRouterReadAllocs pins the price of the hop: a routed read runs on
// the caller's goroutine and adds no staging of its own to the client
// call it wraps, and a batch decodes straight into the caller's vector.
func TestRouterReadAllocs(t *testing.T) {
	g, a, _, rt := twoMembers(t)
	ctx := context.Background()
	direct, err := hlclient.Dial(ctx, a.addr, hlclient.Config{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	n := int32(g.NumVertices())

	var i int32
	base := testing.AllocsPerRun(200, func() { i++; direct.Distance(ctx, i%n, (i*7)%n) })
	routed := testing.AllocsPerRun(200, func() { i++; rt.Distance(ctx, i%n, (i*7)%n) })
	t.Logf("Distance: %.1f allocs/op routed, %.1f direct", routed, base)
	if routed > base+2 {
		t.Errorf("Router.Distance: %.1f allocs/op against %.1f direct, want at most +2", routed, base)
	}

	pairs := oracle.SampledPairs(int(n), memberMaxBatch, 5)
	dst := make([]int32, len(pairs))
	base = testing.AllocsPerRun(200, func() { direct.DistanceBatch(ctx, pairs, dst) })
	routed = testing.AllocsPerRun(200, func() {
		out, err := rt.DistanceBatch(ctx, pairs, dst)
		if err != nil || &out[0] != &dst[0] {
			t.Fatalf("routed batch left the caller's vector (err %v)", err)
		}
	})
	t.Logf("DistanceBatch: %.1f allocs/op routed, %.1f direct", routed, base)
	if routed > base+2 {
		t.Errorf("Router.DistanceBatch: %.1f allocs/op against %.1f direct, want at most +2", routed, base)
	}
}

// TestRouterOracle reads a 1-primary/2-follower cluster through the
// router, point and batch, against BFS truth after routed writes. The
// followers are listed as two inner slices: flattening them must answer
// exactly, one member call per read.
func TestRouterOracle(t *testing.T) {
	g, ix := testIndex(t, 250)
	fA, fB := startFollower(t, ""), startFollower(t, "")
	defer fA.stop()
	defer fB.stop()
	p := startPrimary(t, ix, filepath.Join(t.TempDir(), "edges.wal"), []string{fA.addr, fB.addr})
	defer p.stop()
	pn := startMember(t, p.srv, "")
	defer pn.kill()
	waitConverged(t, p, fA, fB)
	rt := testRouter(t, pn.addr, []string{fA.addr}, []string{fB.addr})
	if st := rt.Stats(); st.Members != 2 || !st.PrimaryUp {
		t.Fatalf("two one-member slices must give two members: %+v", st)
	}

	ctx := context.Background()
	n := int32(g.NumVertices())
	for i := int32(0); i < 12; i++ {
		if _, err := rt.InsertEdges(ctx, [][2]int32{{i, n - 1 - 3*i}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.DeleteEdges(ctx, [][2]int32{{0, n - 1}}); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, p, fA, fB)
	gNow, _, _, err := p.srv.FrozenState()
	if err != nil {
		t.Fatal(err)
	}

	pairs := oracle.SampledPairs(int(n), 400, 11)
	point := oracle.Func(func(s, u int32) int32 {
		d, err := rt.Distance(ctx, s, u)
		if err != nil {
			t.Errorf("routed read (%d,%d): %v", s, u, err)
		}
		return d
	})
	if err := oracle.Diff(gNow, point, pairs); err != nil {
		t.Fatalf("point reads through the router: %v", err)
	}
	got, err := rt.DistanceBatch(ctx, pairs, nil)
	if err != nil {
		t.Fatal(err)
	}
	byPair := make(map[[2]int32]int32, len(pairs))
	for i, pr := range pairs {
		byPair[pr] = got[i]
	}
	batch := oracle.Func(func(s, u int32) int32 { return byPair[[2]int32{s, u}] })
	if err := oracle.Diff(gNow, batch, pairs); err != nil {
		t.Fatalf("batch read through the router: %v", err)
	}
	if st := rt.Stats(); st.Fanout != st.Reads || st.Reads != int64(len(pairs))+1 || st.Errors != 0 {
		t.Fatalf("want one member call per read: %+v", st)
	}
}
