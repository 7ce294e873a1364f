package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"highway/internal/cluster"
	"highway/internal/core"
	"highway/internal/hlclient"
	"highway/internal/serve"
)

// rawClient is the client configuration of every measured connection:
// one pooled connection, and no retry layer or breaker, so a shed or a
// failure is observed (and counted as failed) rather than smoothed over.
var rawClient = hlclient.Config{PoolSize: 1, MaxRetries: -1, BreakerThreshold: -1}

func dial(addr string) *hlclient.Client {
	return must(hlclient.Dial(context.Background(), addr, rawClient))
}

// listenOn serves on a fresh loopback port and returns the address and
// a stop function that waits for the serve loop to return.
func listenOn(serveFn func(context.Context, net.Listener) error) (string, func()) {
	ln := must(net.Listen("tcp", "127.0.0.1:0"))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The error of a serve loop stopped by its own context is not news.
		_ = serveFn(ctx, ln)
	}()
	return ln.Addr().String(), func() { cancel(); <-done }
}

// keepAliveHTTP is one HTTP client holding one keep-alive connection.
func keepAliveHTTP() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
}

// liveConfig is the live-server configuration of the write workloads:
// the zero serve.Config, and both rebuild triggers disabled so the
// landmark set stays fixed and the byte-identity gates are meaningful.
func liveConfig(wal *serve.WAL) serve.LiveConfig {
	return serve.LiveConfig{WAL: wal, RebuildThreshold: -1, RebuildGrowth: 1}
}

// stack is everything a workload's set-up starts on top of its fixture:
// servers, listeners and dialed clients. close stops all of it and
// waits.
type stack struct {
	fx  *fixture
	dir string // this set-up's files: graph, index, WAL

	srv      *serve.Server // read-only, or the live server / primary
	binAddr  string
	httpAddr string
	bin      []*hlclient.Client
	web      []*http.Client
	cl       *clusterStack

	closers []func()
}

func (st *stack) live() bool { return st.srv != nil && st.srv.LiveStats() != nil }

func (st *stack) onClose(fn func()) { st.closers = append(st.closers, fn) }

func (st *stack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
	st.closers = nil
}

func (st *stack) dial(addr string) *hlclient.Client {
	cl := dial(addr)
	st.onClose(func() { cl.Close() })
	return cl
}

func (st *stack) graphPath() string { return filepath.Join(st.dir, "graph.hwg") }
func (st *stack) indexPath() string { return filepath.Join(st.dir, "index.v2") }
func (st *stack) walPath() string   { return filepath.Join(st.dir, "edges.wal") }

// startStack starts what e.wl serves from: nothing for the offline
// workload, a read-only server with both listeners for the read
// workloads, a WAL-backed live server for churn, and a primary, two
// followers and a router for the cluster.
func startStack(e *env, fx *fixture) *stack {
	st := &stack{fx: fx, dir: filepath.Join(e.tmpDir, fmt.Sprintf("cycle%d", e.cycle))}
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		fatal(err)
	}
	switch e.wl.Name {
	case "offline-rmat":
	case "point-ba", "batch-ba":
		st.srv = serve.New(fx.ix, serve.Config{})
		st.serveBoth()
		st.bin = []*hlclient.Client{st.dial(st.binAddr), st.dial(st.binAddr)}
		st.web = []*http.Client{keepAliveHTTP(), keepAliveHTTP()}
		st.onClose(func() {
			for _, c := range st.web {
				c.CloseIdleConnections()
			}
		})
	case "churn-ba20k":
		st.startLive()
		st.bin = []*hlclient.Client{st.dial(st.binAddr), st.dial(st.binAddr)}
	case "cluster-ba20k":
		st.persist()
		st.cl = startCluster(fx.ix, st.walPath())
		st.srv = st.cl.primary
		st.onClose(st.cl.close)
		st.bin = []*hlclient.Client{st.dial(st.cl.routerAddr), st.dial(st.cl.routerAddr)}
	default:
		panic("benchmark: no stack for workload " + e.wl.Name)
	}
	return st
}

func (st *stack) serveBoth() {
	var stopBin, stopHTTP func()
	st.binAddr, stopBin = listenOn(st.srv.ServeBinary)
	st.httpAddr, stopHTTP = listenOn(st.srv.Serve)
	st.onClose(func() { stopBin(); stopHTTP(); st.srv.Close() })
}

// persist writes the fixture's graph and index where a restart finds them.
func (st *stack) persist() {
	if err := st.fx.g.SaveBinary(st.graphPath()); err != nil {
		fatal(err)
	}
	if err := st.fx.ix.SaveAs(st.indexPath(), core.FormatV2); err != nil {
		fatal(err)
	}
}

// startLive persists the fixture and starts a WAL-backed live server on
// it, the way hlserve does.
func (st *stack) startLive() {
	st.persist()
	wal := must(serve.OpenWAL(st.walPath()))
	st.srv = must(serve.NewLive(st.fx.ix, liveConfig(wal)))
	var stop func()
	st.binAddr, stop = listenOn(st.srv.ServeBinary)
	st.onClose(func() { stop(); st.srv.Close() })
}

// clusterStack is 1 primary (shipper + live server + WAL), 2 followers
// and a router, all in this process on loopback, wired as in
// internal/cluster's chaos test.
type clusterStack struct {
	primary   *serve.Server
	shipper   *cluster.Shipper
	followers []*cluster.Follower
	router    *cluster.Router

	primaryAddr   string
	routerAddr    string
	followerAddrs []string

	stops []func()
}

const clusterFollowers = 2

func startCluster(ix *core.Index, walPath string) *clusterStack {
	c := &clusterStack{}
	for i := 0; i < clusterFollowers; i++ {
		f := must(cluster.NewFollower(serve.Config{}))
		addr, stop := listenOn(f.Server().ServeBinary)
		c.followers = append(c.followers, f)
		c.followerAddrs = append(c.followerAddrs, addr)
		c.stops = append(c.stops, func() { stop(); f.Server().Close() })
	}
	gen := must(cluster.NextGeneration(walPath + ".gen"))
	wal := must(serve.OpenWAL(walPath))
	c.shipper = cluster.NewShipper(cluster.ShipperConfig{Followers: c.followerAddrs})
	cfg := liveConfig(wal)
	cfg.EpochBase = cluster.EpochBase(gen)
	cfg.OnCommit = c.shipper.OnCommit
	c.primary = must(serve.NewLive(ix, cfg))
	c.shipper.Start(c.primary)
	c.primary.SetReplicationStats(c.shipper.Stats)
	var stopPrimary func()
	c.primaryAddr, stopPrimary = listenOn(c.primary.ServeBinary)
	c.stops = append(c.stops, func() { c.shipper.Close(); stopPrimary(); c.primary.Close() })

	c.router = must(cluster.NewRouter(cluster.RouterConfig{Primary: c.primaryAddr, Shards: [][]string{c.followerAddrs}}))
	var stopRouter func()
	c.routerAddr, stopRouter = listenOn(c.router.ServeBinary)
	c.stops = append(c.stops, func() { stopRouter(); c.router.Close() })

	c.waitVisible(c.primary.Epoch())
	for !c.router.Ready() || !c.router.Stats().PrimaryUp || c.router.Stats().MemberUp < clusterFollowers {
		time.Sleep(200 * time.Microsecond)
	}
	return c
}

// waitVisible blocks until every follower is bootstrapped and its
// durable epoch has reached epoch. It yields between polls: the
// followers need the cores this goroutine would otherwise spin on.
func (c *clusterStack) waitVisible(epoch uint64) {
	deadline := time.Now().Add(30 * time.Second)
	for _, f := range c.followers {
		for f.Epoch() < epoch || !f.Stats().Bootstrapped {
			if time.Now().After(deadline) {
				fatal(fmt.Errorf("follower stuck at epoch %d, want %d", f.Epoch(), epoch))
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}

func (c *clusterStack) close() {
	for i := len(c.stops) - 1; i >= 0; i-- {
		c.stops[i]()
	}
}
