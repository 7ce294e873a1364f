package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"highway/internal/hlclient"
	"highway/internal/serve"
	"highway/internal/wire"
)

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	// Primary is the binary address writes are forwarded to. Empty
	// makes the router read-only (writes answer Unavailable/503).
	Primary string
	// Shards lists the read replicas; inner slices are concatenated,
	// every member is a full replica. (The name and shape are kept for
	// callers that compile against them; a read goes to one member.)
	Shards [][]string
	// MaxBatch caps routed batches, mirroring serve.Config.MaxBatch
	// (serve.DefaultMaxBatch when 0).
	MaxBatch int
}

// healthInterval paces the member health loop; a probe may take four of
// them. A variable so the package's tests can change it; a router reads
// it once, in NewRouter.
var healthInterval = 500 * time.Millisecond

// memberClient is the client every member is dialed with: no retries
// and no breaker, because the router owns failure handling for the hop
// (the health loop, and read's ejection and failover). A member's
// Overloaded is relayed at once; the edge client retries it.
var memberClient = hlclient.Config{MaxRetries: -1, BreakerThreshold: -1}

// member is one routed endpoint: a lazily-dialed pooled client plus
// the health bit and in-flight gauge the read balancer keys on.
type member struct {
	addr     string
	cl       atomic.Pointer[hlclient.Client] // nil until the health loop dials it
	up       atomic.Bool
	inflight atomic.Int64
}

// client returns the member's client when the member is considered
// routable, else nil.
func (m *member) client() *hlclient.Client {
	if !m.up.Load() {
		return nil
	}
	return m.cl.Load()
}

// Router is the cluster's coordinator: it health-checks members,
// balances reads (one call to the least-inflight healthy replica) and
// forwards writes to the primary. It holds no graph state
// of its own, and no protocol code either: it is a serve.Backend, and
// the embedded serve.Frontend — the same one a Server listens with —
// gives it Handler, Serve, ServeBinary and the ListenAndServe family.
// A member's failure relays through serve.ErrorTable by its wire code,
// so a client sees the same status and code with or without the router
// in the path.
type Router struct {
	*serve.Frontend

	health  time.Duration // healthInterval when the router was made
	members []*member     // the read replicas
	primary *member       // nil when unconfigured
	probed  []*member     // members plus the primary: what the health loop dials and Close closes
	started time.Time

	fanout atomic.Int64 // member calls issued for reads: reads + failovers
	reads  atomic.Int64
	writes atomic.Int64
	errors atomic.Int64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewRouter builds a router and starts its health loop. Members are
// dialed lazily by the loop, so the router may start before (or
// survive) any of them.
func NewRouter(cfg RouterConfig) (*Router, error) {
	addrs := slices.Concat(cfg.Shards...)
	if len(addrs) == 0 {
		return nil, errors.New("cluster: router needs at least one read member")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = serve.DefaultMaxBatch
	}
	rt := &Router{health: healthInterval, started: time.Now()}
	rt.Frontend = serve.NewFrontend(rt, cfg.MaxBatch)
	rt.ctx, rt.cancel = context.WithCancel(context.Background())
	for _, a := range addrs {
		rt.members = append(rt.members, &member{addr: a})
	}
	rt.probed = rt.members
	if cfg.Primary != "" {
		rt.primary = &member{addr: cfg.Primary}
		rt.probed = append(slices.Clip(rt.members), rt.primary)
	}
	rt.wg.Add(1)
	go rt.healthLoop()
	return rt, nil
}

// Close stops the health loop and member connections.
func (rt *Router) Close() {
	rt.cancel()
	rt.wg.Wait()
	for _, m := range rt.probed {
		if cl := m.cl.Load(); cl != nil {
			cl.Close()
		}
	}
}

// probe health-checks every member once: undialed members get a dial
// attempt, dialed ones a ping, and the up bit tracks the result. One
// slow member must not stall the others, so the checks run side by side.
func (rt *Router) probe() {
	var wg sync.WaitGroup
	for _, m := range rt.probed {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(rt.ctx, rt.health*4)
			defer cancel()
			cl := m.cl.Load()
			if cl == nil {
				fresh, err := hlclient.Dial(ctx, m.addr, memberClient)
				if err != nil {
					m.up.Store(false)
					return
				}
				m.cl.Store(fresh)
				m.up.Store(true)
				return
			}
			m.up.Store(cl.Ping(ctx) == nil)
		}(m)
	}
	wg.Wait()
}

// healthLoop probes at start (the initial dial pass) and then every
// health interval until Close.
func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	rt.probe()
	t := time.NewTicker(rt.health)
	defer t.Stop()
	for {
		select {
		case <-rt.ctx.Done():
			return
		case <-t.C:
			rt.probe()
		}
	}
}

// pick selects the healthy member with the fewest in-flight requests
// and returns it with its client, or nil when no member is routable.
func pick(members []*member) (*member, *hlclient.Client) {
	var (
		best     *member
		bestCl   *hlclient.Client
		bestLoad int64
	)
	for _, m := range members {
		cl := m.client()
		if cl == nil {
			continue
		}
		if load := m.inflight.Load(); best == nil || load < bestLoad {
			best, bestCl, bestLoad = m, cl, load
		}
	}
	return best, bestCl
}

// read runs fn against the least-inflight healthy member on the
// caller's goroutine. Members are dialed without retries or breaker, so
// fn is one attempt: an error that is not a *wire.RemoteError (a dial,
// write or read failure) ejects that member until the next health probe
// and fails over to the next healthy one — at most one attempt per
// configured member. A remote error is the member's answer and surfaces
// as-is, and so does any error once the caller's ctx is done: a read
// whose caller gave up says nothing about the member.
func (rt *Router) read(ctx context.Context, fn func(cl *hlclient.Client) error) error {
	rt.reads.Add(1)
	for range rt.members {
		m, cl := pick(rt.members)
		if m == nil {
			break
		}
		m.inflight.Add(1)
		rt.fanout.Add(1)
		err := fn(cl)
		m.inflight.Add(-1)
		if err == nil {
			return nil
		}
		var re *wire.RemoteError
		if errors.As(err, &re) || ctx.Err() != nil {
			return err // not a routing failure
		}
		m.up.Store(false)
	}
	rt.errors.Add(1)
	return serve.ErrUnavailable
}

// Distance answers one exact query from one replica.
func (rt *Router) Distance(ctx context.Context, s, t int32) (d int32, err error) {
	d = -1 // what a failed read returns; the client does the same
	err = rt.read(ctx, func(cl *hlclient.Client) error {
		d, err = cl.Distance(ctx, s, t)
		return err
	})
	return d, err
}

// DistanceBatch answers a batch from one replica, which decodes into
// dst (reused when it has the capacity). The batch limit is the
// front-end's to enforce.
func (rt *Router) DistanceBatch(ctx context.Context, pairs [][2]int32, dst []int32) (out []int32, err error) {
	err = rt.read(ctx, func(cl *hlclient.Client) error {
		out, err = cl.DistanceBatch(ctx, pairs, dst) // nil on error
		return err
	})
	return out, err
}

// onPrimary runs one forwarded write against the primary.
func (rt *Router) onPrimary(fn func(cl *hlclient.Client) error) error {
	rt.writes.Add(1)
	if rt.primary == nil {
		return fmt.Errorf("%w: router has no primary configured", serve.ErrUnavailable)
	}
	cl := rt.primary.client()
	if cl == nil {
		rt.errors.Add(1)
		return fmt.Errorf("%w: primary %s is down", serve.ErrUnavailable, rt.primary.addr)
	}
	rt.primary.inflight.Add(1)
	defer rt.primary.inflight.Add(-1)
	return fn(cl)
}

// InsertEdges forwards a write batch to the primary.
func (rt *Router) InsertEdges(ctx context.Context, edges [][2]int32) (res serve.InsertResult, err error) {
	err = rt.onPrimary(func(cl *hlclient.Client) error {
		res, err = cl.InsertEdges(ctx, edges)
		return err
	})
	return res, err
}

// DeleteEdges forwards a deletion batch to the primary.
func (rt *Router) DeleteEdges(ctx context.Context, edges [][2]int32) (res serve.DeleteResult, err error) {
	err = rt.onPrimary(func(cl *hlclient.Client) error {
		res, err = cl.DeleteEdges(ctx, edges)
		return err
	})
	return res, err
}

// RouterStats is the "router" section of the router's /stats document.
type RouterStats struct {
	// Members is the configured read-member count.
	Members int `json:"members"`
	// MemberUp is the number of read members currently passing health
	// checks.
	MemberUp int `json:"member_up"`
	// PrimaryUp reports the write path's health (false when no primary
	// is configured).
	PrimaryUp bool `json:"primary_up"`
	// Fanout counts member calls issued for reads: one per read plus
	// one per failover.
	Fanout int64 `json:"fanout"`
	// Reads and Writes count routed client requests; Errors counts
	// requests that failed for want of a healthy member.
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
	Errors int64 `json:"errors"`
}

// Stats snapshots the router counters.
func (rt *Router) Stats() RouterStats {
	st := RouterStats{
		Members: len(rt.members),
		Fanout:  rt.fanout.Load(),
		Reads:   rt.reads.Load(),
		Writes:  rt.writes.Load(),
		Errors:  rt.errors.Load(),
	}
	for _, m := range rt.members {
		if m.up.Load() {
			st.MemberUp++
		}
	}
	if rt.primary != nil {
		st.PrimaryUp = rt.primary.up.Load()
	}
	return st
}

// Ready reports whether a read member is healthy — the condition under
// which reads are available.
func (rt *Router) Ready() bool {
	m, _ := pick(rt.members)
	return m != nil
}

// Readiness implements serve.Backend: /readyz is Ready.
func (rt *Router) Readiness() (any, bool) {
	if !rt.Ready() {
		return map[string]string{"status": "unready", "detail": "no healthy read member"}, false
	}
	return map[string]string{"status": "ready"}, true
}

// routerStatsDoc is the router's /stats shape: role marker, the router
// section, uptime and the front-end's per-endpoint counters — the last
// two named as in the serving stats document so generic scrapers can
// read both.
type routerStatsDoc struct {
	Role          string                         `json:"role"`
	Router        RouterStats                    `json:"router"`
	UptimeSeconds float64                        `json:"uptime_seconds"`
	Endpoints     map[string]serve.EndpointStats `json:"endpoints"`
}

// StatsDoc implements serve.Backend.
func (rt *Router) StatsDoc() any {
	uptime := time.Since(rt.started)
	return routerStatsDoc{
		Role:          "router",
		Router:        rt.Stats(),
		UptimeSeconds: uptime.Seconds(),
		Endpoints:     rt.EndpointStats(uptime),
	}
}
