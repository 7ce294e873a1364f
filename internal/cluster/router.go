package cluster

import (
	"context"
	"errors"
	"fmt"
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
	// Shards lists the read members, one inner slice per
	// landmark-partitioned shard; replica-set mode is a single shard
	// listing every follower. A read query fans out to one healthy
	// member per shard and merges the per-shard distances elementwise
	// with min (-1 = unreachable): each shard's labelling covers a
	// disjoint landmark subset, so every shard answer is an upper bound
	// witnessed by its own landmarks and the minimum over all shards is
	// the exact distance.
	Shards [][]string
	// HealthInterval paces the member health loop
	// (DefaultHealthInterval when 0).
	HealthInterval time.Duration
	// MaxBatch caps batch fan-outs, mirroring serve.Config.MaxBatch
	// (serve.DefaultMaxBatch when 0).
	MaxBatch int
	// ShutdownGrace bounds listener drain on shutdown
	// (serve.DefaultShutdownGrace when 0).
	ShutdownGrace time.Duration
	// Client configures the pooled client dialed to every member.
	Client hlclient.Config
}

// DefaultHealthInterval is the member health-check cadence when
// RouterConfig.HealthInterval is zero.
const DefaultHealthInterval = 500 * time.Millisecond

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
// balances reads (least-inflight per shard, exact min-merge across
// shards) and forwards writes to the primary. It holds no graph state
// of its own, and no protocol code either: it is a serve.Backend, and
// the embedded serve.Frontend — the same one a Server listens with —
// gives it Handler, Serve, ServeBinary and the ListenAndServe family.
// A member's failure relays through serve.ErrorTable by its wire code,
// so a client sees the same status and code with or without the router
// in the path.
type Router struct {
	*serve.Frontend

	cfg     RouterConfig
	shards  [][]*member
	primary *member // nil when unconfigured
	started time.Time

	fanout atomic.Int64 // member sub-requests issued for reads
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
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: router needs at least one shard")
	}
	for i, s := range cfg.Shards {
		if len(s) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no members", i)
		}
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = serve.DefaultMaxBatch
	}
	if cfg.ShutdownGrace <= 0 {
		cfg.ShutdownGrace = serve.DefaultShutdownGrace
	}
	rt := &Router{cfg: cfg, started: time.Now()}
	rt.Frontend = serve.NewFrontend(rt, cfg.MaxBatch, cfg.ShutdownGrace)
	rt.ctx, rt.cancel = context.WithCancel(context.Background())
	for _, addrs := range cfg.Shards {
		shard := make([]*member, len(addrs))
		for i, a := range addrs {
			shard[i] = &member{addr: a}
		}
		rt.shards = append(rt.shards, shard)
	}
	if cfg.Primary != "" {
		rt.primary = &member{addr: cfg.Primary}
	}
	rt.wg.Add(1)
	go rt.healthLoop()
	return rt, nil
}

// Close stops the health loop and member connections.
func (rt *Router) Close() {
	rt.cancel()
	rt.wg.Wait()
	for _, m := range rt.members() {
		if cl := m.cl.Load(); cl != nil {
			cl.Close()
		}
	}
}

// members returns every member including the primary (for the health
// loop and Close).
func (rt *Router) members() []*member {
	var all []*member
	for _, shard := range rt.shards {
		all = append(all, shard...)
	}
	if rt.primary != nil {
		all = append(all, rt.primary)
	}
	return all
}

// healthLoop probes every member each interval: undailed members get a
// dial attempt, dialed ones a ping, and the up bit tracks the result.
// One slow member must not stall the others, so probes fan out.
func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	probe := func() {
		var wg sync.WaitGroup
		for _, m := range rt.members() {
			wg.Add(1)
			go func(m *member) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(rt.ctx, rt.cfg.HealthInterval*4)
				defer cancel()
				cl := m.cl.Load()
				if cl == nil {
					fresh, err := hlclient.Dial(ctx, m.addr, rt.cfg.Client)
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
	probe() // initial dial pass before the first tick
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.ctx.Done():
			return
		case <-t.C:
			probe()
		}
	}
}

// pick selects the healthy member with the fewest in-flight requests
// in one shard, passing over those in skip, or nil when none is left.
func pick(shard []*member, skip map[*member]bool) *member {
	var best *member
	var bestLoad int64
	for _, m := range shard {
		if skip[m] || m.client() == nil {
			continue
		}
		if load := m.inflight.Load(); best == nil || load < bestLoad {
			best, bestLoad = m, load
		}
	}
	return best
}

// mergeDist folds one shard's answer into the running exact distance:
// -1 is Infinity, otherwise min.
func mergeDist(a, b int32) int32 {
	if a == -1 {
		return b
	}
	if b == -1 || a <= b {
		return a
	}
	return b
}

// onShard runs fn against the chosen member of one shard, failing over
// once through the shard's remaining healthy members on transport-ish
// errors (ErrCircuitOpen, connection failures). Remote errors are the
// member's deterministic answer and surface as-is.
func (rt *Router) onShard(shard []*member, fn func(cl *hlclient.Client) error) error {
	tried := make(map[*member]bool, len(shard))
	for {
		m := pick(shard, tried)
		if m == nil {
			rt.errors.Add(1)
			return serve.ErrUnavailable
		}
		tried[m] = true
		cl := m.client()
		if cl == nil {
			continue
		}
		m.inflight.Add(1)
		rt.fanout.Add(1)
		err := fn(cl)
		m.inflight.Add(-1)
		if err == nil {
			return nil
		}
		var re *wire.RemoteError
		if errors.As(err, &re) {
			return err // deterministic remote answer: not a routing failure
		}
		m.up.Store(false) // transport failure: eject until the next probe
	}
}

// fanOut runs fn against one member of every shard concurrently (fn
// gets the shard's index to file its answer under) and returns the
// first shard's error: exactness needs every shard's answer.
func (rt *Router) fanOut(fn func(i int, cl *hlclient.Client) error) error {
	rt.reads.Add(1)
	errs := make([]error, len(rt.shards))
	var wg sync.WaitGroup
	for i, shard := range rt.shards {
		wg.Add(1)
		go func(i int, shard []*member) {
			defer wg.Done()
			errs[i] = rt.onShard(shard, func(cl *hlclient.Client) error { return fn(i, cl) })
		}(i, shard)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Distance answers one exact query by fanning out to one member per
// shard and min-merging.
func (rt *Router) Distance(ctx context.Context, s, t int32) (int32, error) {
	results := make([]int32, len(rt.shards))
	err := rt.fanOut(func(i int, cl *hlclient.Client) (err error) {
		results[i], err = cl.Distance(ctx, s, t)
		return err
	})
	if err != nil {
		return -1, err
	}
	d := int32(-1)
	for _, r := range results {
		d = mergeDist(d, r)
	}
	return d, nil
}

// DistanceBatch answers a batch by fanning the whole batch to one
// member per shard and min-merging elementwise into dst (reused when it
// has the capacity). The batch limit is the front-end's to enforce.
func (rt *Router) DistanceBatch(ctx context.Context, pairs [][2]int32, dst []int32) ([]int32, error) {
	results := make([][]int32, len(rt.shards))
	err := rt.fanOut(func(i int, cl *hlclient.Client) (err error) {
		results[i], err = cl.DistanceBatch(ctx, pairs, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	if cap(dst) < len(pairs) {
		dst = make([]int32, len(pairs))
	}
	dst = dst[:len(pairs)]
	for i := range dst {
		dst[i] = -1
	}
	for _, res := range results {
		for j, d := range res {
			dst[j] = mergeDist(dst[j], d)
		}
	}
	return dst, nil
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
	// Shards is the configured shard count (1 = plain replica set).
	Shards int `json:"shards"`
	// Members is the configured read-member count across shards.
	Members int `json:"members"`
	// MemberUp is the number of read members currently passing health
	// checks.
	MemberUp int `json:"member_up"`
	// PrimaryUp reports the write path's health (false when no primary
	// is configured).
	PrimaryUp bool `json:"primary_up"`
	// Fanout counts member sub-requests issued for reads — with S
	// shards it advances S per query, so fanout/reads exposes the
	// amplification factor.
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
		Shards: len(rt.shards),
		Fanout: rt.fanout.Load(),
		Reads:  rt.reads.Load(),
		Writes: rt.writes.Load(),
		Errors: rt.errors.Load(),
	}
	for _, shard := range rt.shards {
		st.Members += len(shard)
		for _, m := range shard {
			if m.up.Load() {
				st.MemberUp++
			}
		}
	}
	if rt.primary != nil {
		st.PrimaryUp = rt.primary.up.Load()
	}
	return st
}

// Ready reports whether every shard has at least one healthy member —
// the condition under which reads are exact and available.
func (rt *Router) Ready() bool {
	for _, shard := range rt.shards {
		if pick(shard, nil) == nil {
			return false
		}
	}
	return true
}

// Readiness implements serve.Backend: /readyz is Ready.
func (rt *Router) Readiness() (any, bool) {
	if !rt.Ready() {
		return map[string]string{"status": "unready", "detail": "a shard has no healthy member"}, false
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
