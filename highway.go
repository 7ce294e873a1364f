// Package highway is a Go implementation of the highway cover distance
// labelling of Farhan, Wang, Lin and McKay, "A Highly Scalable Labelling
// Approach for Exact Distance Queries in Complex Networks" (EDBT 2019):
// an exact shortest-path distance oracle for unweighted, undirected
// complex networks that combines a minimal, order-independent landmark
// labelling (built with one pruned BFS per landmark, optionally in
// parallel) with distance-bounded bidirectional search on the
// landmark-sparsified graph.
//
// # Quick start
//
//	g := highway.BarabasiAlbert(100_000, 5, 42)
//	landmarks, _ := highway.SelectLandmarks(g, 20)
//	ix, _ := highway.Build(ctx, g, landmarks, highway.BuildOptions{}) // parallel pruned BFSs
//	d := ix.Distance(12, 34)                                          // exact distance, -1 if disconnected
//
// For tight query loops create one Searcher per goroutine:
//
//	sr := ix.NewSearcher()
//	for _, q := range queries { _ = sr.Distance(q.S, q.T) }
//
// # Serving
//
// To serve an index to network clients, wrap it in a Server: pools of
// per-goroutine searchers behind an HTTP/JSON API with single and
// batched query endpoints, atomic latency/QPS counters at /stats, and
// graceful shutdown when the context is cancelled. The hlserve command
// is a thin CLI over the same machinery.
//
//	srv := highway.NewServer(ix, highway.ServeConfig{})
//	err := srv.ListenAndServe(ctx, ":8080")
//	// GET  /distance?s=12&t=34          -> {"s":12,"t":34,"distance":3}
//	// POST /distance/batch {"pairs":[[1,2],[3,4]]} -> {"count":2,"distances":[2,3]}
//
// For traffic that cannot afford the HTTP/1 + JSON protocol tax, the
// same Server also speaks a length-prefixed binary wire protocol
// (Server.ServeBinary; the frame format is specified in PROTOCOL.md),
// and Dial returns the native connection-pooled Client for it. Both
// listeners may run at once over the same snapshots and metrics:
//
//	go srv.ListenAndServeBinary(ctx, ":8081")
//	cl, _ := highway.Dial(ctx, "localhost:8081", highway.ClientConfig{})
//	d, _ := cl.Distance(ctx, 12, 34)                  // one framed round trip
//	ds, _ := cl.DistanceBatch(ctx, pairs, nil)        // thousands of pairs per round trip
//
// # Live updates
//
// A server built with NewLiveServer is the one updatable index: it
// additionally accepts edge insertions and deletions while serving.
// Reads stay lock-free against an atomically swapped immutable snapshot;
// each write batch re-runs the pruned BFS of the landmarks it dirtied,
// and only those, and publishes a fresh snapshot, which Server.Index
// returns. An optional write-ahead edge log
// (OpenWAL) makes acknowledged writes crash-durable — deletions are
// logged in the same file as one's-complement records — and once the
// log reaches a threshold length a background checkpoint persists the
// snapshot already being served and compacts the log; nothing is
// rebuilt. See DESIGN.md for the architecture and lifecycle.
//
//	wal, _ := highway.OpenWAL("edges.wal")
//	srv, _ := highway.NewLiveServer(ix, highway.LiveConfig{WAL: wal})
//	// POST   /edges {"edge":[12,34]}       -> {"accepted":1,"inserted":1,"epoch":1}
//	// POST   /edges {"edges":[[1,2],[3,4]]}
//	// DELETE /edges {"edge":[12,34]}       -> {"accepted":1,"deleted":1,"epoch":2}
//
// # Baselines
//
// The paper evaluates its labelling against PLL, FD and IS-L. Those are
// built and measured in memory by the experiment harness (cmd/hlbench),
// which calls their packages directly; this package builds, saves,
// loads and serves the highway cover labelling only.
package highway

import (
	"context"
	"io"

	"highway/internal/bfs"
	"highway/internal/core"
	"highway/internal/gen"
	"highway/internal/graph"
	"highway/internal/landmark"
	"highway/internal/method"
	"highway/internal/serve"
	"highway/internal/workload"
)

// Graph is an immutable undirected graph in CSR form. Construct one with
// NewBuilder, FromEdges or the generators, or load one with LoadEdgeList /
// LoadGraph.
type Graph = graph.Graph

// Builder accumulates undirected edges and produces a deduplicated Graph.
type Builder = graph.Builder

// Index is a highway cover distance labelling: the exact distance oracle
// of the paper. Build returns one.
type Index = core.Index

// Build constructs the highway cover labelling of g over landmarks
// (Algorithm 1): every landmark's pruned BFS runs in one traversal whose
// levels opt.Workers goroutines share, and the index is the same for
// every worker count. ctx cancels a long build.
func Build(ctx context.Context, g *Graph, landmarks []int32, opt BuildOptions) (*Index, error) {
	return core.BuildOpts(ctx, g, landmarks, opt)
}

// Searcher answers queries against an Index without per-query allocation;
// create one per goroutine with Index.Searcher.
type Searcher = core.Searcher

// DistanceIndex is the method-agnostic exact distance oracle: queries,
// label upper bounds, per-goroutine searchers and statistics.
// Server.Index returns the served index as one.
type DistanceIndex = method.DistanceIndex

// DistanceSearcher is the per-goroutine searcher Index.NewSearcher
// returns. The concrete Searcher (with Path and DistanceBatch, whose
// one-source batches are the one-to-many case) comes from Index.Searcher.
type DistanceSearcher = method.Searcher

// BuildOptions controls index construction (worker count, progress
// reporting).
type BuildOptions = core.Options

// BuildStats describes how an index was constructed: worker count and
// per-direction traversal work. Available via Index.BuildStats.
type BuildStats = core.BuildStats

// TraversalStats counts top-down vs bottom-up levels and edges scanned
// by the traversal engine.
type TraversalStats = bfs.TraversalStats

// IndexStats summarizes an Index (entry counts, sizes).
type IndexStats = core.Stats

// Pair is one (s,t) distance query, as produced by RandomPairs.
type Pair = workload.Pair

// Infinity is returned by Distance for disconnected vertex pairs.
const Infinity = core.Infinity

// MaxLandmarks is the largest supported landmark count.
const MaxLandmarks = core.MaxLandmarks

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph with n vertices from an explicit edge list.
func FromEdges(n int, edges [][2]int32) (*Graph, error) { return graph.FromEdges(n, edges) }

// LoadEdgeList reads a whitespace-separated text edge list ('#'/'%'
// comments allowed, SNAP/KONECT style).
func LoadEdgeList(path string) (*Graph, error) { return graph.LoadEdgeList(path) }

// LoadGraph reads a binary graph file written by SaveGraph.
func LoadGraph(path string) (*Graph, error) { return graph.LoadBinary(path) }

// SaveGraph writes the graph file: its CSR arrays as two checksummed
// sections of the container index files use, through a temporary file.
func SaveGraph(g *Graph, path string) error { return g.SaveBinary(path) }

// LargestComponent returns the induced subgraph of g's largest connected
// component and the mapping from new vertex ids to original ids. The
// labelling assumes connected inputs (paper Section 2); run this first on
// graphs that may be disconnected. On a graph whose highest-degree vertex
// lies in a component of more than half the vertices, as on every
// generated network, finding it takes one reachability sweep.
func LargestComponent(g *Graph) (*Graph, []int32) { return graph.LargestComponent(g) }

// Generators for synthetic networks (deterministic per seed).
//
// BarabasiAlbert yields scale-free social-network-like graphs; RMAT yields
// heavily skewed web-crawl-like graphs; ErdosRenyi and WattsStrogatz cover
// homogeneous and small-world baselines.
func BarabasiAlbert(n, k int, seed int64) *Graph { return gen.BarabasiAlbert(n, k, seed) }

// RMAT returns an R-MAT graph with 2^scale vertices and about
// edgeFactor*2^scale edges using the classic web skew (0.57,0.19,0.19,0.05).
func RMAT(scale uint, edgeFactor int, seed int64) *Graph {
	return gen.RMAT(scale, edgeFactor, 0.57, 0.19, 0.19, seed)
}

// ErdosRenyi returns a uniform random graph with n vertices and m edges.
func ErdosRenyi(n int, m int64, seed int64) *Graph { return gen.ErdosRenyi(n, m, seed) }

// WattsStrogatz returns a small-world ring lattice with rewiring
// probability beta.
func WattsStrogatz(n, k int, beta float64, seed int64) *Graph {
	return gen.WattsStrogatz(n, k, beta, seed)
}

// SelectLandmarks returns the k highest-degree vertices, rank 0 first
// (the paper's choice, Section 6.3); ties go to the lower vertex id.
func SelectLandmarks(g *Graph, k int) ([]int32, error) {
	return landmark.Select(g, landmark.Options{K: k})
}

// LoadIndex reads an index file written by Index.Save and attaches it to
// the graph it was built on. A file of an older layout fails with one line
// naming the `hlbuild migrate` that rewrites it.
func LoadIndex(path string, g *Graph) (*Index, error) { return core.Load(path, g) }

// ReadIndex reads an index as Index.Write streams it and attaches it to g;
// an older layout fails as in LoadIndex.
func ReadIndex(r io.Reader, g *Graph) (*Index, error) { return core.Read(r, g) }

// DistancesFrom returns the BFS distance from src to every vertex of g
// (-1 where unreachable), writing into buf (grown as needed) and
// returning it. It runs on the direction-optimizing traversal engine
// with pooled scratch: passing the previous result back as buf makes
// repeated sweeps allocation-free.
func DistancesFrom(g *Graph, src int32, buf []int32) []int32 {
	return bfs.DistancesReuse(g, src, buf)
}

// RandomPairs samples count (s,t) pairs uniformly from V×V; use for
// benchmarking query latency the way the paper does (100,000 pairs).
func RandomPairs(g *Graph, count int, seed int64) []Pair {
	return workload.RandomPairs(g, count, seed)
}

// Server is a concurrent distance-query server over one Index: a pool
// of per-goroutine searchers behind an HTTP/JSON API (single queries,
// batched queries, stats, health) and a streaming batch mode. All
// methods are safe for concurrent use. See the Serving section of the
// package documentation and cmd/hlserve.
type Server = serve.Server

// ServeConfig tunes a Server; the zero value is ready for use.
type ServeConfig = serve.Config

// NewServer returns a Server over ix.
func NewServer(ix *Index, cfg ServeConfig) *Server { return serve.New(ix, cfg) }

// LiveConfig tunes an updatable Server: the base ServeConfig plus the
// write-ahead log and the log length that triggers a checkpoint
// (RebuildThreshold). The zero value serves in-memory live updates: no
// log, so nothing to checkpoint.
type LiveConfig = serve.LiveConfig

// WAL is a write-ahead edge log: it makes acknowledged edge insertions
// and deletions durable (one fsync per accepted batch) and is replayed
// on startup.
type WAL = serve.WAL

// InsertResult reports one accepted update batch: edges accepted (and
// logged), edges actually new, and the snapshot epoch the batch became
// visible at.
type InsertResult = serve.InsertResult

// DeleteResult reports one accepted deletion batch: edges accepted (and
// logged), edges actually removed, and the snapshot epoch the batch
// became visible at.
type DeleteResult = serve.DeleteResult

// OpenWAL opens (creating if absent) a write-ahead edge log, truncating
// any torn tail left by a crash. Pass it to NewLiveServer via
// LiveConfig.WAL; the server takes ownership and closes it.
func OpenWAL(path string) (*WAL, error) { return serve.OpenWAL(path) }

// NewLiveServer returns an updatable Server seeded from ix: reads are
// answered lock-free from an immutable snapshot, InsertEdges and
// DeleteEdges (POST and DELETE /edges) mutations publish fresh
// snapshots, each exactly the labelling a from-scratch build would
// produce. If cfg.WAL is set, previously logged edges are replayed
// before the server starts answering, and a background checkpoint
// (snapshot next to the log, then log compaction) keeps the log under
// cfg.RebuildThreshold records. Call Server.Close on shutdown.
func NewLiveServer(ix *Index, cfg LiveConfig) (*Server, error) { return serve.NewLive(ix, cfg) }

// LoadLiveServer assembles a live server from files: the newest
// persisted state (a checkpoint's snapshot next to the WAL if
// present, else the base graph+index files), with the WAL replayed on
// top. This is the crash-recovery entry point behind "hlserve serve
// -wal".
func LoadLiveServer(graphPath, indexPath, walPath string, cfg LiveConfig) (*Server, error) {
	return serve.LoadLive(graphPath, indexPath, walPath, cfg)
}
