// Package method defines the method-agnostic surface every distance
// labelling in this repository implements: the DistanceIndex interface
// (exact queries, label upper bounds, per-goroutine searchers, summary
// statistics), the Searcher interface its NewSearcher returns, and the
// generic Stats record.
//
// The five labellings — the paper's highway cover labelling
// (internal/core), its dynamic extension (internal/dynhl) and the three
// baselines it evaluates against (internal/pll, internal/fd,
// internal/isl) — all satisfy DistanceIndex, which is what lets the
// differential-test harness (internal/oracle) and the benchmark runner
// (internal/bench) query and measure each of them the same way, whichever
// package built it. Only the highway cover labelling
// is saved, loaded and served: the baselines exist for the build time,
// query time and label size columns of the paper's tables. The server
// (internal/serve) therefore holds a *core.Index and answers batches with
// core's own executor, so this package defines no batch surface.
//
// This package sits below every labelling package in the dependency
// graph (it imports none of them), so each can assert conformance with
// a compile-time check:
//
//	var _ method.DistanceIndex = (*Index)(nil)
package method

import "fmt"

// Infinity is the distance every method reports for disconnected
// vertex pairs (== core.Infinity == bfs.Unreachable).
const Infinity int32 = -1

// Searcher answers queries against one immutable index state using
// private scratch. A Searcher is not safe for concurrent use; create
// one per querying goroutine with DistanceIndex.NewSearcher.
type Searcher interface {
	// Distance returns the exact hop distance between s and t, or
	// Infinity if they are disconnected.
	Distance(s, t int32) int32
	// UpperBound returns a label-derived upper bound on the distance
	// (Infinity when the labels certify nothing). Methods whose labels
	// already answer queries exactly return the exact distance.
	UpperBound(s, t int32) int32
}

// DistanceIndex is the one interface every labelling method exposes:
// an exact distance oracle over a fixed vertex set that can summarize
// itself. Implementations are safe for concurrent readers. The one that
// also accepts edge updates (internal/dynhl) does not synchronize them:
// a caller serializes an update with every other call on the index. Its
// searchers and frozen snapshots are bound to the immutable state they
// were taken from and stay usable across updates.
type DistanceIndex interface {
	// Distance returns the exact hop distance between s and t, or
	// Infinity if disconnected. This is the pooled/allocating
	// convenience; hot query loops should use NewSearcher.
	Distance(s, t int32) int32
	// UpperBound returns the method's label-derived upper bound
	// (see Searcher.UpperBound).
	UpperBound(s, t int32) int32
	// NewSearcher returns a fresh per-goroutine query searcher.
	NewSearcher() Searcher
	// Stats summarizes the index (method name, sizes, entry counts).
	Stats() Stats
}

// Stats summarizes an index for logs, the bench harness and the
// serving /stats endpoint. Method-specific measures that do not apply
// are zero: only the highway cover labelling fills Bytes32/Bytes8
// (the paper's two HL accountings), only the bit-parallel builds fill
// BPTrees.
type Stats struct {
	// Method names the method that built the index ("hl", "pll", "fd",
	// "isl", "dynhl").
	Method string

	NumVertices  int
	NumEdges     int64
	NumLandmarks int   // landmark/root count; 0 where the concept does not apply
	NumEntries   int64 // size(L) = Σ_v |L(v)|, the paper's labelling size
	AvgLabelSize float64
	MaxLabelSize int

	// SizeBytes is the labelling size under the paper's per-method
	// accounting (what Tables 2-3 report).
	SizeBytes int64
	// BPTrees counts bit-parallel trees (PLL's "+50", FD's "+64").
	BPTrees int

	// Bytes32 and Bytes8 are the highway cover labelling's two
	// accountings (Table 3's "HL" and "HL(8)"); zero for other methods.
	Bytes32 int64
	Bytes8  int64
}

// String renders the stats in the log format the CLIs print. The
// leading fields are format-stable (hlbuild/hlserve output is scripted
// against); the hl=/hl8= accountings appear only where they apply.
func (s Stats) String() string {
	out := fmt.Sprintf("n=%d m=%d k=%d entries=%d als=%.2f maxls=%d",
		s.NumVertices, s.NumEdges, s.NumLandmarks, s.NumEntries, s.AvgLabelSize, s.MaxLabelSize)
	if s.Bytes32 > 0 || s.Bytes8 > 0 {
		out += fmt.Sprintf(" hl=%dB hl8=%dB", s.Bytes32, s.Bytes8)
	} else if s.SizeBytes > 0 {
		out += fmt.Sprintf(" size=%dB", s.SizeBytes)
	}
	return out
}
