package method

import "context"

// BatchSearcher is the optional vectorized-execution capability: a
// Searcher that answers many (s,t) pairs in one call, amortizing
// per-source work (label walks, bound vectors, traversal scratch)
// across pairs that share a source. Implementations must return exactly
// what pair-at-a-time Distance returns for every pair — batching is an
// execution strategy, never a semantics change — and must tolerate
// duplicate pairs, s==t, and pairs in any order.
//
// dst follows the append-style contract: when cap(dst) >= len(pairs)
// the answers are written into dst[:len(pairs)] and that slice is
// returned; otherwise a fresh slice is allocated. Like Searcher itself,
// a BatchSearcher is single-goroutine.
type BatchSearcher interface {
	Searcher
	DistanceBatch(pairs [][2]int32, dst []int32) []int32
}

// SourceSearcher is the one-source-to-many-targets form of the same
// capability (the extreme of source skew: one group, one shared label
// walk). Semantics and the dst contract match BatchSearcher.
type SourceSearcher interface {
	Searcher
	DistanceMany(source int32, targets []int32, dst []int32) []int32
}

// sizeDst returns dst resized to n answers, reusing its backing array
// when it has the capacity (the shared dst contract of the batch
// entry points).
func sizeDst(dst []int32, n int) []int32 {
	if cap(dst) < n {
		return make([]int32, n)
	}
	return dst[:n]
}

// DistanceBatch answers all pairs through sr's best available path:
// the vectorized executor when sr implements BatchSearcher, otherwise
// the pair-at-a-time loop. Every serving-layer batch entry point
// funnels through here, so a method opts its searcher into batching
// and the whole stack picks it up.
func DistanceBatch(sr Searcher, pairs [][2]int32, dst []int32) []int32 {
	if bs, ok := sr.(BatchSearcher); ok {
		return bs.DistanceBatch(pairs, dst)
	}
	dst = sizeDst(dst, len(pairs))
	for i, p := range pairs {
		dst[i] = sr.Distance(p[0], p[1])
	}
	return dst
}

// DistanceMany answers source-to-targets through sr's best available
// path (SourceSearcher, then BatchSearcher-free pair loop).
func DistanceMany(sr Searcher, source int32, targets []int32, dst []int32) []int32 {
	if ss, ok := sr.(SourceSearcher); ok {
		return ss.DistanceMany(source, targets, dst)
	}
	dst = sizeDst(dst, len(targets))
	for i, t := range targets {
		dst[i] = sr.Distance(source, t)
	}
	return dst
}

// CancelCheckEvery is the pair granularity at which the context-aware
// batch path polls for cancellation: a cancelled context stops an
// in-flight batch within about this many pairs.
const CancelCheckEvery = 1024

// DistanceBatchContext is the cancellable form of DistanceBatch: it
// dispatches the batch in CancelCheckEvery-pair chunks, checking ctx
// between chunks, and returns ctx.Err() (with dst truncated to the
// answers already computed) as soon as cancellation is observed. Chunks
// are dispatched through DistanceBatch, so vectorized executors are
// still used within each chunk.
func DistanceBatchContext(ctx context.Context, sr Searcher, pairs [][2]int32, dst []int32) ([]int32, error) {
	dst = sizeDst(dst, len(pairs))
	for off := 0; off < len(pairs); off += CancelCheckEvery {
		if err := ctx.Err(); err != nil {
			return dst[:off], err
		}
		end := off + CancelCheckEvery
		if end > len(pairs) {
			end = len(pairs)
		}
		DistanceBatch(sr, pairs[off:end], dst[off:end])
	}
	return dst, nil
}

// Capabilities records which optional interfaces an index (and the
// searchers it creates) satisfies. It is what the registry's
// capability discovery reports and what the serving layer logs.
type Capabilities struct {
	Batch  bool // NewSearcher returns a BatchSearcher
	Source bool // NewSearcher returns a SourceSearcher
}

// CapabilitiesOf probes ix: it creates one searcher and type-asserts
// the optional interfaces.
func CapabilitiesOf(ix DistanceIndex) Capabilities {
	sr := ix.NewSearcher()
	_, batch := sr.(BatchSearcher)
	_, source := sr.(SourceSearcher)
	return Capabilities{Batch: batch, Source: source}
}

// String renders the capability set in the compact form the CLIs print
// ("batch,source", or "none").
func (c Capabilities) String() string {
	out := ""
	add := func(name string, on bool) {
		if !on {
			return
		}
		if out != "" {
			out += ","
		}
		out += name
	}
	add("batch", c.Batch)
	add("source", c.Source)
	if out == "" {
		return "none"
	}
	return out
}
