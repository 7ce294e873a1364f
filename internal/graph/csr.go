package graph

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// parallelRowSlots is the number of adjacency slots below which
// canonicalize stays on the calling goroutine. Measured on the 2-vCPU
// reference host by building uniform random graphs of 2^11 to 2^20 slots
// with the row pass forced serial and forced split (table in DESIGN.md,
// "How a CSR is built"): the two stay within a tenth of each other up to
// 2^14 slots and the split pass wins from 2^15 on.
const parallelRowSlots = 1 << 15

// canonicalize is the one construction kernel behind Builder.Build,
// FromAdjacency and InducedSubgraph. It takes a raw CSR — row v occupies
// targets[offsets[v]:offsets[v+1]], every entry in [0,n), in any order,
// possibly naming v itself or a neighbour twice — and returns the
// canonical graph: rows sorted ascending, self-loops and duplicates gone,
// arrays exactly as long as what is left. Rows are independent, so the
// sorting pass is split over GOMAXPROCS goroutines; the result does not
// depend on how. It takes ownership of both slices.
func canonicalize(offsets []int64, targets []int32) *Graph {
	n := len(offsets) - 1
	var freed atomic.Int64
	forRowRanges(offsets, func(lo, hi int) {
		f := 0
		for v := lo; v < hi; v++ {
			f += canonRow(int32(v), targets[offsets[v]:offsets[v+1]])
		}
		freed.Add(int64(f))
	})
	if freed.Load() == 0 {
		return &Graph{offsets: offsets, targets: targets}
	}
	// Some rows shrank and marked their freed tail with -1: move the live
	// prefixes into an array of exactly the final size, so a long-lived
	// graph does not carry the duplicates' share of the raw array.
	packed := make([]int32, int64(len(targets))-freed.Load())
	p := int64(0)
	for v := 0; v < n; v++ {
		row := targets[offsets[v]:offsets[v+1]]
		offsets[v] = p
		for _, w := range row {
			if w < 0 {
				break
			}
			packed[p] = w
			p++
		}
	}
	offsets[n] = p
	return &Graph{offsets: offsets, targets: packed}
}

// canonRow sorts v's row unless it is already canonical, drops v itself and
// repeated neighbours, fills the slots that frees at the end of the row
// with -1 and returns how many there are.
func canonRow(v int32, row []int32) int {
	canonical := true
	prev := int32(-1)
	for _, w := range row {
		if w <= prev || w == v {
			canonical = false
			break
		}
		prev = w
	}
	if canonical {
		return 0
	}
	slices.Sort(row)
	k := 0
	for _, w := range row {
		if w == v || (k > 0 && row[k-1] == w) {
			continue
		}
		row[k] = w
		k++
	}
	for i := k; i < len(row); i++ {
		row[i] = -1
	}
	return len(row) - k
}

// forRowRanges calls fn on vertex ranges [lo,hi) that together cover every
// row exactly once. Above parallelRowSlots, GOMAXPROCS goroutines draw
// blocks of rowBlock vertices from a shared counter — degrees are skewed,
// so a block holding hub rows delays only the worker that drew it — and
// forRowRanges returns when all are done.
func forRowRanges(offsets []int64, fn func(lo, hi int)) {
	n := len(offsets) - 1
	workers := runtime.GOMAXPROCS(0)
	if workers == 1 || offsets[n] < parallelRowSlots {
		fn(0, n)
		return
	}
	const rowBlock = 1024
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(rowBlock)) - rowBlock
				if lo >= n {
					return
				}
				fn(lo, min(lo+rowBlock, n))
			}
		}()
	}
	wg.Wait()
}
