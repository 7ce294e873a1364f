package graph

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// parallelSlots is the number of adjacency slots below which the row passes
// — canonicalize's check and pack, InducedSubgraph's count and fill — stay
// on the calling goroutine. Measured on the 2-vCPU reference host, every
// caller forced serial and forced split on graphs of 2^13 to 2^22 slots
// (table in DESIGN.md, "How a CSR is built"): below 2^16 the split loses a
// tenth to a third for all of them, from 2^17 on none loses and the ones
// with work in them (unsorted rows, an induced subgraph) win a quarter to
// a half.
const parallelSlots = 1 << 17

// canonicalize is the one finishing kernel behind Builder.Build and
// InducedSubgraph. It takes a raw CSR — row v occupies
// targets[offsets[v]:offsets[v+1]], every entry in [0,n), in any order,
// possibly naming v itself or a neighbour twice — and returns the
// canonical graph: rows sorted ascending, self-loops and duplicates gone,
// arrays exactly as long as what is left (targets may keep up to an eighth
// of its capacity as slack behind its end). A row that arrives ascending
// (all of Build's, all of an ascending keep's) is only checked and, where
// it repeats a neighbour, closed up; any other row is sorted first. Rows
// are independent, so the row pass is split over GOMAXPROCS goroutines;
// the result does not depend on how. It takes ownership of both slices.
func canonicalize(offsets []int64, targets []int32) *Graph {
	n := len(offsets) - 1
	var freed atomic.Int64
	forRowRanges(n, offsets[n], func(lo, hi int) {
		f := 0
		for v := lo; v < hi; v++ {
			f += canonRow(int32(v), targets[offsets[v]:offsets[v+1]])
		}
		freed.Add(int64(f))
	})
	f := freed.Load()
	if f == 0 {
		return &Graph{offsets: offsets, targets: targets}
	}
	// Some rows shrank and marked their freed tail with -1: move the live
	// prefixes together. Where that frees fewer than an eighth of the slots
	// (R-MAT repeats about 6 % of the edges it draws) they move within the raw
	// array and the slack stays behind its end, which saves allocating and
	// faulting in a second array of nearly the same size. Where it frees
	// more (an edge list that lists both directions frees half) they move
	// into an array of exactly the final size, so a long-lived graph does
	// not carry the repeats' share of the raw array.
	packed := targets[:int64(len(targets))-f]
	if 8*f >= int64(len(targets)) {
		packed = make([]int32, len(packed))
	}
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

// canonRow makes v's row canonical — ascending, without v, without repeats
// — sorting it only if it is not ascending already, fills the slots that
// frees at the end of the row with -1 and returns how many there are.
func canonRow(v int32, row []int32) int {
	ascending, strict := true, true
	prev := int32(-1)
	for _, w := range row {
		if w < prev {
			ascending = false
			break
		}
		if w == prev || w == v {
			strict = false
		}
		prev = w
	}
	if ascending && strict {
		return 0
	}
	if !ascending {
		slices.Sort(row)
	}
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

// forRowRanges calls fn on vertex ranges [lo,hi) that together cover
// [0,n) exactly once, for passes whose work is in the rows they own. From
// parallelSlots slots on, GOMAXPROCS goroutines draw blocks of rowBlock
// vertices from a shared counter — degrees are skewed, so a block holding
// hub rows delays only the worker that drew it — and forRowRanges returns
// when all are done.
func forRowRanges(n int, slots int64, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers == 1 || slots < parallelSlots {
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
