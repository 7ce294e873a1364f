package graph

import "math/bits"

// LargestComponent returns the induced subgraph of the largest connected
// component (ties to the smallest least vertex; a connected g as it is)
// and the mapping from new ids to original ids. The paper assumes
// connected graphs (Section 2). Components are swept from the hub, then
// from the least vertex not yet reached, until the largest holds more
// vertices than are left. A kept vertex's new id is its rank among the
// component's bits, so each kept row is its old row renumbered, sorted.
func LargestComponent(g *Graph) (*Graph, []int32) {
	n := g.NumVertices()
	seen, stack := make([]uint64, (n+63)/64), make([]int32, 0, n/32+1)
	_, hub := g.MaxDegree()
	size := n
	if hub >= 0 {
		size = sweep(g, seen, stack, hub)
	}
	if size == n {
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
		return g, ids
	}
	best, bestSize, bestLeast, left := hub, size, firstFrom(seen, 0, 0), n-size
	for v := int32(0); bestSize <= left; {
		v = firstFrom(seen, v, ^uint64(0)) // every vertex below v is reached: v is its component's least
		size := sweep(g, seen, stack, v)
		if left -= size; size > bestSize || size == bestSize && v < bestLeast {
			best, bestSize, bestLeast = v, size, v
		}
	}
	if n-left > bestSize {
		clear(seen)
		sweep(g, seen, stack, best)
	}
	ranks := make([]int32, len(seen)) // the kept vertices below each word
	ids := make([]int32, 0, bestSize)
	offsets := make([]int64, bestSize+1)
	for i, x := range seen {
		ranks[i] = int32(len(ids))
		for ; x != 0; x &= x - 1 {
			v := int32(i*64 + bits.TrailingZeros64(x))
			offsets[len(ids)+1] = offsets[len(ids)] + int64(g.Degree(v))
			ids = append(ids, v)
		}
	}
	targets := make([]int32, offsets[bestSize])
	forRowRanges(bestSize, offsets[bestSize], func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := targets[offsets[i]:offsets[i+1]]
			for j, w := range g.Neighbors(ids[i]) {
				row[j] = ranks[w>>6] + int32(bits.OnesCount64(seen[w>>6]&(1<<(w&63)-1)))
			}
		}
	})
	return &Graph{offsets: offsets, targets: targets}, ids
}

// IsConnected reports whether the graph has at most one connected component.
func IsConnected(g *Graph) bool {
	_, hub := g.MaxDegree()
	n := g.NumVertices()
	return hub < 0 || sweep(g, make([]uint64, (n+63)/64), make([]int32, 0, n/32+1), hub) == n
}

// firstFrom returns the least vertex from v on whose bit in seen is set, or
// clear when flip is all ones.
func firstFrom(seen []uint64, v int32, flip uint64) int32 {
	i := int(v >> 6)
	x := (seen[i] ^ flip) >> (v & 63) << (v & 63)
	for ; x == 0; x = seen[i] ^ flip {
		i++
	}
	return int32(i*64 + bits.TrailingZeros64(x))
}

// sweep marks in seen every vertex that src, unmarked, reaches and returns
// how many. It expands a stack top-down until the stack would outgrow its
// capacity, then passes bottom-up, marking in id order every unmarked
// vertex with a marked neighbour. Only a vertex a pass marked can then have
// an unmarked neighbour, so a pass whose marks fit on the stack hands them
// to top-down, and one that marks none ends the sweep. A pass follows a
// phase that marked more than the stack's n/32: at most about 64 passes.
func sweep(g *Graph, seen []uint64, stack []int32, src int32) int {
	off, tgt, n := g.offsets, g.targets, g.NumVertices()
	seen[src>>6] |= 1 << (src & 63)
	marked, stack, full, before := 1, append(stack[:0], src), false, 0
	for {
		for len(stack) > 0 && !full {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range tgt[off[v]:off[v+1]] {
				if seen[w>>6]>>(w&63)&1 == 0 {
					if full = len(stack) == cap(stack); full {
						break
					}
					seen[w>>6] |= 1 << (w & 63)
					stack, marked = append(stack, w), marked+1
				}
			}
		}
		if !full {
			return marked
		}
		stack, full, before = stack[:0], false, marked
		for i, x := range seen {
			open := ^x
			if i == len(seen)-1 && n&63 != 0 {
				open &= 1<<(n&63) - 1
			}
			for ; open != 0; open &= open - 1 {
				v := int32(i*64 + bits.TrailingZeros64(open))
				for _, w := range tgt[off[v]:off[v+1]] {
					if seen[w>>6]>>(w&63)&1 != 0 {
						seen[i] |= 1 << (v & 63)
						if full, marked = full || len(stack) == cap(stack), marked+1; !full {
							stack = append(stack, v)
						}
						break
					}
				}
			}
		}
		if marked == before {
			return marked
		}
	}
}
