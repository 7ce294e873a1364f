// Package bptree implements bit-parallel shortest-path trees (Akiba,
// Iwata, Yoshida, SIGMOD 2013, Section 4.2): one BFS from a root r
// simultaneously computes distances from r *and* from up to 64 of r's
// neighbors, encoding the neighbors' relative distances (-1 or 0 with
// respect to d(r,v)) in two 64-bit masks per vertex.
//
// The paper's PLL configuration uses 50 such trees; its FD baseline uses
// one per landmark ("20+64"). Both baselines in this repository build on
// this package.
package bptree

import (
	"math"
	"math/bits"

	"highway/internal/graph"
)

// Tree is one bit-parallel shortest-path tree: for every vertex v,
//
//	Dist[v] = d(root, v)               (-1 = unreachable)
//	Sm1[v]  = { i in S : d(i,v) = d(root,v) - 1 }  as a bitmask
//	S0[v]   = { i in S : d(i,v) = d(root,v) }      as a bitmask
//
// where S holds up to 64 of the root's neighbors. Sm1 is exact; S0 may
// carry extra bits only where Sm1 already holds them, which cannot weaken
// Query's bound (the -2 case is checked first).
type Tree struct {
	Dist []int32
	Sm1  []uint64
	S0   []uint64
}

// Build runs the bit-parallel BFS from root, selecting up to 64 of its
// neighbors not yet marked in used as the bit set (and marking both the
// root and the selected neighbors).
func Build(g *graph.Graph, root int32, used []bool) *Tree {
	n := g.NumVertices()
	t := &Tree{
		Dist: make([]int32, n),
		Sm1:  make([]uint64, n),
		S0:   make([]uint64, n),
	}
	for i := range t.Dist {
		t.Dist[i] = -1
	}
	used[root] = true

	var members []int32
	for _, v := range g.Neighbors(root) {
		if len(members) == 64 {
			break
		}
		if !used[v] {
			used[v] = true
			members = append(members, v)
		}
	}

	// Level 0: the root. Members are pre-seeded at depth 1 with their own
	// bit in Sm1 (d(i,i) = 0 = d(r,i)-1).
	t.Dist[root] = 0
	frontier := []int32{root}
	for bit, v := range members {
		t.Dist[v] = 1
		t.Sm1[v] = 1 << uint(bit)
	}
	var next []int32
	for d := int32(0); len(frontier) > 0; d++ {
		// Pass 1: discover the next level and propagate parent masks.
		next = next[:0]
		if d == 0 {
			for _, v := range g.Neighbors(root) {
				if t.Dist[v] < 0 {
					t.Dist[v] = 1
					next = append(next, v)
				}
			}
			next = append(next, members...)
		} else {
			for _, u := range frontier {
				for _, v := range g.Neighbors(u) {
					if t.Dist[v] < 0 {
						t.Dist[v] = d + 1
						next = append(next, v)
					}
					if t.Dist[v] == d+1 {
						t.Sm1[v] |= t.Sm1[u]
						t.S0[v] |= t.S0[u]
					}
				}
			}
		}
		// Pass 2: sibling edges within the new level.
		for _, u := range next {
			for _, v := range g.Neighbors(u) {
				if t.Dist[v] == d+1 {
					t.S0[v] |= t.Sm1[u]
				}
			}
		}
		frontier, next = next, frontier[:0]
	}
	return t
}

// Query returns the tree's upper bound on d(s,t):
//
//	d(s)+d(t) - 2 if the endpoints share a neighbor one step closer on
//	both sides, -1 if on one side, else the plain through-root detour —
//
// or math.MaxInt32 when the tree reaches only one endpoint.
func (t *Tree) Query(s, u int32) int32 {
	ds, du := t.Dist[s], t.Dist[u]
	if ds < 0 || du < 0 {
		return math.MaxInt32
	}
	d := ds + du
	switch {
	case t.Sm1[s]&t.Sm1[u] != 0:
		d -= 2
	case t.Sm1[s]&t.S0[u] != 0 || t.S0[s]&t.Sm1[u] != 0:
		d -= 1
	}
	return d
}

// NumMembers reports how many neighbor bits the tree uses.
func (t *Tree) NumMembers() int {
	var mask uint64
	for _, m := range t.Sm1 {
		mask |= m
	}
	return bits.OnesCount64(mask)
}

// MinQuery returns the best bound over a set of trees (MaxInt32 if none
// connects the pair).
func MinQuery(trees []*Tree, s, u int32) int32 {
	best := int32(math.MaxInt32)
	for _, t := range trees {
		if d := t.Query(s, u); d < best {
			best = d
		}
	}
	return best
}
