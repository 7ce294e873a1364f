// Package gen produces synthetic networks that stand in for the paper's 12
// real-world datasets (Table 1). The paper's algorithms are sensitive to
// the *shape* of a network — power-law degree distributions, high-degree
// hubs, small diameters — so the generators cover the relevant families:
//
//   - Barabási–Albert preferential attachment: scale-free "social"
//     networks (Flickr, Orkut, LiveJournal, Friendster stand-ins).
//   - R-MAT (recursive matrix): heavily skewed "web" graphs with very
//     high-degree hubs (Indochina, it2004, uk2007, ClueWeb09 stand-ins).
//   - Erdős–Rényi: homogeneous random baseline (worst case for
//     landmark-based methods, since there are no hubs).
//   - Watts–Strogatz: small-world ring lattices (long-ish distances, used
//     to exercise distance > 255 escape paths and bounded searches).
//   - Deterministic shapes (path, cycle, star, grid, complete) for tests.
//
// All generators are deterministic given a seed, which is what makes
// the stand-in registry (internal/datasets), the benchmark's fixtures and
// every generator-backed test reproducible byte for byte. Hence the rule
// for working on this package: a generator change may not move a stream.
// For the same arguments a generator draws the same values from the same
// math/rand source in the same order and hands the Builder the same edges,
// whatever is done to make the drawing cheaper; TestFixtureBytesGolden and
// the reference loops in reference_test.go hold it to that. A generator
// with a different stream is a new generator, and changing which one the
// benchmark uses re-baselines the benchmark.
//
// The mapping from each of the paper's Table 1 networks to a generator
// family, size and seed — and the rationale for trusting stand-ins at
// 1:100 scale — is documented in DESIGN.md's "Substitutions" section.
package gen

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"highway/internal/graph"
)

// ErdosRenyi returns a G(n, m)-style random graph: m distinct undirected
// edges sampled uniformly. Duplicate samples are retried, so the result has
// exactly min(m, n*(n-1)/2) edges.
func ErdosRenyi(n int, m int64, seed int64) *graph.Graph {
	if n < 0 {
		panic(fmt.Sprintf("gen: ErdosRenyi n=%d", n))
	}
	maxM := int64(n) * int64(n-1) / 2
	if m > maxM {
		m = maxM
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	b.Reserve(int(m))
	seen := make(map[uint64]struct{}, m)
	for int64(len(seen)) < m {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(uint32(v))
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		b.AddEdge(u, v)
	}
	return b.MustBuild()
}

// BarabasiAlbert returns a preferential-attachment scale-free graph: start
// from a k-clique seed, then each new vertex attaches to k distinct
// existing vertices chosen proportionally to degree. The result is
// connected with roughly n*k edges and a power-law degree tail — the shape
// of the paper's social networks. It panics if n*k exceeds 2^30, the most
// endpoints a 31-bit draw can choose among.
func BarabasiAlbert(n, k int, seed int64) *graph.Graph {
	if k < 1 {
		k = 1
	}
	if n < k+1 {
		n = k + 1
	}
	if 2*int64(n)*int64(k) > math.MaxInt32 {
		panic(fmt.Sprintf("gen: BarabasiAlbert n=%d k=%d: more than 2^30 edges", n, k))
	}
	b := graph.NewBuilder(n)
	b.Reserve(n * k) // (k+1)k/2 clique edges + (n-k-1)k attachments <= nk
	for u := 0; u < k+1; u++ {
		for v := u + 1; v < k+1; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	clique := k * (k + 1) / 2
	draws := newStream(rand.NewSource(seed).(rand.Source64), 1<<63) // skips no output: Intn redraws itself
	buf := make([]uint64, lagLong+min(chunkDraws, (n-k)*k))
	next := len(buf)
	chosen := make([]int32, 0, k)
	for v := k + 1; v < n; v++ {
		// A draw is rand.Rand.Intn(2·edges): Int63's high 31 bits, redrawn
		// above the last multiple of the length, then reduced (for a power
		// of two math/rand masks instead, which is the same).
		edges := b.Packed()
		m := newDivisor(uint32(2 * len(edges)))
		last := 1<<31 - 1 - m.mod(1<<31)
		chosen = chosen[:0]
		for len(chosen) < k {
			if next == len(buf) {
				draws.fill(buf)
				next = lagLong
			}
			x := uint32(buf[next] & int63 >> 32)
			next++
			if t := endpoint(edges, clique, m.mod(x)); x <= last && !slices.Contains(chosen, t) {
				chosen = append(chosen, t)
			}
		}
		for _, t := range chosen {
			b.AddEdge(int32(v), t)
		}
	}
	return b.MustBuild()
}

// endpoint returns endpoint x of the list BarabasiAlbert draws from to
// attach by degree: edge i's are 2i and 2i+1, a clique edge's smaller one
// first, an attachment's larger one, and the Builder packs the smaller high.
func endpoint(edges []uint64, clique int, x uint32) int32 {
	i := int(x >> 1)
	high := x&1 ^ uint32(b2i(i >= clique)) ^ 1 // 1 where the smaller is meant
	return int32(uint32(edges[i] >> (32 * high)))
}

// divisor takes remainders by m with its reciprocal c = ⌈2^64/m⌉ (Lemire,
// Kaser and Kurz, SP&E 2019): for x and m below 2^32, x mod m is exactly
// the high word of (c·x mod 2^64)·m.
type divisor struct{ m, c uint64 }

func newDivisor(m uint32) divisor { return divisor{uint64(m), ^uint64(0)/uint64(m) + 1} }

func (d divisor) mod(x uint32) uint32 {
	hi, _ := bits.Mul64(d.c*uint64(x), d.m)
	return uint32(hi)
}

// WattsStrogatz returns a small-world graph: a ring of n vertices each
// connected to its k nearest neighbors on each side, with every edge
// rewired with probability beta. k must satisfy 2k < n.
func WattsStrogatz(n, k int, beta float64, seed int64) *graph.Graph {
	if n < 3 || k < 1 || 2*k >= n {
		panic(fmt.Sprintf("gen: WattsStrogatz invalid n=%d k=%d", n, k))
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	b.Reserve(n * k)
	for u := 0; u < n; u++ {
		for j := 1; j <= k; j++ {
			v := (u + j) % n
			if beta > 0 && rng.Float64() < beta {
				// Rewire the far endpoint uniformly (possible duplicates
				// are deduplicated by the builder; self-loops dropped).
				v = rng.Intn(n)
			}
			b.AddEdge(int32(u), int32(v))
		}
	}
	return b.MustBuild()
}

// Path returns the path graph 0-1-...-(n-1). Its diameter n-1 exercises
// distance-overflow handling (> 255) in label stores.
func Path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.MustBuild()
}

// Cycle returns the n-cycle.
func Cycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.MustBuild()
}

// Star returns the star with center 0 and n-1 leaves.
func Star(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, int32(i))
	}
	return b.MustBuild()
}

// Complete returns the complete graph K_n.
func Complete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(int32(u), int32(v))
		}
	}
	return b.MustBuild()
}

// Grid returns the rows×cols 4-connected grid; vertex (r,c) has id
// r*cols+c.
func Grid(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows * cols)
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.MustBuild()
}

// PaperFigure2 returns the exact 14-vertex example graph of the paper's
// Figure 2(a), with the paper's 1-based vertex labels mapped to 0-based ids
// (paper vertex i is id i-1). Landmarks in the paper's example are
// {1, 5, 9}, i.e. ids {0, 4, 8}.
//
// Edges are transcribed from the figure: the worked examples in the paper
// (labelling size 13 for HL, 25/30 for PLL, the label table of Fig. 2(c),
// and the query walkthroughs of Examples 4.2/4.3) all hold on this graph,
// and the unit tests verify each of them.
func PaperFigure2() *graph.Graph {
	// Edge list reconstructed from the label table of Fig. 2(c), the
	// pruned-BFS walkthroughs of Fig. 3 (labelling size 13), the PLL
	// orderings of Fig. 4 (sizes 25 and 30), Example 4.2 (upper bound 3
	// between vertices 2 and 11) and the sparsified neighborhoods of
	// Fig. 5(b). All of those are asserted by unit tests.
	edges := [][2]int32{
		// paper (1-based): 1-4, 1-11, 1-13, 1-14, 1-5, 1-9
		{0, 3}, {0, 10}, {0, 12}, {0, 13}, {0, 4}, {0, 8},
		// 2-5, 2-7, 2-12, 2-14
		{1, 4}, {1, 6}, {1, 11}, {1, 13},
		// 3-5, 3-8
		{2, 4}, {2, 7},
		// 4-11, 5-8, 5-12
		{3, 10}, {4, 7}, {4, 11},
		// 6-9, 6-7, 7-9
		{5, 8}, {5, 6}, {6, 8},
		// 9-10, 10-11, 13-14
		{8, 9}, {9, 10}, {12, 13},
	}
	return graph.MustFromEdges(14, edges)
}

// PaperLandmarks are the landmark vertex ids {1,5,9} of the paper's running
// example, as 0-based ids.
func PaperLandmarks() []int32 { return []int32{0, 4, 8} }
