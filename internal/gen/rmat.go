package gen

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"highway/internal/graph"
)

// RMAT returns an R-MAT graph with 2^scale vertices and approximately
// edgeFactor * 2^scale undirected edges. Partition probabilities (a,b,c,d)
// must sum to 1; the classic web-graph skew is (0.57, 0.19, 0.19, 0.05).
// Duplicate and self-loop samples are dropped (not retried), so the final
// edge count is slightly below the target — matching standard practice.
// R-MAT yields extremely high-degree hubs, the shape of the paper's web
// crawls where "pair coverage" approaches 1.
func RMAT(scale uint, edgeFactor int, a, b, c float64, seed int64) *graph.Graph {
	return rmat(scale, edgeFactor, a, b, c, rand.NewSource(seed).(rand.Source64))
}

// rmat is RMAT drawing from src. Edge i is decoded from draws i*scale to
// i*scale+scale-1 of the stream, bit by bit from the lowest, so chunks of
// edges are independent once their draws are known. The draws are made a
// chunk at a time, in order, and the chunks are decoded on every core
// straight into the Builder's edge buffer, each at its own fixed
// positions, so the Builder gets the same edges in the same order for any
// worker count.
func rmat(scale uint, edgeFactor int, a, b, c float64, src rand.Source64) *graph.Graph {
	if scale > 30 {
		panic(fmt.Sprintf("gen: RMAT scale=%d too large", scale))
	}
	d := 1.0 - a - b - c
	if a < 0 || b < 0 || c < 0 || d < 0 {
		panic(fmt.Sprintf("gen: RMAT probabilities (%v,%v,%v,%v) invalid", a, b, c, d))
	}
	n := 1 << scale
	// A draw is rand.Rand.Float64's float64(Int63())/2^63, redrawn when it
	// rounds to 1. Dividing by a power of two is exact, so the quotient is
	// below a exactly when the numerator is below a*2^63, and that holds
	// for exactly the integers below thresholdOf(a*2^63).
	const one = 1 << 63
	q := quadrants{thresholdOf(a * one), thresholdOf((a + b) * one), thresholdOf((a + b + c) * one)}
	draws := newStream(src, thresholdOf(one))
	bld := graph.NewBuilder(n)
	bld.AppendPacked(edgeFactor*n, func(slots []uint64) int {
		return q.edges(slots, scale, draws)
	})
	return bld.MustBuild()
}

// chunkDraws is about how many draws one chunk holds: 256 KiB, so a chunk
// is decoded from the cache it was drawn into, and few enough draws that
// the largest shapes FuzzRMATMatchesReference tries (scale 11, edge factor
// 7: five chunks of at most 2 978 edges) span several. Measured on two
// vCPUs, 2^14 draws took longer and varied more (the workers wait for each
// other's draws more often) and 2^16 was no faster.
const chunkDraws = 1 << 15

// chunkEdges is how many edges one chunk holds at scale.
func chunkEdges(scale uint) int { return chunkDraws / max(int(scale), 1) }

// quadrants holds the integer thresholds of a, a+b and a+b+c. Quadrants in
// threshold order are: neither bit, v, u, both.
type quadrants [3]uint64

// edges decodes consecutive edges from draws into slots, dropping
// self-loops as Builder.AddEdge drops them, and returns how many edges it
// kept: all of slots but the self-loops, in the order they were drawn.
// GOMAXPROCS workers take turns drawing the next chunk's draws, in chunk
// order, and each decodes its chunk while the others draw and decode
// theirs.
func (q quadrants) edges(slots []uint64, scale uint, draws *stream) int {
	perChunk := chunkEdges(scale)
	chunks := (len(slots) + perChunk - 1) / perChunk
	kept := make([]int, chunks)
	var mu sync.Mutex // guards draws and next
	next := 0
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), chunks) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]uint64, lagLong+min(perChunk, len(slots))*int(scale))
			for {
				mu.Lock()
				c := next
				next++
				if c >= chunks {
					mu.Unlock()
					return
				}
				lo, hi := c*perChunk, min(c*perChunk+perChunk, len(slots))
				chunk := buf[:lagLong+(hi-lo)*int(scale)]
				draws.fill(chunk)
				mu.Unlock()
				kept[c] = q.decode(slots[lo:hi], chunk[lagLong:], scale)
			}
		}()
	}
	wg.Wait()
	// Close up the gaps the dropped self-loops left at the chunks' ends.
	m := 0
	for c, k := range kept {
		m += copy(slots[m:], slots[c*perChunk:c*perChunk+k])
	}
	return m
}

// decode turns draws, scale of them an edge, into the packed edges of
// slots, self-loops left out, and returns how many it wrote. Draw j of an
// edge decides bit j of its endpoints; the draws are visited last first,
// so that each bit is shifted in.
func (q quadrants) decode(slots, draws []uint64, scale uint) int {
	k := 0
	for i := range slots {
		e := draws[i*int(scale) : (i+1)*int(scale)]
		u, v := 0, 0
		for j := len(e) - 1; j >= 0; j-- {
			ub, vb := q.bits(e[j])
			u = u<<1 | ub
			v = v<<1 | vb
		}
		slots[k] = uint64(min(u, v))<<32 | uint64(max(u, v))
		k += b2i(u != v)
	}
	return k
}

// bits returns the bits of u and v that the draw in x's low 63 bits
// decides. u's is set from a+b on; v's between a and a+b and again from
// a+b+c on, which, as the thresholds ascend, is where an odd number of
// them lie at or below the draw.
func (q quadrants) bits(x uint64) (ub, vb int) {
	x &= int63
	ge1, ge2, ge3 := b2i(x >= q[0]), b2i(x >= q[1]), b2i(x >= q[2])
	return ge2, ge1 ^ ge2 ^ ge3
}

// b2i is 1 for true and 0 for false; the compiler makes it one flag-to-
// register instruction, which is what keeps the draw loops free of
// branches that depend on a random draw.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// thresholdOf returns how many of the 63-bit draws x have float64(x) < t.
// The conversion is monotone, so those draws are exactly the ones below
// the result, and comparing a draw with it decides as comparing the
// converted draw with t does — NaN and t beyond 2^63 included.
func thresholdOf(t float64) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid) < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// The draws are math/rand's: its source is an additive lagged Fibonacci
// generator, output i being output i-607 plus output i-273 mod 2^64, and
// Int63 is an output's low 63 bits. TestStreamContinuesSource holds this
// to the source's own outputs.
const (
	lagLong  = 607
	lagShort = 273
	int63    = 1<<63 - 1
)

// stream continues a rand.Source64 in line, a chunk at a time.
type stream struct {
	last   []uint64 // the 607 outputs before the next one
	redraw uint64   // the draws from here on round to 2^63 and are redrawn
}

// newStream reads the first 607 outputs of src, which are its whole
// state, and runs the recurrence back over them to the 607 before the
// first, so that fill produces every output, the first ones included.
func newStream(src rand.Source64, redraw uint64) *stream {
	y := make([]uint64, 2*lagLong)
	for i := lagLong; i < len(y); i++ {
		y[i] = src.Uint64()
	}
	for i := lagLong - 1; i >= 0; i-- {
		y[i] = y[i+lagLong] - y[i+lagLong-lagShort]
	}
	return &stream{last: y[:lagLong], redraw: redraw}
}

// fill sets buf[607:] to the next outputs whose low 63 bits are draws,
// skipping the ones rand.Rand.Float64 redraws as it skips them;
// buf[:607] is scratch. A draw's high bit is left for the reader to mask.
func (s *stream) fill(buf []uint64) {
	copy(buf, s.last)
	redraw, redrawn := s.redraw, 0
	for i := lagLong; i < len(buf); i++ {
		x := buf[i-lagLong] + buf[i-lagShort]
		buf[i] = x
		redrawn |= b2i(x&int63 >= redraw)
	}
	if redrawn == 0 {
		copy(s.last, buf[len(buf)-lagLong:])
		return
	}
	// Some outputs are redrawn (each one with odds of about 2^-54): keep
	// the others in order and continue the stream for as many more.
	out := slices.Clone(buf)
	k := lagLong
	for i := lagLong; k < len(buf); i++ {
		if i == len(out) {
			out = append(out, out[i-lagLong]+out[i-lagShort])
		}
		if out[i]&int63 < redraw {
			buf[k] = out[i]
			k++
		}
	}
	copy(s.last, out[len(out)-lagLong:])
}
