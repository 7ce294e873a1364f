package gen

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestStreamContinuesSource is the one place math/rand's algorithm is
// assumed: continued from the first 607 outputs, the recurrence gives the
// source's own next outputs, all 64 bits of them. The chunk lengths vary
// so that some are shorter than the 607 outputs of state.
func TestStreamContinuesSource(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, 1<<31 + 5, math.MinInt64} {
		src := rand.NewSource(seed).(rand.Source64)
		s := newStream(rand.NewSource(seed).(rand.Source64), 1<<63) // nothing is redrawn
		buf := make([]uint64, lagLong+5000)
		for i, size := 0, 0; i < 1_000_000; i += size {
			size = 1 + (i*7919)%len(buf[lagLong:])
			chunk := buf[:lagLong+size]
			s.fill(chunk)
			for j, got := range chunk[lagLong:] {
				if want := src.Uint64(); got != want {
					t.Fatalf("seed %d: output %d is %#x, the source gives %#x", seed, i+j, got, want)
				}
			}
		}
	}
}

// TestThresholdsDecideAsFloats: just below, at and just above each integer
// threshold, a draw decides the bits as referenceRMAT's switch on
// rand.Rand.Float64 does, for a, a+b, a+b+c, and it is redrawn from where
// it rounds to 1 on.
func TestThresholdsDecideAsFloats(t *testing.T) {
	const one = 1 << 63
	near := func(th uint64) []uint64 { return []uint64{th - 1, th, th + 1} }
	for _, p := range [][3]float64{{0.57, 0.19, 0.19}, {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {0.45, 0.15, 0.15}} {
		a, b, c := p[0], p[1], p[2]
		q := quadrants{thresholdOf(a * one), thresholdOf((a + b) * one), thresholdOf((a + b + c) * one)}
		for _, x := range slices.Concat(near(q[0]), near(q[1]), near(q[2])) {
			if x >= one {
				continue
			}
			var ub, vb int
			switch r := float64(x) / one; {
			case r < a:
			case r < a+b:
				vb = 1
			case r < a+b+c:
				ub = 1
			default:
				ub, vb = 1, 1
			}
			if gu, gv := q.bits(x); gu != ub || gv != vb {
				t.Errorf("(%v,%v,%v): draw %#x sets bits u=%d v=%d, the float switch u=%d v=%d", a, b, c, x, gu, gv, ub, vb)
			}
		}
	}
	redraw := thresholdOf(one)
	for _, x := range near(redraw) {
		if (x < redraw) != (float64(x)/one != 1) {
			t.Errorf("draw %#x: kept %v, but it converts to %v", x, x < redraw, float64(x)/one)
		}
	}
	if redraw >= one {
		t.Fatal("no draw rounds to 1: the redraw is never taken")
	}
}

// replay is a rand.Source64 whose first outputs are given and whose later
// ones follow math/rand's recurrence, as a source with that state would
// give them.
type replay struct {
	out  []uint64
	next int
}

func (r *replay) Uint64() uint64 {
	if r.next == len(r.out) {
		r.out = append(r.out, r.out[r.next-lagLong]+r.out[r.next-lagShort])
	}
	r.next++
	return r.out[r.next-1]
}

func (r *replay) Int63() int64 { return int64(r.Uint64() & int63) }
func (r *replay) Seed(int64)   { panic("replay: Seed") }

// historyWith returns the first 607 outputs of a stream in which the
// outputs at the given positions, ascending and fewer than 300 apart,
// round to 2^63: it draws 607 outputs around them and runs the recurrence
// back to the beginning.
func historyWith(rng *rand.Rand, positions ...int) []uint64 {
	start := max(positions[0]-lagLong/2, 0)
	out := make([]uint64, start+lagLong)
	for i := start; i < len(out); i++ {
		out[i] = rng.Uint64()
	}
	for _, p := range positions {
		out[p] = rng.Uint64() | int63 // the low 63 bits convert to 2^63
	}
	for i := len(out) - 1; i >= lagLong; i-- {
		out[i-lagLong] = out[i] - out[i-lagShort]
	}
	return out[:lagLong]
}

// TestRMATRedraws crafts streams in which a draw rounds to 1 at a chunk's
// first and last draw — odds of about 2^-54 a draw, which no seeded test
// meets: the kernel must skip it where the reference loop redraws.
func TestRMATRedraws(t *testing.T) {
	const scale, edgeFactor = 10, 4 // 4 096 edges, two chunks
	last := chunkEdges(scale)*scale - 1
	rng := rand.New(rand.NewSource(3))
	for _, positions := range [][]int{
		{0},                  // chunk 0's first draw
		{last},               // its last, which leaves chunk 1 one output later
		{last, last + 2},     // and chunk 1's first after that
		{last + 1, last + 2}, // chunk 1's first, twice over
		{5, 6, 7},            // three in a row
	} {
		history := historyWith(rng, positions...)
		probe := &replay{out: history}
		for i, p := 0, 0; p < len(positions); i++ {
			x := probe.Uint64()
			if i == positions[p] {
				if float64(x&int63)/(1<<63) != 1 {
					t.Fatalf("positions %v: output %d is %#x, which does not round to 1", positions, i, x)
				}
				p++
			}
		}
		got := rmat(scale, edgeFactor, 0.57, 0.19, 0.19, &replay{out: history})
		want := referenceRMAT(scale, edgeFactor, 0.57, 0.19, 0.19, &replay{out: history})
		if !bytes.Equal(graphBytes(t, got), graphBytes(t, want)) {
			t.Fatalf("redraws at %v: RMAT gives %v, the rand.Rand loop %v: bytes differ", positions, got, want)
		}
	}
}

// TestRMATAnyWorkerCount: one chunk, a partial last chunk, many chunks,
// scale 0 (every edge a self-loop) and edge factor 0 give the reference's
// graph at GOMAXPROCS 1, 2 and 4.
func TestRMATAnyWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, s := range []struct {
			scale      uint
			edgeFactor int
		}{
			{8, 4},   // 1 024 edges, one chunk
			{11, 5},  // 10 240 edges, three full chunks and part of a fourth
			{9, 100}, // 51 200 edges, fourteen full chunks and a sliver
			{0, 5},
			{7, 0},
		} {
			sameRMAT(t, s.scale, s.edgeFactor, 0.57, 0.19, 0.19, int64(procs))
		}
	}
}
