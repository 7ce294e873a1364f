package gen

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"highway/internal/graph"
)

// referenceRMAT is RMAT's draw loop as it was before it read the source
// directly: one rand.Rand.Float64 per bit, a four-way switch on it, one
// edge after another. RMAT over the same source must hand the Builder the
// same edges.
func referenceRMAT(scale uint, edgeFactor int, a, b, c float64, src rand.Source) *graph.Graph {
	n := 1 << scale
	rng := rand.New(src)
	bld := graph.NewBuilder(n)
	for i := int64(0); i < int64(edgeFactor)*int64(n); i++ {
		u, v := 0, 0
		for bit := 0; bit < int(scale); bit++ {
			r := rng.Float64()
			switch {
			case r < a:
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		bld.AddEdge(int32(u), int32(v))
	}
	return bld.MustBuild()
}

// referenceBarabasiAlbert is BarabasiAlbert's loop as it was while it drew
// through rand.Rand.Intn.
func referenceBarabasiAlbert(n, k int, seed int64) *graph.Graph {
	k = max(k, 1)
	n = max(n, k+1)
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	var repeated []int32
	for u := 0; u < k+1; u++ {
		for v := u + 1; v < k+1; v++ {
			b.AddEdge(int32(u), int32(v))
			repeated = append(repeated, int32(u), int32(v))
		}
	}
	for v := k + 1; v < n; v++ {
		var chosen []int32
		for len(chosen) < k {
			t := repeated[rng.Intn(len(repeated))]
			dup := false
			for _, c := range chosen {
				dup = dup || c == t
			}
			if !dup {
				chosen = append(chosen, t)
			}
		}
		for _, t := range chosen {
			b.AddEdge(int32(v), t)
			repeated = append(repeated, int32(v), t)
		}
	}
	return b.MustBuild()
}

func graphBytes(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameRMAT fails unless RMAT and the reference build the same graph. Two
// streams that part ways by one draw give different edges from there on,
// so equal graphs mean equal edge sequences.
func sameRMAT(t *testing.T, scale uint, edgeFactor int, a, b, c float64, seed int64) {
	t.Helper()
	got := RMAT(scale, edgeFactor, a, b, c, seed)
	want := referenceRMAT(scale, edgeFactor, a, b, c, rand.NewSource(seed))
	if !bytes.Equal(graphBytes(t, got), graphBytes(t, want)) {
		t.Fatalf("RMAT(%d, %d, %v, %v, %v, %d) = %v, the rand.Rand loop gives %v: bytes differ", scale, edgeFactor, a, b, c, seed, got, want)
	}
}

func TestRMATMatchesReference(t *testing.T) {
	third := 1.0 / 3 // not a multiple of 2^-53 once scaled and summed
	for _, p := range [][3]float64{
		{0.57, 0.19, 0.19},
		{0, 0.5, 0.25}, {1, 0, 0}, {0, 0, 0}, {0, 1, 0}, {0, 0, 1},
		{0.25, 0.25, 0.5},  // d = 0
		{0.45, 0.15, 0.15}, // the other skew in the registry
		{third, third, third / 2},
		{math.Nextafter(0.5, 1), math.Nextafter(0.25, 0), 0.1},
		{0x1p-60, 0x1p-61, 0.3}, // thresholds below one unit of the numerator's rounding
		{math.SmallestNonzeroFloat64, 0.5, 0.25},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			sameRMAT(t, 9, 6, p[0], p[1], p[2], seed)
		}
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 60; i++ {
		a := rng.Float64()
		b := rng.Float64() * (1 - a)
		c := rng.Float64() * (1 - a - b)
		sameRMAT(t, uint(rng.Intn(11)), 1+rng.Intn(9), a, b, c, rng.Int63())
	}
}

// FuzzRMATMatchesReference lets the fuzzer look for a (shape, seed) on
// which the two draw loops part. CI runs this target in the fuzz job.
func FuzzRMATMatchesReference(f *testing.F) {
	f.Add(uint8(8), uint8(4), 0.57, 0.19, 0.19, int64(42))
	f.Add(uint8(3), uint8(1), 0.0, 1.0, 0.0, int64(-1))
	f.Add(uint8(10), uint8(2), 1.0/3, 1.0/3, 1.0/6, int64(7))
	f.Fuzz(func(t *testing.T, scale, edgeFactor uint8, a, b, c float64, seed int64) {
		if !(a >= 0 && b >= 0 && c >= 0 && 1-a-b-c >= 0) {
			t.Skip() // RMAT panics on these, NaN included
		}
		sameRMAT(t, uint(scale%12), int(edgeFactor%8), a, b, c, seed)
	})
}

func TestBarabasiAlbertMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shapes := [][2]int{{0, 0}, {2, 1}, {9, 8}, {100, 1}, {3000, 5}, {500, 40}}
	// With k = 1 the draws are from 2, 4, 6, 8, … endpoints, which takes in
	// the power-of-two case of Intn: a mask there, a remainder here. Only
	// k = 1 lands on a power of two (otherwise k(k+1+2j) has an odd factor
	// above 1, k or k+1+2j): at once after the clique with n = 3, and last
	// with n = 2^p + 2. With n = k + 1 = 2 nothing is drawn.
	shapes = append(shapes, [][2]int{{1, 1}, {3, 1}, {4, 1}, {6, 1}, {10, 1}, {34, 1}, {1026, 1}}...)
	for i := 0; i < 30; i++ {
		shapes = append(shapes, [2]int{rng.Intn(2000), rng.Intn(12)})
	}
	for _, s := range shapes {
		seed := rng.Int63()
		got, want := BarabasiAlbert(s[0], s[1], seed), referenceBarabasiAlbert(s[0], s[1], seed)
		if !bytes.Equal(graphBytes(t, got), graphBytes(t, want)) {
			t.Fatalf("BarabasiAlbert(%d, %d, %d) = %v, the rand.Rand loop gives %v: bytes differ", s[0], s[1], seed, got, want)
		}
	}
}

func TestBarabasiAlbertRejectsOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("2^31 endpoints accepted")
		}
	}()
	BarabasiAlbert(1<<27, 8, 1)
}

// TestDivisorMatchesRemainder: the reciprocal remainder is x % m at the
// edges of both operands' ranges and on seeded values.
func TestDivisorMatchesRemainder(t *testing.T) {
	ms := []uint32{1, 2, 3, 1<<31 - 1}
	for p := 1; p < 32; p++ {
		ms = append(ms, 1<<p-1, 1<<p, 1<<p+1)
	}
	rng := rand.New(rand.NewSource(29))
	for range 200 {
		ms = append(ms, 1+uint32(rng.Int31()))
	}
	for _, m := range ms {
		d := newDivisor(m)
		xs := []uint32{0, m - 1, m, 1<<31 - 1, 1 << 31, math.MaxUint32}
		for range 50 {
			xs = append(xs, rng.Uint32(), uint32(rng.Int31n(1<<31-1)))
		}
		for _, x := range xs {
			if got := d.mod(x); got != x%m {
				t.Fatalf("%d mod %d = %d, want %d", x, m, got, x%m)
			}
		}
	}
}

// TestEndpointMatchesList: endpoint reads from the Builder's packed edges
// what the list of endpoints, as referenceBarabasiAlbert keeps it, holds
// at every position, across the clique's last edge and the first
// attachments.
func TestEndpointMatchesList(t *testing.T) {
	for _, k := range []int{1, 2, 3, 7} {
		b := graph.NewBuilder(0)
		var list []int32
		for u := 0; u < k+1; u++ {
			for v := u + 1; v < k+1; v++ {
				b.AddEdgeGrow(int32(u), int32(v))
				list = append(list, int32(u), int32(v))
			}
		}
		for v := k + 1; v < k+5; v++ {
			before := len(list) // targets are older than v
			for j := range k {
				t := list[(7*v+3*j)%before]
				b.AddEdgeGrow(int32(v), t)
				list = append(list, int32(v), t)
			}
		}
		for x := range list {
			if got := endpoint(b.Packed(), k*(k+1)/2, uint32(x)); got != list[x] {
				t.Fatalf("k=%d: endpoint %d is %d, the list holds %d", k, x, got, list[x])
			}
		}
	}
}
