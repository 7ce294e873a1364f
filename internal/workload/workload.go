// Package workload produces the query workloads and measurements of the
// paper's evaluation: seeded random vertex-pair samples (Section 6.1 uses
// 100,000 pairs drawn from V×V), exact-distance ground truth, the
// distance distributions of Figure 6, and the pair coverage ratio of
// Figure 9.
package workload

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strconv"

	"highway/internal/graph"
)

// Pair is one (s,t) distance query.
type Pair struct {
	S, T int32
}

// Stream is an endless deterministic source of uniform random (s,t)
// pairs: the reusable request stream behind RandomPairs and the serving
// subsystem's load generator. A Stream is not safe for concurrent use;
// give each producer goroutine its own (seeds differing by goroutine id
// keep the union deterministic).
type Stream struct {
	rng *rand.Rand
	n   int
}

// NewStream returns a pair stream over g's vertex set. Deterministic for
// a given seed. Panics if g has no vertices.
func NewStream(g *graph.Graph, seed int64) *Stream {
	return NewStreamN(g.NumVertices(), seed)
}

// NewStreamN is NewStream over an explicit vertex count, for callers
// that serve an index behind the method-agnostic interface and have no
// graph at hand. Panics if n is zero.
func NewStreamN(n int, seed int64) *Stream {
	if n == 0 {
		panic("workload: NewStream on empty graph")
	}
	return &Stream{rng: rand.New(rand.NewSource(seed)), n: n}
}

// Next returns the next pair in the stream.
func (st *Stream) Next() Pair {
	return Pair{S: int32(st.rng.Intn(st.n)), T: int32(st.rng.Intn(st.n))}
}

// Fill overwrites dst with the next len(dst) pairs and returns dst.
func (st *Stream) Fill(dst []Pair) []Pair {
	for i := range dst {
		dst[i] = st.Next()
	}
	return dst
}

// RandomPairs samples count pairs uniformly from V×V (with replacement,
// like the paper). Deterministic for a given seed.
func RandomPairs(g *graph.Graph, count int, seed int64) []Pair {
	if g.NumVertices() == 0 {
		return nil
	}
	return NewStream(g, seed).Fill(make([]Pair, count))
}

// WritePairs emits count stream pairs as whitespace-separated "s t"
// lines: the text format hlserve's batch mode consumes. Use it to
// generate batch inputs without materializing the workload in memory.
func WritePairs(w io.Writer, g *graph.Graph, count int, seed int64) error {
	if g.NumVertices() == 0 || count == 0 {
		return nil
	}
	st := NewStream(g, seed)
	bw := bufio.NewWriterSize(w, 1<<16)
	buf := make([]byte, 0, 24)
	for i := 0; i < count; i++ {
		p := st.Next()
		buf = strconv.AppendInt(buf[:0], int64(p.S), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(p.T), 10)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPairs parses whitespace-separated "s t" lines (the WritePairs
// format; blank lines and '#'/'%' comments allowed, matching
// LoadEdgeList's SNAP/KONECT conventions) and calls yield for each pair
// in order. It validates vertex ids against n and stops at the first
// malformed line.
func ReadPairs(r io.Reader, n int, yield func(Pair) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		var s, t int32
		if ok, err := parsePairLine(text, n, &s, &t); err != nil {
			return fmt.Errorf("workload: line %d: %w", line, err)
		} else if !ok {
			continue
		}
		if err := yield(Pair{S: s, T: t}); err != nil {
			return err
		}
	}
	return sc.Err()
}

// parsePairLine parses one "s t" line into (*s,*t). It reports ok=false
// for blank and comment lines, and an error for malformed or
// out-of-range input.
func parsePairLine(text string, n int, s, t *int32) (ok bool, err error) {
	i, l := 0, len(text)
	skip := func() {
		for i < l && (text[i] == ' ' || text[i] == '\t' || text[i] == '\r') {
			i++
		}
	}
	num := func() (int32, bool) {
		start := i
		var v int64
		for i < l && text[i] >= '0' && text[i] <= '9' {
			v = v*10 + int64(text[i]-'0')
			if v > int64(n) {
				return 0, false
			}
			i++
		}
		if i == start || v >= int64(n) {
			return 0, false
		}
		return int32(v), true
	}
	skip()
	if i == l || text[i] == '#' || text[i] == '%' {
		return false, nil
	}
	a, okA := num()
	skip()
	b, okB := num()
	skip()
	if !okA || !okB || i != l {
		return false, fmt.Errorf("want two vertex ids in [0,%d), got %q", n, text)
	}
	*s, *t = a, b
	return true, nil
}

// Oracle answers exact distance queries; -1 means unreachable. All index
// types in this repository satisfy it via their Searcher types.
type Oracle interface {
	Distance(s, t int32) int32
}

// OracleFunc adapts a function to the Oracle interface.
type OracleFunc func(s, t int32) int32

// Distance implements Oracle.
func (f OracleFunc) Distance(s, t int32) int32 { return f(s, t) }

// Distribution is a histogram of pair distances (Figure 6): Counts[d] is
// the number of sampled pairs at distance d; Unreachable counts pairs with
// no path.
type Distribution struct {
	Counts      []int64
	Unreachable int64
	Total       int64
}

// DistanceDistribution evaluates the oracle on every pair and histograms
// the results.
func DistanceDistribution(o Oracle, pairs []Pair) Distribution {
	dist := Distribution{Total: int64(len(pairs))}
	for _, p := range pairs {
		d := o.Distance(p.S, p.T)
		if d < 0 {
			dist.Unreachable++
			continue
		}
		for int(d) >= len(dist.Counts) {
			dist.Counts = append(dist.Counts, 0)
		}
		dist.Counts[d]++
	}
	return dist
}

// Fraction returns the fraction of pairs at distance d (Figure 6's y
// axis).
func (d Distribution) Fraction(dist int) float64 {
	if d.Total == 0 || dist >= len(d.Counts) {
		return 0
	}
	return float64(d.Counts[dist]) / float64(d.Total)
}

// Mean returns the average distance over reachable pairs.
func (d Distribution) Mean() float64 {
	var sum, cnt int64
	for dist, c := range d.Counts {
		sum += int64(dist) * c
		cnt += c
	}
	if cnt == 0 {
		return 0
	}
	return float64(sum) / float64(cnt)
}

// String renders the histogram compactly.
func (d Distribution) String() string {
	s := ""
	for dist, c := range d.Counts {
		if c > 0 {
			s += fmt.Sprintf("d=%d:%.3f ", dist, float64(c)/float64(d.Total))
		}
	}
	if d.Unreachable > 0 {
		s += fmt.Sprintf("unreachable:%.3f", float64(d.Unreachable)/float64(d.Total))
	}
	return s
}

// Bounder reports label-derived upper bounds; the HL and FD indexes
// satisfy it.
type Bounder interface {
	UpperBound(s, t int32) int32
}

// PairCoverage returns the fraction of reachable sampled pairs whose upper
// bound equals the exact distance — i.e. pairs covered by at least one
// landmark (Figure 9). exact must answer exact distances (it may be the
// same index).
func PairCoverage(b Bounder, exact Oracle, pairs []Pair) float64 {
	var covered, reachable int64
	for _, p := range pairs {
		d := exact.Distance(p.S, p.T)
		if d < 0 {
			continue
		}
		reachable++
		if ub := b.UpperBound(p.S, p.T); ub == d {
			covered++
		}
	}
	if reachable == 0 {
		return 0
	}
	return float64(covered) / float64(reachable)
}
