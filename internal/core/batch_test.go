package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"highway/internal/gen"
	"highway/internal/graph"
	"highway/internal/oracle"
)

// checkBatchMatchesPairwise asserts that DistanceBatch answers exactly
// like pair-at-a-time Distance on the given pairs, on a fresh searcher
// and on the pooled Index conveniences, and so does a one-source batch
// of each source's pairs (the one-to-many case).
func checkBatchMatchesPairwise(t *testing.T, ix *Index, pairs [][2]int32) {
	t.Helper()
	sr := ix.Searcher()
	batched := sr.DistanceBatch(pairs, nil)
	pooled := ix.DistanceBatch(pairs, nil)
	pairwise := ix.Searcher() // separate searcher: no scratch interference
	for i, p := range pairs {
		want := pairwise.Distance(p[0], p[1])
		if batched[i] != want {
			t.Fatalf("DistanceBatch[%d] (%d,%d) = %d, pairwise %d", i, p[0], p[1], batched[i], want)
		}
		if pooled[i] != want {
			t.Fatalf("Index.DistanceBatch[%d] (%d,%d) = %d, pairwise %d", i, p[0], p[1], pooled[i], want)
		}
	}
	bySource := map[int32][][2]int32{}
	for _, p := range pairs {
		bySource[p[0]] = append(bySource[p[0]], p)
	}
	for src, group := range bySource {
		one := sr.DistanceBatch(group, nil)
		for i, p := range group {
			if want := pairwise.Distance(src, p[1]); one[i] != want {
				t.Fatalf("one-source batch (%d)[%d]=%d for target %d, pairwise %d", src, i, one[i], p[1], want)
			}
		}
	}
}

// skewedPairs draws count pairs whose sources rotate over nsrc seeded
// vertices (the source-skewed shape the executor groups on), with
// uniform targets — including, with a little luck, duplicates, s==t and
// landmark endpoints.
func skewedPairs(n, count, nsrc int, seed int64) [][2]int32 {
	rng := rand.New(rand.NewSource(seed))
	sources := make([]int32, nsrc)
	for i := range sources {
		sources[i] = int32(rng.Intn(n))
	}
	pairs := make([][2]int32, count)
	for i := range pairs {
		pairs[i] = [2]int32{sources[i%nsrc], int32(rng.Intn(n))}
	}
	return pairs
}

// TestBatchMatchesPairwise is the core differential property across the
// corner-case suite: batched answers are byte-identical to
// pair-at-a-time answers and to BFS ground truth on all ordered pairs
// (which include s==t, landmark endpoints, repeated sources and
// disconnected pairs by construction).
func TestBatchMatchesPairwise(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		for _, c := range oracle.CornerCases() {
			g := c.Graph
			ix, err := Build(g, g.DegreeOrder()[:k])
			if err != nil {
				t.Fatalf("%s k=%d: %v", c.Name, k, err)
			}
			pairs := oracle.AllPairs(g.NumVertices())
			checkBatchMatchesPairwise(t, ix, pairs)
			// The batched path against ground truth directly.
			dst := ix.DistanceBatch(pairs, nil)
			if err := oracle.Diff(g, oracle.Func(func(s, t int32) int32 {
				for i, p := range pairs {
					if p[0] == s && p[1] == t {
						return dst[i]
					}
				}
				panic("pair not found")
			}), pairs); err != nil {
				t.Fatalf("%s k=%d: %v", c.Name, k, err)
			}
		}
	}
}

// TestBatchDuplicatesAndRepeats hammers the dedup path: many duplicate
// pairs and repeated sources, enough to cross the group-BFS threshold
// even on a small graph.
func TestBatchDuplicatesAndRepeats(t *testing.T) {
	g := gen.BarabasiAlbert(120, 3, 7)
	ix, err := Build(g, g.DegreeOrder()[:4])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var pairs [][2]int32
	for i := 0; i < 400; i++ { // one source, duplicated targets → group BFS path
		pairs = append(pairs, [2]int32{17, int32(rng.Intn(60))})
	}
	for i := 0; i < 50; i++ { // s==t and landmark endpoints sprinkled in
		v := int32(rng.Intn(g.NumVertices()))
		pairs = append(pairs, [2]int32{v, v})
		pairs = append(pairs, [2]int32{ix.Landmarks()[rng.Intn(4)], v})
		pairs = append(pairs, [2]int32{v, ix.Landmarks()[rng.Intn(4)]})
	}
	checkBatchMatchesPairwise(t, ix, pairs)
}

// TestBatchRandomGraphs property-checks both refinement strategies on
// the random generator families: skewed batches (groups large enough
// for the shared source BFS) and uniform batches (pairwise refinement).
func TestBatchRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		c := oracle.RandomCase(seed)
		g := c.Graph
		k := 1 + int(seed%6)
		if k > g.NumVertices() {
			k = g.NumVertices()
		}
		ix, err := Build(g, g.DegreeOrder()[:k])
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		n := g.NumVertices()
		checkBatchMatchesPairwise(t, ix, skewedPairs(n, 900, 3, seed))
		checkBatchMatchesPairwise(t, ix, oracle.SampledPairs(n, 300, seed^0x5f))
	}
}

// TestBatchDisconnected pins the Infinity paths: missing label bounds
// force the unbounded sparsified traversal, across components with and
// without landmarks.
func TestBatchDisconnected(t *testing.T) {
	g := graph.MustFromEdges(9, [][2]int32{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {5, 6}, {6, 7}})
	ix, err := Build(g, []int32{0}) // vertex 8 isolated; B-component has no landmark
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][2]int32
	for s := int32(0); s < 9; s++ {
		for t := int32(0); t < 9; t++ {
			pairs = append(pairs, [2]int32{s, t})
		}
	}
	// Duplicate heavily so groups cross the BFS threshold on 9 vertices.
	for i := 0; i < 5; i++ {
		pairs = append(pairs, pairs[:81]...)
	}
	checkBatchMatchesPairwise(t, ix, pairs)
}

// TestBatchDstReuse verifies the dst contract: a caller-provided slice
// with capacity is reused, one without is replaced.
func TestBatchDstReuse(t *testing.T) {
	g := gen.Path(10)
	ix, err := Build(g, []int32{5})
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]int32{{0, 9}, {2, 2}, {9, 0}}
	buf := make([]int32, 8)
	out := ix.DistanceBatch(pairs, buf)
	if len(out) != len(pairs) || &out[0] != &buf[0] {
		t.Fatalf("dst with capacity was not reused (len=%d)", len(out))
	}
	if out2 := ix.DistanceBatch(pairs, nil); len(out2) != len(pairs) {
		t.Fatalf("nil dst: got len %d", len(out2))
	}
	if got := ix.DistanceBatch([][2]int32{{0, 9}, {0, 5}, {0, 0}}, buf[:0]); len(got) != 3 || &got[0] != &buf[0] || got[2] != 0 {
		t.Fatalf("one-source batch dst reuse: %v", got)
	}
}

// TestBatchEmpty covers the zero-length batch.
func TestBatchEmpty(t *testing.T) {
	g := gen.Path(4)
	ix, err := Build(g, []int32{1})
	if err != nil {
		t.Fatal(err)
	}
	if out := ix.DistanceBatch(nil, nil); len(out) != 0 {
		t.Fatalf("empty batch returned %v", out)
	}
}

// countingCtx is a context whose Err reports context.Canceled from its
// k-th poll on (never, for k = 0), counts every poll and calls at, when
// set, before it answers: where a batch stops is a poll count, not a
// timing guess.
type countingCtx struct {
	context.Context
	k, polls int
	at       func()
}

func (c *countingCtx) Err() error {
	c.polls++
	if c.at != nil {
		c.at()
	}
	if c.k > 0 && c.polls >= c.k {
		return context.Canceled
	}
	return nil
}

// visited counts the vertices the searcher's last shared source BFS has
// reached so far: those with a depth in its scratch.
func (sr *Searcher) visited() int {
	n := 0
	for v := range sr.ix.g.NumVertices() {
		if sr.sc.Depth(int32(v)) >= 0 {
			n++
		}
	}
	return n
}

// TestBatchCancel pins where a batch polls its context and what a stop
// leaves, on three shapes: a 4 096-target fan on BA-20k, which takes the
// shared source BFS (n/64 = 313 refinements are enough) and polls at
// each of its levels; one source's 3 000 targets on a 200 000-vertex
// path, too few for that BFS, refined pair by pair with a poll every
// 1 024; and 4 096 pairs of distinct sources, polled at every group
// boundary that ends 1 024 more pairs. Stopped at any of its polls, a
// shape returns context.Canceled and no answers and polls no more, and
// the searcher's next batch equals the pairwise answers.
func TestBatchCancel(t *testing.T) {
	ba := gen.BarabasiAlbert(20_000, 5, 3)
	baIx, err := Build(ba, ba.DegreeOrder()[:20])
	if err != nil {
		t.Fatal(err)
	}
	path := gen.Path(200_000)
	pathIx, err := Build(path, []int32{100_000})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	n := ba.NumVertices()
	src := int32(rng.Intn(n))
	for baIx.IsLandmark(src) {
		src = int32(rng.Intn(n))
	}
	var fan, line, uniform [][2]int32
	for range 4096 {
		fan = append(fan, [2]int32{src, int32(rng.Intn(n))})
	}
	for v := int32(0); v <= 3000; v++ {
		if v != 1500 {
			line = append(line, [2]int32{1500, v})
		}
	}
	for _, s := range rng.Perm(n)[:4096] {
		uniform = append(uniform, [2]int32{int32(s), int32(rng.Intn(n))})
	}

	// The fan's BFS levels on G[V\R]: cum[d] vertices lie within depth d.
	depth := make([]int32, n)
	for i := range depth {
		depth[i] = -1
	}
	depth[src] = 0
	cum := []int{0}
	for q := []int32{src}; len(q) > 0; {
		cum[len(cum)-1] += len(q)
		var next []int32
		for _, v := range q {
			for _, u := range ba.Neighbors(v) {
				if !baIx.IsLandmark(u) && depth[u] < 0 {
					depth[u] = depth[v] + 1
					next = append(next, u)
				}
			}
		}
		if q = next; len(q) > 0 {
			cum = append(cum, cum[len(cum)-1])
		}
	}

	for _, c := range []struct {
		name  string
		ix    *Index
		pairs [][2]int32
		polls int // 0: one poll before the BFS and one a level
	}{{"fan", baIx, fan, 0}, {"line", pathIx, line, 3}, {"uniform", baIx, uniform, 4}} {
		ref := c.ix.Searcher()
		want := make([]int32, len(c.pairs))
		for i, p := range c.pairs {
			want[i] = ref.Distance(p[0], p[1])
		}
		sr := c.ix.Searcher()
		var seen []int
		full := &countingCtx{Context: context.Background(), at: func() { seen = append(seen, sr.visited()) }}
		if got, err := sr.batch(full, c.pairs, nil); err != nil || !slices.Equal(got, want) {
			t.Fatalf("%s: the uncancelled batch differs from the pairwise answers (%v)", c.name, err)
		}
		if c.polls == 0 {
			// Each poll inside the BFS sees one more level than the last.
			if len(seen) < 3 || seen[0] != 0 || !slices.Equal(seen[1:], cum[:len(seen)-1]) {
				t.Fatalf("%s: polls saw %v vertices reached, want 0 and then the levels' running totals %v", c.name, seen, cum)
			}
			c.polls = len(seen)
		} else if full.polls != c.polls {
			t.Fatalf("%s: %d polls, want %d", c.name, full.polls, c.polls)
		}
		for k := 1; k <= c.polls; k++ {
			ctx := &countingCtx{Context: context.Background(), k: k}
			dst := make([]int32, len(c.pairs))
			out, err := sr.batch(ctx, c.pairs, dst)
			if !errors.Is(err, context.Canceled) || out != nil || ctx.polls != k {
				t.Fatalf("%s, stop at poll %d: %d answers, %v, after %d polls", c.name, k, len(out), err, ctx.polls)
			}
			if c.name == "fan" && k > 1 {
				// Stopped inside the BFS: no bound was refined.
				for i, p := range c.pairs {
					if p[0] != p[1] && dst[i] != ref.UpperBound(p[0], p[1]) {
						t.Fatalf("%s, stop at poll %d: pair %d holds %d, not its label bound", c.name, k, i, dst[i])
					}
				}
			}
			if got := sr.DistanceBatch(c.pairs, nil); !slices.Equal(got, want) {
				t.Fatalf("%s, stop at poll %d: the next batch differs from the pairwise answers", c.name, k)
			}
		}
	}

	// A context already cancelled answers nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out, err := baIx.AnswerBatch(ctx, fan, nil); out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: %d answers, %v", len(out), err)
	}
}
