package graph_test

import (
	"bytes"
	"math/rand"
	"testing"

	"highway/internal/gen"
	"highway/internal/graph"
)

func bytesOf(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkPatch patches g with ins and del and holds the outcome to the
// Builder. A batch is valid when every endpoint is in [0,n), no edge is a
// self-loop or named twice, every insert is absent from g and every delete
// present; then the patched graph must serialize to exactly the bytes
// MustFromEdges makes of the resulting edge set. Any other batch must give
// an error and no graph. Either way g's own bytes must be unchanged. It
// returns the patched graph, or nil for an invalid batch.
func checkPatch(t *testing.T, g *graph.Graph, ins, del [][2]int32) *graph.Graph {
	t.Helper()
	n := g.NumVertices()
	before := bytesOf(t, g)
	edges := make(map[[2]int32]bool)
	for u := int32(0); int(u) < n; u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				edges[[2]int32{u, v}] = true
			}
		}
	}
	valid, named := true, make(map[[2]int32]bool)
	for i, e := range append(append([][2]int32(nil), ins...), del...) {
		deleted, key := i >= len(ins), [2]int32{min(e[0], e[1]), max(e[0], e[1])}
		if key[0] < 0 || int(key[1]) >= n || key[0] == key[1] || named[key] || edges[key] != deleted {
			valid = false
		}
		named[key], edges[key] = true, !deleted
	}
	got, err := g.Patch(ins, del)
	if !bytes.Equal(bytesOf(t, g), before) {
		t.Fatalf("Patch(%v, %v) changed the graph it patched", ins, del)
	}
	if !valid {
		if err == nil || got != nil {
			t.Fatalf("Patch(%v, %v) on %v: got %v, %v; want an error and no graph", ins, del, g, got, err)
		}
		return nil
	}
	if err != nil {
		t.Fatalf("Patch(%v, %v) on %v: %v", ins, del, g, err)
	}
	var list [][2]int32
	for e, present := range edges {
		if present {
			list = append(list, e)
		}
	}
	if want := graph.MustFromEdges(n, list); !bytes.Equal(bytesOf(t, got), bytesOf(t, want)) {
		t.Fatalf("Patch(%v, %v) gives %v, the Builder %v: bytes differ", ins, del, got, want)
	}
	return got
}

// randomBatch draws up to size distinct edges to insert or delete, valid
// against g. An endpoint is vertex 0, vertex n-1 or the hub as often as a
// uniform vertex, and an edge is named in either orientation.
func randomBatch(rng *rand.Rand, g *graph.Graph, size int) (ins, del [][2]int32) {
	n := int32(g.NumVertices())
	_, hub := g.MaxDegree()
	end := func() int32 {
		return [4]int32{0, n - 1, hub, rng.Int31n(n)}[rng.Intn(4)]
	}
	named := make(map[[2]int32]bool)
	for tries := 0; tries < 4*size && len(ins)+len(del) < size; tries++ {
		u, v := end(), end()
		deleting := rng.Intn(2) == 0 && g.Degree(u) > 0
		if deleting {
			nb := g.Neighbors(u)
			v = nb[rng.Intn(len(nb))]
		}
		key := [2]int32{min(u, v), max(u, v)}
		if u == v || named[key] || (!deleting && g.HasEdge(u, v)) {
			continue
		}
		named[key] = true
		if deleting {
			del = append(del, [2]int32{u, v})
		} else {
			ins = append(ins, [2]int32{u, v})
		}
	}
	return ins, del
}

// TestPatchMatchesBuilder chains seeded random batches over BA, ER, star,
// path and edgeless graphs. Every round also deletes every edge of one
// vertex, the hub among them, and then inserts two into the row it
// emptied, so rows shrink to nothing and grow from nothing. Then each way
// a batch can be invalid must give an error and no graph, valid arcs in
// rows before and after it included.
func TestPatchMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ba", gen.BarabasiAlbert(400, 3, 7)},
		{"er", gen.ErdosRenyi(300, 450, 7)},
		{"star", gen.Star(60)},
		{"path", gen.Path(50)},
		{"edgeless", graph.MustFromEdges(40, nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			n := int32(g.NumVertices())
			for round := 0; round < 24; round++ {
				ins, del := randomBatch(rng, g, 1+rng.Intn(24))
				if g = checkPatch(t, g, ins, del); g == nil {
					t.Fatalf("round %d: drew an invalid batch", round)
				}
				_, u := g.MaxDegree()
				if round%2 == 1 {
					u = [3]int32{0, n - 1, rng.Int31n(n)}[round%3]
				}
				var cut [][2]int32
				for _, w := range g.Neighbors(u) {
					cut = append(cut, [2]int32{w, u})
				}
				g = checkPatch(t, g, nil, cut)
				if g == nil || g.Degree(u) != 0 {
					t.Fatalf("round %d: deleting every edge of %d left %v", round, u, g)
				}
				if g = checkPatch(t, g, [][2]int32{{u, (u + 1) % n}, {(u + 2) % n, u}}, nil); g == nil {
					t.Fatalf("round %d: could not refill row %d", round, u)
				}
			}
		})
	}

	g := gen.BarabasiAlbert(100, 2, 3)
	present := [2]int32{50, g.Neighbors(50)[0]}
	absent := [2]int32{0, 1}
	for g.HasEdge(absent[0], absent[1]) {
		absent[1]++
	}
	before, after := [2]int32{0, 99}, [2]int32{98, 99}
	if g.HasEdge(before[0], before[1]) || g.HasEdge(after[0], after[1]) {
		t.Fatal("test premise broken: the valid inserts are present")
	}
	// One edge, {0,1}: two inserts grow row 0 before the absent delete in
	// rows 2 and 3 is met, past what the batch's net size leaves room for.
	oneEdge := graph.MustFromEdges(4, [][2]int32{{0, 1}})
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		ins, del [][2]int32
	}{
		{"insert present", g, [][2]int32{before, present, after}, nil},
		{"delete absent", g, [][2]int32{before, after}, [][2]int32{absent}},
		{"delete absent after inserts", oneEdge, [][2]int32{{0, 2}, {0, 3}}, [][2]int32{{2, 3}}},
		{"delete from no edges", graph.MustFromEdges(3, nil), nil, [][2]int32{{0, 1}}},
		{"self-loop insert", g, [][2]int32{{5, 5}}, nil},
		{"self-loop delete", g, nil, [][2]int32{{5, 5}}},
		{"insert twice", g, [][2]int32{absent, absent}, nil},
		{"insert both ways", g, [][2]int32{absent, {absent[1], absent[0]}}, nil},
		{"delete twice", g, nil, [][2]int32{present, present}},
		{"insert and delete", g, [][2]int32{absent}, [][2]int32{absent}},
		{"out of range", g, [][2]int32{before, {0, 100}}, nil},
		{"negative", g, nil, [][2]int32{{-1, 0}}},
	} {
		t.Run("invalid/"+tc.name, func(t *testing.T) {
			if checkPatch(t, tc.g, tc.ins, tc.del) != nil {
				t.Fatal("the reference calls the batch valid")
			}
		})
	}
}

// FuzzPatch holds Patch to checkPatch's property on arbitrary batches,
// valid or not, over graphs of up to 16 vertices: edges are byte pairs
// modulo n, and ops three bytes each — the low bit of the first says
// delete — whose endpoints run from -1 to 18, so that some lie outside
// [0,n). CI runs this target in the fuzz job.
func FuzzPatch(f *testing.F) {
	f.Add(uint8(6), []byte{0, 1, 1, 2, 2, 3}, []byte{0, 1, 5, 1, 2, 3, 1, 3, 4})
	f.Add(uint8(5), []byte{0, 1, 0, 2, 0, 3, 0, 4}, []byte{1, 1, 2, 1, 1, 3, 1, 1, 4, 1, 1, 5})
	f.Add(uint8(4), []byte{}, []byte{0, 1, 1, 0, 2, 1, 0, 1, 4})
	f.Add(uint8(3), []byte{0, 1}, []byte{1, 2, 1, 0, 0, 2})
	f.Fuzz(func(t *testing.T, n uint8, edges, ops []byte) {
		n %= 17
		b := graph.NewBuilder(int(n))
		for i := 0; n > 0 && i+1 < len(edges); i += 2 {
			b.AddEdge(int32(edges[i]%n), int32(edges[i+1]%n))
		}
		var ins, del [][2]int32
		for i := 0; i+2 < len(ops); i += 3 {
			e := [2]int32{int32(ops[i+1]%20) - 1, int32(ops[i+2]%20) - 1}
			if ops[i]&1 == 1 {
				del = append(del, e)
			} else {
				ins = append(ins, e)
			}
		}
		checkPatch(t, b.MustBuild(), ins, del)
	})
}
