package highway_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"highway"
	"highway/internal/container"
	"highway/internal/fd"
	"highway/internal/isl"
	"highway/internal/oracle"
	"highway/internal/pll"
)

// testMethod is one labelling the root tests and benchmarks hold to the
// same checks: the paper's index, its dynamic form and the three
// baselines, each built from its own package. build takes the landmark
// set; pll and isl ignore it.
type testMethod struct {
	name  string
	build func(ctx context.Context, g *highway.Graph, lm []int32) (highway.DistanceIndex, error)
}

// testMethods keeps the per-method test configuration in one place; pll
// and fd run their bit-parallel variants.
var testMethods = []testMethod{
	{"hl", func(ctx context.Context, g *highway.Graph, lm []int32) (highway.DistanceIndex, error) {
		return highway.Build(ctx, g, lm, highway.BuildOptions{})
	}},
	{"dynhl", func(ctx context.Context, g *highway.Graph, lm []int32) (highway.DistanceIndex, error) {
		ix, err := highway.Build(ctx, g, lm, highway.BuildOptions{})
		if err != nil {
			return nil, err
		}
		return highway.DynamicFromIndex(ix)
	}},
	{"pll", func(ctx context.Context, g *highway.Graph, _ []int32) (highway.DistanceIndex, error) {
		return pll.BuildBP(ctx, g, 4)
	}},
	{"fd", func(ctx context.Context, g *highway.Graph, lm []int32) (highway.DistanceIndex, error) {
		return fd.BuildBP(ctx, g, lm)
	}},
	{"isl", func(ctx context.Context, g *highway.Graph, _ []int32) (highway.DistanceIndex, error) {
		return isl.Build(ctx, g, isl.DefaultOptions())
	}},
}

// buildTest builds m over g with testLandmarks, failing t on error.
func buildTest(t testing.TB, m testMethod, g *highway.Graph) highway.DistanceIndex {
	t.Helper()
	ix, err := m.build(context.Background(), g, testLandmarks(t, g, 4))
	if err != nil {
		t.Fatalf("build %s: %v", m.name, err)
	}
	return ix
}

// testLandmarks selects min(k, n) degree-ranked landmarks, so the
// corner-case graphs stay buildable.
func testLandmarks(t testing.TB, g *highway.Graph, k int) []int32 {
	t.Helper()
	lm, err := highway.SelectLandmarks(g, min(k, g.NumVertices()))
	if err != nil {
		t.Fatal(err)
	}
	return lm
}

func testGraphSmall(t *testing.T) *highway.Graph {
	t.Helper()
	return highway.BarabasiAlbert(200, 3, 7)
}

// TestBuildMethodsOracle holds every method to the shared differential
// suite: corner-case graphs checked on all pairs, through every surface
// of the DistanceIndex contract (Distance, Searcher, UpperBound
// admissibility, Stats).
func TestBuildMethodsOracle(t *testing.T) {
	for _, m := range testMethods {
		t.Run(m.name, func(t *testing.T) {
			oracle.CheckIndexCases(t, func(t *testing.T, g *oracleGraph) highway.DistanceIndex {
				ix := buildTest(t, m, g)
				if got := ix.Stats().Method; got != m.name {
					t.Fatalf("Stats().Method = %q, want %q", got, m.name)
				}
				return ix
			})
		})
	}
}

// oracleGraph aliases the internal graph type for the test callbacks
// (highway.Graph is the same alias).
type oracleGraph = highway.Graph

// TestMethodRoundTrip pins which methods persist. The highway cover
// labelling round-trips through Save → LoadIndex with its counts and every
// answer intact; every other method is built, queried and measured in
// memory and has no Save to call.
func TestMethodRoundTrip(t *testing.T) {
	g := testGraphSmall(t)
	pairs := oracle.SampledPairs(g.NumVertices(), 300, 11)
	for _, m := range testMethods {
		t.Run(m.name, func(t *testing.T) {
			ix := buildTest(t, m, g)
			saver, saves := ix.(interface{ Save(string) error })
			if saves != (m.name == "hl") {
				t.Fatalf("%s index has a Save method: %v", m.name, saves)
			}
			if !saves {
				return
			}
			path := filepath.Join(t.TempDir(), m.name+".idx")
			if err := saver.Save(path); err != nil {
				t.Fatalf("Save: %v", err)
			}
			back, err := highway.LoadIndex(path, g)
			if err != nil {
				t.Fatalf("LoadIndex: %v", err)
			}
			if st, bst := ix.Stats(), back.Stats(); st != bst {
				t.Fatalf("stats changed across the round trip:\n  saved  %+v\n  loaded %+v", st, bst)
			}
			sr, bsr := ix.NewSearcher(), back.NewSearcher()
			for _, p := range pairs {
				if got, want := bsr.Distance(p[0], p[1]), sr.Distance(p[0], p[1]); got != want {
					t.Fatalf("loaded Distance(%d,%d) = %d, original %d", p[0], p[1], got, want)
				}
			}
			if err := oracle.DiffIndex(g, back, pairs); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMethodRoundTripDynamic pins how an evolved labelling persists: a
// dynhl index saves what Freeze hands out, the core index over the evolved
// graph, and insertions made before the save are visible after LoadIndex
// against that graph. fd is static, so it has no evolved state to carry.
func TestMethodRoundTripDynamic(t *testing.T) {
	g := testGraphSmall(t)
	lm := testLandmarks(t, g, 4)
	edges := [][2]int32{{0, 150}, {3, 199}, {17, 101}}
	t.Run("dynhl", func(t *testing.T) {
		ix, err := highway.Build(context.Background(), g, lm, highway.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dyn, err := highway.DynamicFromIndex(ix)
		if err != nil {
			t.Fatal(err)
		}
		if err := dyn.InsertEdges(edges); err != nil {
			t.Fatal(err)
		}
		evolved, frozen, err := dyn.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "dynhl.idx")
		if err := frozen.Save(path); err != nil {
			t.Fatal(err)
		}
		back, err := highway.LoadIndex(path, evolved)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edges {
			if d := back.Distance(e[0], e[1]); d != 1 {
				t.Fatalf("inserted edge {%d,%d} lost across round trip: distance %d", e[0], e[1], d)
			}
		}
		sr, bsr := dyn.NewSearcher(), back.NewSearcher()
		for _, p := range oracle.SampledPairs(g.NumVertices(), 200, 13) {
			if got, want := bsr.Distance(p[0], p[1]), sr.Distance(p[0], p[1]); got != want {
				t.Fatalf("loaded Distance(%d,%d) = %d, original %d", p[0], p[1], got, want)
			}
		}
	})
	t.Run("fd", func(t *testing.T) {
		ix, err := fd.Build(context.Background(), g, lm)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := any(ix).(interface{ InsertEdges(edges [][2]int32) error }); ok {
			t.Fatal("fd index accepts edge insertions")
		}
	})
}

// retiredIndexFile is an index file as a baseline method wrote it before
// those formats were retired: a container whose first section is the
// method tag.
func retiredIndexFile(t testing.TB, methodName string, n int) []byte {
	t.Helper()
	var file bytes.Buffer
	h := container.Header{N: uint64(n), K: 4}
	if err := container.WriteContainer(&file, h, []container.Section{{ID: container.SectTag, Payload: []byte(methodName)}}); err != nil {
		t.Fatal(err)
	}
	return file.Bytes()
}

// TestLoadIndexCrossMethod pins the one check left of the method tag: a
// file a baseline wrote, whose first section names its method, fails
// LoadIndex and ReadIndex (core.Read) with one line naming the method,
// while the highway cover labelling's own file loads.
func TestLoadIndexCrossMethod(t *testing.T) {
	g := testGraphSmall(t)
	dir := t.TempDir()
	for _, name := range []string{"pll", "dynhl"} {
		file := retiredIndexFile(t, name, g.NumVertices())
		path := filepath.Join(dir, name+".idx")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		_, loadErr := highway.LoadIndex(path, g)
		_, readErr := highway.ReadIndex(bytes.NewReader(file), g)
		for what, err := range map[string]error{"LoadIndex": loadErr, "ReadIndex": readErr} {
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(name)) ||
				!strings.Contains(err.Error(), "no longer loadable") || strings.Contains(err.Error(), "\n") {
				t.Fatalf("%s on a %s file: err = %v, want one line naming %q as no longer loadable", what, name, err, name)
			}
		}
	}

	hlIx, err := highway.Build(context.Background(), g, testLandmarks(t, g, 8), highway.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hlPath := filepath.Join(dir, "g.idx")
	if err := hlIx.Save(hlPath); err != nil {
		t.Fatal(err)
	}
	back, err := highway.LoadIndex(hlPath, g)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Stats().Method; got != "hl" {
		t.Fatalf("loaded core index reports method %q", got)
	}
}

// TestBuildOptions exercises BuildOptions through observable effects:
// the given landmarks are the index's, the worker count does not change
// the labelling, progress fires, and the server serves the built index.
func TestBuildOptions(t *testing.T) {
	g := testGraphSmall(t)
	ctx := context.Background()
	lm := testLandmarks(t, g, 6)

	var calls int
	ix, err := highway.Build(ctx, g, lm, highway.BuildOptions{
		Workers:  1,
		Progress: func(done, total int) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("Progress callback never fired")
	}
	if got := ix.Stats().NumLandmarks; got != len(lm) {
		t.Fatalf("NumLandmarks = %d, want %d", got, len(lm))
	}

	par, err := highway.Build(ctx, g, lm, highway.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range oracle.SampledPairs(g.NumVertices(), 200, 3) {
		if a, b := ix.Distance(p[0], p[1]), par.Distance(p[0], p[1]); a != b {
			t.Fatalf("sequential/parallel builds disagree on (%d,%d): %d vs %d", p[0], p[1], a, b)
		}
	}

	srv := highway.NewServer(ix, highway.ServeConfig{})
	d, err := srv.Distance(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := ix.Distance(0, 1); d != want {
		t.Fatalf("served distance %d, index says %d", d, want)
	}
}
