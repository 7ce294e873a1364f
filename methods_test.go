package highway_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"highway"
	"highway/internal/container"
	"highway/internal/oracle"
)

// TestMethodRegistry pins the registry contents and the name-resolution
// error taxonomy.
func TestMethodRegistry(t *testing.T) {
	want := []string{"hl", "dynhl", "pll", "fd", "isl"}
	got := highway.MethodNames()
	if len(got) != len(want) {
		t.Fatalf("MethodNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MethodNames() = %v, want %v", got, want)
		}
	}
	for _, m := range highway.Methods() {
		if m.Description == "" {
			t.Errorf("method %q has no description", m.Name)
		}
	}

	t.Run("aliases and case", func(t *testing.T) {
		for name, canonical := range map[string]string{
			"hl": "hl", "HL": "hl", "highway": "hl", "hl-p": "hl",
			"IS-L": "isl", "islabel": "isl",
			"dynamic": "dynhl", "dyn": "dynhl",
			" fd ": "fd", "PLL": "pll",
		} {
			m, err := highway.MethodByName(name)
			if err != nil {
				t.Fatalf("MethodByName(%q): %v", name, err)
			}
			if m.Name != canonical {
				t.Fatalf("MethodByName(%q) = %q, want %q", name, m.Name, canonical)
			}
		}
	})

	t.Run("unknown name", func(t *testing.T) {
		for _, name := range []string{"", "bfs", "hl2", "landmark"} {
			_, err := highway.MethodByName(name)
			if !errors.Is(err, highway.ErrUnknownMethod) {
				t.Fatalf("MethodByName(%q) error = %v, want ErrUnknownMethod", name, err)
			}
			// The error must teach the caller the valid names.
			for _, known := range highway.MethodNames() {
				if !strings.Contains(err.Error(), known) {
					t.Fatalf("error %q does not list method %q", err, known)
				}
			}
			if _, err := highway.Build(context.Background(), testGraphSmall(t), name); !errors.Is(err, highway.ErrUnknownMethod) {
				t.Fatalf("Build(%q) error = %v, want ErrUnknownMethod", name, err)
			}
		}
	})

	// The one method whose index accepts edge updates is dynhl, the
	// paper's labelling made dynamic; the baselines are built once, as the
	// paper measures them.
	t.Run("dynamic flags", func(t *testing.T) {
		for _, m := range highway.Methods() {
			ix, err := highway.Build(context.Background(), testGraphSmall(t), m.Name, buildOptionsFor(m.Name)...)
			if err != nil {
				t.Fatal(err)
			}
			_, dynamic := ix.(interface{ InsertEdges([][2]int32) error })
			if dynamic != (m.Name == "dynhl") {
				t.Fatalf("method %q accepts edge updates: %v", m.Name, dynamic)
			}
		}
	})
}

func testGraphSmall(t *testing.T) *highway.Graph {
	t.Helper()
	return highway.BarabasiAlbert(200, 3, 7)
}

// buildOptionsFor keeps per-method test configuration in one place:
// small landmark counts so the corner-case graphs stay buildable.
func buildOptionsFor(name string) []highway.BuildOption {
	opts := []highway.BuildOption{highway.WithLandmarkCount(4)}
	if name == "pll" || name == "fd" {
		// Exercise the bit-parallel variants through the same entry point.
		opts = append(opts, highway.WithBitParallel(4))
	}
	return opts
}

// TestBuildMethodsOracle holds every registered method, built through
// highway.Build, to the shared differential suite: corner-case graphs
// checked on all pairs, through every surface of the DistanceIndex
// contract (Distance, Searcher, UpperBound admissibility, Stats).
func TestBuildMethodsOracle(t *testing.T) {
	for _, m := range highway.Methods() {
		t.Run(m.Name, func(t *testing.T) {
			oracle.CheckIndexCases(t, func(t *testing.T, g *oracleGraph) highway.DistanceIndex {
				ix, err := highway.Build(context.Background(), g, m.Name, buildOptionsFor(m.Name)...)
				if err != nil {
					t.Fatalf("Build(%q): %v", m.Name, err)
				}
				if got := ix.Stats().Method; got != m.Name {
					t.Fatalf("Stats().Method = %q, want %q", got, m.Name)
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
	for _, m := range highway.Methods() {
		t.Run(m.Name, func(t *testing.T) {
			ix, err := highway.Build(context.Background(), g, m.Name, buildOptionsFor(m.Name)...)
			if err != nil {
				t.Fatal(err)
			}
			hl, ok := ix.(*highway.Index)
			if !ok {
				if _, saves := ix.(interface{ Save(string) error }); saves {
					t.Fatalf("%s index has a Save method", m.Name)
				}
				return
			}
			path := filepath.Join(t.TempDir(), m.Name+".idx")
			if err := hl.Save(path); err != nil {
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
	edges := [][2]int32{{0, 150}, {3, 199}, {17, 101}}
	t.Run("dynhl", func(t *testing.T) {
		ix, err := highway.Build(context.Background(), g, "dynhl", highway.WithLandmarkCount(4))
		if err != nil {
			t.Fatal(err)
		}
		dyn := ix.(*highway.DynamicIndex)
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
		sr, bsr := ix.NewSearcher(), back.NewSearcher()
		for _, p := range oracle.SampledPairs(g.NumVertices(), 200, 13) {
			if got, want := bsr.Distance(p[0], p[1]), sr.Distance(p[0], p[1]); got != want {
				t.Fatalf("loaded Distance(%d,%d) = %d, original %d", p[0], p[1], got, want)
			}
		}
	})
	t.Run("fd", func(t *testing.T) {
		ix, err := highway.Build(context.Background(), g, "fd", highway.WithLandmarkCount(4))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := ix.(interface{ InsertEdge(a, b int32) error }); ok {
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

	hlIx, err := highway.Build(context.Background(), g, "hl", highway.WithLandmarkCount(8))
	if err != nil {
		t.Fatal(err)
	}
	hlPath := filepath.Join(dir, "g.idx")
	if err := hlIx.(*highway.Index).Save(hlPath); err != nil {
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

// TestBuildOptions exercises the functional options through observable
// effects: explicit landmarks are honored, worker count does not change
// the labelling, progress fires, and the server serves the built index.
func TestBuildOptions(t *testing.T) {
	g := testGraphSmall(t)
	ctx := context.Background()
	lm, err := highway.SelectLandmarks(g, 6, highway.ByDegree, 0)
	if err != nil {
		t.Fatal(err)
	}

	var calls int
	ix, err := highway.Build(ctx, g, "hl",
		highway.WithLandmarks(lm),
		highway.WithWorkers(1),
		highway.WithProgress(func(done, total int) { calls++ }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("WithProgress callback never fired")
	}
	if got := ix.Stats().NumLandmarks; got != len(lm) {
		t.Fatalf("NumLandmarks = %d, want %d", got, len(lm))
	}

	par, err := highway.Build(ctx, g, "hl", highway.WithLandmarks(lm))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range oracle.SampledPairs(g.NumVertices(), 200, 3) {
		if a, b := ix.Distance(p[0], p[1]), par.Distance(p[0], p[1]); a != b {
			t.Fatalf("sequential/parallel builds disagree on (%d,%d): %d vs %d", p[0], p[1], a, b)
		}
	}

	srv := highway.NewServer(ix.(*highway.Index), highway.ServeConfig{})
	d, err := srv.Distance(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := ix.Distance(0, 1); d != want {
		t.Fatalf("served distance %d, index says %d", d, want)
	}
}
