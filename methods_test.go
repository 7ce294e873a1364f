package highway_test

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"highway"
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

	t.Run("dynamic flags", func(t *testing.T) {
		dyn := map[string]bool{"dynhl": true, "fd": true}
		for _, m := range highway.Methods() {
			if m.Dynamic != dyn[m.Name] {
				t.Fatalf("method %q Dynamic = %v", m.Name, m.Dynamic)
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

// TestMethodRoundTrip pins Build → Save → LoadIndexAny for every
// registered method: the tag survives, the loaded index answers every
// pair identically, and the entry counts agree.
func TestMethodRoundTrip(t *testing.T) {
	g := testGraphSmall(t)
	pairs := oracle.SampledPairs(g.NumVertices(), 300, 11)
	for _, m := range highway.Methods() {
		t.Run(m.Name, func(t *testing.T) {
			ix, err := highway.Build(context.Background(), g, m.Name, buildOptionsFor(m.Name)...)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), m.Name+".idx")
			if err := ix.Save(path); err != nil {
				t.Fatalf("Save: %v", err)
			}
			tag, err := highway.SniffIndexMethod(path)
			if err != nil {
				t.Fatalf("SniffIndexMethod: %v", err)
			}
			if tag != m.Name {
				t.Fatalf("sniffed method %q, want %q", tag, m.Name)
			}
			back, err := highway.LoadIndexAny(path, g)
			if err != nil {
				t.Fatalf("LoadIndexAny: %v", err)
			}
			st, bst := ix.Stats(), back.Stats()
			if st.Method != bst.Method || st.NumEntries != bst.NumEntries || st.NumLandmarks != bst.NumLandmarks {
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

// TestMethodRoundTripDynamic pins the dynamic methods' evolved state
// across Save/Load: insertions made before Save must be visible after
// LoadIndexAny (dynhl embeds its evolved graph; fd persists its
// overlay).
func TestMethodRoundTripDynamic(t *testing.T) {
	g := testGraphSmall(t)
	edges := [][2]int32{{0, 150}, {3, 199}, {17, 101}}
	for _, name := range []string{"dynhl", "fd"} {
		t.Run(name, func(t *testing.T) {
			ix, err := highway.Build(context.Background(), g, name, highway.WithLandmarkCount(4))
			if err != nil {
				t.Fatal(err)
			}
			ins, ok := ix.(interface{ InsertEdge(a, b int32) error })
			if !ok {
				t.Fatalf("%s index does not expose InsertEdge", name)
			}
			for _, e := range edges {
				if err := ins.InsertEdge(e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join(t.TempDir(), name+".idx")
			if err := ix.Save(path); err != nil {
				t.Fatal(err)
			}
			back, err := highway.LoadIndexAny(path, g)
			if err != nil {
				t.Fatal(err)
			}
			sr, bsr := ix.NewSearcher(), back.NewSearcher()
			for _, e := range edges {
				if d := bsr.Distance(e[0], e[1]); d != 1 {
					t.Fatalf("inserted edge {%d,%d} lost across round trip: distance %d", e[0], e[1], d)
				}
			}
			for _, p := range oracle.SampledPairs(g.NumVertices(), 200, 13) {
				if got, want := bsr.Distance(p[0], p[1]), sr.Distance(p[0], p[1]); got != want {
					t.Fatalf("loaded Distance(%d,%d) = %d, original %d", p[0], p[1], got, want)
				}
			}
		})
	}
}

// TestLoadIndexCrossMethod pins the failure modes: loading another
// method's file through the core-only LoadIndex names the actual
// method, and untagged (core) files load as "hl" through LoadIndexAny.
func TestLoadIndexCrossMethod(t *testing.T) {
	g := testGraphSmall(t)
	ctx := context.Background()

	pllIx, err := highway.Build(ctx, g, "pll")
	if err != nil {
		t.Fatal(err)
	}
	pllPath := filepath.Join(t.TempDir(), "g.pll.idx")
	if err := pllIx.Save(pllPath); err != nil {
		t.Fatal(err)
	}
	const want = `index file is method "pll", not "hl": load it through the method registry (highway.LoadIndexAny)`
	if _, err := highway.LoadIndex(pllPath, g); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("LoadIndex on a pll file: err = %v, want %q", err, want)
	}

	hlIx, err := highway.Build(ctx, g, "hl", highway.WithLandmarkCount(8))
	if err != nil {
		t.Fatal(err)
	}
	hlPath := filepath.Join(t.TempDir(), "g.idx")
	if err := hlIx.Save(hlPath); err != nil {
		t.Fatal(err)
	}
	if tag, err := highway.SniffIndexMethod(hlPath); err != nil || tag != "hl" {
		t.Fatalf("SniffIndexMethod(core file) = %q, %v; want \"hl\"", tag, err)
	}
	back, err := highway.LoadIndexAny(hlPath, g)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Stats().Method; got != "hl" {
		t.Fatalf("loaded core index reports method %q", got)
	}
}

// TestBuildOptions exercises the functional options through observable
// effects: explicit landmarks are honored, worker count does not change
// the labelling, progress fires, and the method-agnostic server serves
// any built index.
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

	srv := highway.NewServerFor(ix, highway.ServeConfig{})
	d, err := srv.Distance(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := ix.Distance(0, 1); d != want {
		t.Fatalf("served distance %d, index says %d", d, want)
	}
}
