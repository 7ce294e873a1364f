package highway

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"highway/internal/bfs"
	"highway/internal/core"
	"highway/internal/dynhl"
	"highway/internal/fd"
	"highway/internal/isl"
	"highway/internal/method"
	"highway/internal/pll"
)

// The unified method API.
//
// Every distance labelling in this repository — the paper's highway
// cover labelling, its dynamic extension, and the three baselines the
// paper evaluates against — implements one interface (DistanceIndex)
// and registers under one name, so the benchmark runner and the
// differential tests build, query and measure each of them the same way:
//
//	ix, err := highway.Build(ctx, g, "pll")
//	ix, err = highway.Build(ctx, g, "hl",
//	        highway.WithLandmarks(landmarks), highway.WithWorkers(8))
//	d := ix.Distance(12, 34)
//	st := ix.Stats() // label entries and bytes under the paper's accounting
//
// Only the highway cover labelling is saved, loaded and served (Index.Save,
// LoadIndex, NewServer); the baselines exist for the paper's build time,
// query time and label size columns.

// DistanceIndex is the method-agnostic exact distance oracle every
// labelling implements: queries, label upper bounds, per-goroutine
// searchers and statistics. See internal/method for the contract details.
type DistanceIndex = method.DistanceIndex

// DistanceSearcher is the per-goroutine searcher interface returned by
// DistanceIndex.NewSearcher. The concrete highway cover Searcher (with
// Path, DistanceBatch and DistanceMany) is available via Index.Searcher.
type DistanceSearcher = method.Searcher

// ErrUnknownMethod is wrapped by MethodByName and Build when the requested method name is not registered; errors.Is
// distinguishes it from build and I/O failures.
var ErrUnknownMethod = errors.New("highway: unknown method")

// BuildConfig collects the cross-method build parameters; it is
// assembled from BuildOption values by Build. The zero value selects 20
// degree-ranked landmarks (clamped to n), all cores, and each method's
// default configuration.
type BuildConfig struct {
	// Landmarks is the explicit landmark set for the landmark-based
	// methods (hl, fd, dynhl). When nil, LandmarkCount landmarks are
	// selected with Strategy/Seed. PLL and IS-L ignore it.
	Landmarks []int32
	// LandmarkCount is the number of landmarks to select when Landmarks
	// is nil (default 20, the paper's setting; clamped to n).
	LandmarkCount int
	// Strategy selects the landmark strategy (default ByDegree).
	Strategy LandmarkStrategy
	// Seed feeds the randomized landmark strategies.
	Seed int64
	// Workers is the parallel build width where the method supports it
	// (hl; 0 = all cores, 1 = the paper's sequential HL).
	Workers int
	// Progress, when non-nil, receives (done, total) build progress
	// where the method reports it (hl).
	Progress func(done, total int)
	// BitParallel enables bit-parallel trees: for pll the tree count
	// (the paper runs 50), for fd any value > 0 selects the "20+64"
	// configuration (one tree per landmark).
	BitParallel int
	// ISL configures the IS-Label hierarchy (DefaultOptions when zero).
	ISL ISLOptions
}

// BuildOption customizes Build.
type BuildOption func(*BuildConfig)

// WithLandmarks pins the landmark set for the landmark-based methods
// (hl, fd, dynhl), bypassing strategy selection.
func WithLandmarks(landmarks []int32) BuildOption {
	return func(c *BuildConfig) { c.Landmarks = landmarks }
}

// WithLandmarkCount selects k landmarks with the configured strategy
// (clamped to the vertex count).
func WithLandmarkCount(k int) BuildOption {
	return func(c *BuildConfig) { c.LandmarkCount = k }
}

// WithStrategy selects the landmark strategy used when no explicit
// landmark set is given.
func WithStrategy(s LandmarkStrategy) BuildOption {
	return func(c *BuildConfig) { c.Strategy = s }
}

// WithSeed seeds the randomized landmark strategies.
func WithSeed(seed int64) BuildOption {
	return func(c *BuildConfig) { c.Seed = seed }
}

// WithWorkers sets the parallel build width (0 = all cores, 1 = the
// calling goroutine alone). For hl and dynhl a worker is a share of each
// level's vertices in the one traversal that labels every landmark, not a
// landmark's BFS; the index is the same for every width (Lemma 3.11).
func WithWorkers(workers int) BuildOption {
	return func(c *BuildConfig) { c.Workers = workers }
}

// WithProgress installs a build progress callback.
func WithProgress(fn func(done, total int)) BuildOption {
	return func(c *BuildConfig) { c.Progress = fn }
}

// WithBitParallel enables bit-parallel trees (pll: tree count, fd: any
// value > 0 enables one tree per landmark).
func WithBitParallel(n int) BuildOption {
	return func(c *BuildConfig) { c.BitParallel = n }
}

// WithISLOptions configures the IS-Label hierarchy.
func WithISLOptions(opt ISLOptions) BuildOption {
	return func(c *BuildConfig) { c.ISL = opt }
}

// Method describes one registered labelling method.
type Method struct {
	// Name is the registry key ("hl", "pll", "fd", "isl", "dynhl").
	Name string
	// Aliases are accepted alternative spellings (e.g. "is-l").
	Aliases []string
	// Description is a one-line summary for CLI help output.
	Description string
	// Landmarks reports whether the method consumes a landmark set.
	Landmarks bool

	build func(ctx context.Context, g *Graph, cfg *BuildConfig) (DistanceIndex, error)
}

// methodRegistry holds the five labellings in canonical order: the
// paper's method first, then its dynamic extension, then the baselines
// in the order the paper introduces them.
var methodRegistry = []Method{
	{
		Name:        "hl",
		Aliases:     []string{"highway", "hl-p"},
		Description: "highway cover labelling (the paper's method; parallel direction-optimizing build)",
		Landmarks:   true,
		build: func(ctx context.Context, g *Graph, cfg *BuildConfig) (DistanceIndex, error) {
			lm, err := cfg.landmarksFor(g)
			if err != nil {
				return nil, err
			}
			return core.BuildOpts(ctx, g, lm, core.Options{Workers: cfg.Workers, Progress: cfg.Progress})
		},
	},
	{
		Name:        "dynhl",
		Aliases:     []string{"dynamic", "dyn"},
		Description: "dynamic highway cover labelling (exact online edge insertion by selective landmark rebuild)",
		Landmarks:   true,
		build: func(ctx context.Context, g *Graph, cfg *BuildConfig) (DistanceIndex, error) {
			lm, err := cfg.landmarksFor(g)
			if err != nil {
				return nil, err
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return dynhl.Build(g, lm)
		},
	},
	{
		Name:        "pll",
		Description: "pruned landmark labelling (Akiba et al. 2013; 2-hop cover, optional bit-parallel trees)",
		build: func(ctx context.Context, g *Graph, cfg *BuildConfig) (DistanceIndex, error) {
			if cfg.BitParallel > 0 {
				return pll.BuildBP(ctx, g, cfg.BitParallel)
			}
			return pll.Build(ctx, g)
		},
	},
	{
		Name:        "fd",
		Description: "fully dynamic landmark SPTs (Hayashi et al. 2016; optional bit-parallel trees)",
		Landmarks:   true,
		build: func(ctx context.Context, g *Graph, cfg *BuildConfig) (DistanceIndex, error) {
			lm, err := cfg.landmarksFor(g)
			if err != nil {
				return nil, err
			}
			if cfg.BitParallel > 0 {
				return fd.BuildBP(ctx, g, lm)
			}
			return fd.Build(ctx, g, lm)
		},
	},
	{
		Name:        "isl",
		Aliases:     []string{"is-l", "islabel"},
		Description: "IS-Label (Fu et al. 2013; independent-set hierarchy over a weighted core)",
		build: func(ctx context.Context, g *Graph, cfg *BuildConfig) (DistanceIndex, error) {
			opt := cfg.ISL
			if opt.Levels == 0 {
				opt = isl.DefaultOptions()
			}
			return isl.Build(ctx, g, opt)
		},
	},
}

// landmarksFor resolves the configured landmark set for g: the explicit
// set when given, otherwise LandmarkCount (default 20, clamped to n)
// landmarks under Strategy/Seed.
func (c *BuildConfig) landmarksFor(g *Graph) ([]int32, error) {
	if c.Landmarks != nil {
		return c.Landmarks, nil
	}
	k := c.LandmarkCount
	if k <= 0 {
		k = 20
	}
	if n := g.NumVertices(); k > n {
		k = n
	}
	return SelectLandmarks(g, k, c.Strategy, c.Seed)
}

// Methods returns the registered methods in canonical order. The
// returned slice is a copy; mutating it does not affect the registry.
func Methods() []Method {
	return append([]Method(nil), methodRegistry...)
}

// MethodNames returns the canonical registry names in order.
func MethodNames() []string {
	names := make([]string, len(methodRegistry))
	for i, m := range methodRegistry {
		names[i] = m.Name
	}
	return names
}

// MethodByName resolves a method name or alias (case-insensitive).
// Unknown names return an error wrapping ErrUnknownMethod that lists
// the registered names.
func MethodByName(name string) (Method, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "" {
		return Method{}, fmt.Errorf("%w: empty name (known: %s)", ErrUnknownMethod, strings.Join(MethodNames(), ", "))
	}
	for _, m := range methodRegistry {
		if m.Name == key {
			return m, nil
		}
		for _, a := range m.Aliases {
			if a == key {
				return m, nil
			}
		}
	}
	return Method{}, fmt.Errorf("%w: %q (known: %s)", ErrUnknownMethod, name, strings.Join(MethodNames(), ", "))
}

// Build constructs the named method's index over g. It is the single
// entry point behind which every labelling builds:
//
//	ix, err := highway.Build(ctx, g, "fd",
//	        highway.WithLandmarks(lm), highway.WithBitParallel(1))
//
// The context cancels long builds; options not meaningful to the method
// are ignored (so one option set can drive a sweep across methods).
func Build(ctx context.Context, g *Graph, methodName string, opts ...BuildOption) (DistanceIndex, error) {
	m, err := MethodByName(methodName)
	if err != nil {
		return nil, err
	}
	var cfg BuildConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return m.build(ctx, g, &cfg)
}

// VerifyIndex cross-checks any method's index against ground-truth BFS
// on samples random pairs (deterministic per seed), returning an error
// describing the first mismatch. The generic counterpart of
// Index.Verify, used by hlbuild -verify. Ground truth is one full BFS per
// distinct source into a reused buffer.
func VerifyIndex(g *Graph, ix DistanceIndex, samples int, seed int64) error {
	n := g.NumVertices()
	if n == 0 || samples <= 0 {
		return nil
	}
	sr := ix.NewSearcher()
	rng := rand.New(rand.NewSource(seed))
	var truth []int32
	truthSrc := int32(-1)
	for i := 0; i < samples; i++ {
		s, t := int32(rng.Intn(n)), int32(rng.Intn(n))
		want := int32(0)
		if s != t {
			if truthSrc != s {
				truth = bfs.DistancesReuse(g, s, truth)
				truthSrc = s
			}
			want = truth[t]
		}
		if got := sr.Distance(s, t); got != want {
			return fmt.Errorf("highway: verify: Distance(%d,%d) = %d, BFS says %d", s, t, got, want)
		}
	}
	return nil
}
